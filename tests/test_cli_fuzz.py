"""Property test: every configuration, well-formed or not, ends in one of
the CLI's exit codes (0 pass, 1 verification failure, 2 malformed
configuration, 3 hypothesis violation) and never in a traceback."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hassewitt.cli import main
from hassewitt.geometry import monomials

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, width=16),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)

ELEMENT = st.one_of(
    st.integers(-3, 9),
    st.text(alphabet="0123,-x ", max_size=5),
    JUNK,
)


@st.composite
def well_formed_config(draw):
    n = draw(st.integers(1, 2))
    d = draw(st.integers(n + 1, n + 2))
    pool = [list(e) for e in monomials(d, n + 1)]
    exponents = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique_by=tuple)
    )
    p = draw(st.sampled_from([2, 3, 5]))
    a = draw(st.integers(1, 2))
    element = st.one_of(
        st.integers(-2, 9),
        st.lists(st.integers(-1, p), min_size=1, max_size=a).map(
            lambda c: ",".join(map(str, c))
        ),
    )
    lam = draw(st.lists(element, min_size=len(exponents), max_size=len(exponents)))
    return {"n": n, "d": d, "exponents": exponents, "p": p, "a": a, "lambda": lam}


MALFORMED_CONFIG = st.tuples(
    st.fixed_dictionaries(
        {
            "n": st.one_of(st.integers(-1, 3), JUNK),
            "d": st.one_of(st.integers(-1, 5), JUNK),
            "exponents": st.one_of(
                st.lists(st.lists(st.integers(-1, 4), max_size=4), max_size=5),
                st.lists(st.integers(0, 3), max_size=4),
                st.lists(
                    st.lists(st.one_of(st.integers(0, 3), JUNK), max_size=3), max_size=3
                ),
                JUNK,
            ),
        }
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "p": st.one_of(st.sampled_from([2, 3, 5, 0, 1, 4, -3]), JUNK),
            "a": st.one_of(st.integers(-1, 2), JUNK),
            "seed": st.one_of(st.integers(0, 3), JUNK),
            "depth": st.one_of(st.integers(-1, 2), JUNK),
            "lambda": st.one_of(st.lists(ELEMENT, max_size=12), ELEMENT),
        },
    ),
).map(lambda parts: {**parts[0], **parts[1]})

# A well-formed config with one field replaced by an arbitrary value.
DAMAGED_CONFIG = st.tuples(
    well_formed_config(),
    st.sampled_from(["n", "d", "exponents", "p", "a", "seed", "depth", "lambda"]),
    st.one_of(st.integers(-1, 3), ELEMENT, st.lists(ELEMENT, max_size=4)),
).map(lambda parts: {**parts[0], parts[1]: parts[2]})

CONFIG = st.one_of(well_formed_config(), DAMAGED_CONFIG, MALFORMED_CONFIG)

COMMAND = st.one_of(
    st.sampled_from(
        [["hw-symbolic"], ["hw-eval"], ["generic-det"], ["series", "--depth", "1"],
         ["trunc"], ["oracle"]]
    ),
    st.builds(
        lambda k: ["hw-eval", "--sweep", k],
        st.sampled_from(["k=1", "k=2", "k=0", "k=99", "k=x", "j=1", "k"]),
    ),
)


# derandomize: tier-1 runs the same 150 examples every time, so a failure
# reproduces; a wider search is a matter of raising max_examples locally.
@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(cfg=CONFIG, command=COMMAND)
def test_any_config_exits_with_a_known_code(tmp_path, cfg, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(command + ["--config", str(path)])
    assert code in (0, 1, 2, 3)
