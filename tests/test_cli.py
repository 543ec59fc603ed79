import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hassewitt
from hassewitt import algebra, cli, geometry, hasse_witt
from hassewitt.cli import PRESETS, main
from hassewitt.reports import Text

from conftest import SEXTIC, strip_seconds, support_from_preset
from test_golden import RAW_GOLDEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, **overrides):
    cfg = {
        "n": 2,
        "d": 3,
        "exponents": [[3, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, 1]],
        "p": 5,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_generic_det_hesse(capsys):
    code, out, _ = run_cli(capsys, "generic-det", "--preset", "hesse-cubic", "--p", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["det_B_constant_term"] == 1
    assert payload["thm_2_3"] == "pass"
    assert payload["prop_2_11"] == "pass"


def test_hw_symbolic(capsys):
    code, out, _ = run_cli(capsys, "hw-symbolic", "--preset", "hesse-cubic", "--p", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["labels"] == ["111"]
    assert payload["matrix"] == [["4*L1^1*L2^1*L3^1*L4^1 + 1*L1^4*L2^0*L3^0*L4^0"]]


def test_hw_eval_rank(tmp_path, capsys):
    path = write_config(tmp_path, **{"lambda": [1, 1, 1, 2]})
    code, out, _ = run_cli(capsys, "hw-eval", "--config", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [["4"]]
    assert payload["rank"] == 1


def test_hw_eval_supersingular_point(tmp_path, capsys):
    path = write_config(tmp_path, **{"lambda": [1, 1, 1, 0]})
    code, out, _ = run_cli(capsys, "hw-eval", "--config", path)
    assert code == 0
    assert json.loads(out)["rank"] == 0


def test_hw_eval_sweep_csv(tmp_path, capsys):
    path = write_config(tmp_path, **{"lambda": [1, 1, 1, 0]})
    code, out, _ = run_cli(capsys, "hw-eval", "--config", path, "--sweep", "k=4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda_k,rank"
    assert len(lines) == 6  # header + one row per element of GF(5)
    ranks = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    # entry is 4t + t^4 mod 5, zero exactly at t in {0, 1}
    assert ranks["0"] == "0" and ranks["1"] == "0" and ranks["2"] == "1"


def test_verify_suite_3_8(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--preset", "hesse-cubic", "--p", "5", "--suite", "3.8"
    )
    assert code == 0
    payload = json.loads(out)
    (report,) = payload["reports"]
    assert report["passed"] and report["witnesses"]["sign"] == "+"


def test_verify_all_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "hesse-cubic", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 8
    assert all(r["passed"] for r in payload["reports"])


def test_series_and_trunc(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--preset", "hesse-cubic", "--p", "5",
        "--i", "1", "--j", "1", "--depth", "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert "2*L1^-3" in payload["G_i"]
    assert "-15*L1^-6" in payload["G_i"]
    code, out, _ = run_cli(
        capsys, "trunc", "--preset", "hesse-cubic", "--p", "5", "--i", "1", "--j", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["prop_3_8"]["passed"]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_series_every_preset(capsys, preset, p):
    # quartic-full and quintic-full at p = 5, 7 have rational G_i
    # coefficients, printed as a/b; every derivative series is integral
    code, out, err = run_cli(capsys, "series", "--preset", preset, "--p", str(p))
    if not support_from_preset(preset).m:  # fermat-cubic: no interior monomial
        assert code == 2 and "series indices" in err
        assert "no interior monomial" in err
        return
    assert code == 0
    payload = json.loads(out)
    for term in payload["G_i"].split(" + "):
        Fraction(term.split("*")[0])
    for term in payload["derivative_series"].split(" + "):
        int(term.split("*")[0])
    assert ("/" in payload["G_i"]) == (preset.endswith("-full") and p > 3)


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--preset", "hesse-cubic", "--p", "3")
    assert code == 0
    assert json.loads(out)["report"]["passed"]


def test_config_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "d": 3, "exponents": [[3, 0, 0], [2, 0, 0]]}))
    code, _, err = run_cli(capsys, "generic-det", "--config", str(path))
    assert code == 2
    assert "homogeneous" in err


def test_missing_config_exit_2(capsys):
    code, _, err = run_cli(capsys, "generic-det")
    assert code == 2


def test_bad_lambda_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, **{"lambda": [1, 1]})
    code, _, err = run_cli(capsys, "hw-eval", "--config", path)
    assert code == 2
    assert "lambda" in err


def test_hypothesis_violation_exit_3(capsys):
    code, _, err = run_cli(capsys, "generic-det", "--preset", "fermat-cubic", "--p", "5")
    assert code == 3
    assert "interior" in err


@pytest.mark.parametrize("suite", ["2.9", "3.4", "3.7", "3.8"])
def test_suites_without_interior_monomial_exit_3(capsys, suite):
    # fermat-cubic has no interior monomial in its support: these suites
    # take one series or set per interior monomial and would check nothing
    code, out, err = run_cli(
        capsys, "verify", "--preset", "fermat-cubic", "--p", "5", "--suite", suite
    )
    assert code == 3 and not out
    assert "needs an interior monomial" in err


def test_suite_3_11_checks_the_fermat_entry(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--preset", "fermat-cubic", "--p", "5", "--suite", "3.11"
    )
    assert code == 0
    assert json.loads(out)["reports"][0]["witnesses"]["entries_checked"] == 1


def test_trunc_without_interior_monomial_exit_2(capsys):
    code, _, err = run_cli(capsys, "trunc", "--preset", "fermat-cubic", "--p", "5")
    assert code == 2
    assert "series indices" in err and "no interior monomial" in err


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--preset", "hesse-cubic", "--p", "5", "--suite", "2.9")
    _, out2, _ = run_cli(capsys, "verify", "--preset", "hesse-cubic", "--p", "5", "--suite", "2.9")
    # timings may differ; everything else must be byte-identical
    p1, p2 = json.loads(out1), json.loads(out2)
    for payload in (p1, p2):
        for r in payload["reports"]:
            r["seconds"] = 0
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "generic-det", "--preset", "hesse-cubic", "--p", "5",
        "--out", str(target),
    )
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv,lam",
    [(["hw-symbolic"], False), (["verify", "--suite", "3.8"], False),
     (["hw-eval"], True), (["hw-eval", "--sweep", "k=4"], True)],
    ids=["hw-symbolic", "verify-3.8", "hw-eval", "hw-eval-sweep"],
)
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv, lam):
    target = tmp_path / "report"
    path = write_config(tmp_path, **({"lambda": [1, 1, 1, 0]} if lam else {}))
    code, out, _ = run_cli(capsys, *argv, "--config", path, "--out", str(target))
    assert code == 0
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exit_2_before_computing(tmp_path, capsys, monkeypatch, where):
    def computed(*args):
        raise AssertionError("the matrix was computed before --out was checked")

    monkeypatch.setattr(cli, "symbolic_matrix", computed)
    monkeypatch.setattr(cli, "symbolic_entry_text", computed)
    target = tmp_path / "missing" / "report.json" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(
        capsys, "hw-symbolic", "--preset", "hesse-cubic", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: cannot write --out {target}: ")


@pytest.mark.parametrize("existing", [False, True])
def test_out_check_leaves_the_file_as_it_was(tmp_path, capsys, existing):
    target = tmp_path / "ranks.csv"
    if existing:
        target.write_text("kept\n")
    path = write_config(tmp_path, **{"lambda": [1, 1, 1, 0]})
    code, _, err = run_cli(
        capsys, "hw-eval", "--config", path, "--sweep", "k=9", "--out", str(target)
    )
    assert code == 2
    assert "sweep index out of range" in err
    if existing:
        assert target.read_text() == "kept\n"
    else:
        assert not target.exists()


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_exit_141_and_devnull(capsys, monkeypatch):
    read_end, write_end = os.pipe()
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(write_end))
        code = main(["hw-symbolic", "--preset", "hesse-cubic", "--p", "5"])
        assert code == 141
        assert capsys.readouterr().err == ""
        # the descriptor now writes to os.devnull, so a flush at exit succeeds
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    finally:
        os.close(read_end)
        os.close(write_end)


def test_hw_symbolic_writes_each_entry_before_computing_the_next(monkeypatch):
    stdout = io.StringIO()
    written = []  # length of stdout at each symbolic_entry_text call
    entry = cli.symbolic_entry_text

    def recorded(*args):
        written.append(len(stdout.getvalue()))
        return entry(*args)

    monkeypatch.setattr(cli, "symbolic_entry_text", recorded)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["hw-symbolic", "--preset", "quartic-full", "--p", "5"]) == 0
    assert len(written) == 9
    assert all(a < b for a, b in zip(written, written[1:]))
    assert written[-1] < len(stdout.getvalue())


def test_hw_symbolic_closed_stdout_stops_after_one_entry(capsys, monkeypatch):
    calls = []
    entry = cli.symbolic_entry_text

    def counted(*args):
        calls.append(args)
        return entry(*args)

    read_end, write_end = os.pipe()
    try:
        monkeypatch.setattr(cli, "symbolic_entry_text", counted)
        monkeypatch.setattr(sys, "stdout", ClosedPipe(write_end))
        code = main(["hw-symbolic", "--preset", "quartic-full", "--p", "5"])
        assert code == 141
        assert len(calls) == 1
        assert capsys.readouterr().err == ""
    finally:
        os.close(read_end)
        os.close(write_end)


def test_out_file_is_complete_when_stdout_is_closed(tmp_path, capsys, monkeypatch):
    argv = ("hw-symbolic", "--preset", "quintic-full", "--p", "3")
    target = tmp_path / "report.json"
    read_end, write_end = os.pipe()
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(write_end))
        assert main(list(argv) + ["--out", str(target)]) == 141
    finally:
        os.close(read_end)
        os.close(write_end)
    assert hashlib.sha256(target.read_bytes()).hexdigest() == RAW_GOLDEN[argv]


def calls_before_a_hasse_witt_name(monkeypatch, argv, watched):
    """The calls to the ``watched`` functions that the CLI makes before its
    first call into hasse_witt through a name in cli's namespace.  The
    benchmark's set-up probe stops the CLI there, by replacing those names;
    a computation that comes before it would escape the probe."""

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    calls = []

    def recorder(fn):
        def recorded(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return recorded

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hassewitt":
            for attr, obj in list(vars(module).items()):
                if any(obj is fn for fn in watched):
                    monkeypatch.setattr(module, attr, recorder(obj))
    for name, obj in list(vars(cli).items()):
        if (
            callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == "hassewitt.hasse_witt"
        ):
            monkeypatch.setattr(cli, name, reached)
    with pytest.raises(Reached):
        main(argv)
    return calls


def test_hw_symbolic_computes_first_through_a_hasse_witt_name_in_cli(monkeypatch):
    argv = ["hw-symbolic", "--preset", "quartic-full", "--p", "5"]
    watched = [geometry.representation_blocks]
    assert calls_before_a_hasse_witt_name(monkeypatch, argv, watched) == []


def test_generic_det_computes_first_through_a_hasse_witt_name_in_cli(monkeypatch):
    argv = ["generic-det", "--preset", "quartic-full", "--p", "5"]
    watched = [geometry.representation_coefficients, algebra.det_leibniz]
    assert calls_before_a_hasse_witt_name(monkeypatch, argv, watched) == []


def test_import_of_the_cli_loads_no_heavy_module():
    # the modules that the import adds to those of a bare interpreter, so a
    # site hook that loads one of them anyway cannot fail the test
    env = dict(os.environ, PYTHONPATH=str(Path(hassewitt.__file__).parents[1]))
    code = (
        "import sys; before = set(sys.modules); import hassewitt.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    added = set(proc.stdout.split())
    assert "hassewitt.cli" in added
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal"}
    assert not added & heavy


def test_closed_stdout_process_exit_141_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(hassewitt.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hassewitt.cli", "hw-symbolic",
             "--preset", "hesse-cubic", "--p", "5"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


# -- the streamed generic-det report ------------------------------------------


def test_generic_det_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    argv = ("generic-det", "--preset", "quartic-full", "--p", "3")
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0
    assert target.read_bytes() == out.encode()
    assert hashlib.sha256(out.encode()).hexdigest() == RAW_GOLDEN[argv]


def test_generic_det_closed_stdout_exit_141(capsys, monkeypatch):
    read_end, write_end = os.pipe()
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(write_end))
        code = main(["generic-det", "--preset", "quartic-full", "--p", "3"])
        assert code == 141
        assert capsys.readouterr().err == ""
    finally:
        os.close(read_end)
        os.close(write_end)


def test_generic_det_unwritable_out_exit_2_before_computing(tmp_path, capsys, monkeypatch):
    def computed(*args):
        raise AssertionError("the determinant was computed before --out was checked")

    monkeypatch.setattr(cli, "generic_det", computed)
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "generic-det", "--preset", "quartic-full", "--p", "3", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: cannot write --out {target}: ")


def test_generic_det_singular_matrix_prints_the_json_dump_payload(capsys, monkeypatch):
    # row 1 a copy of row 0, so det A = 0 and det B = 0
    support = support_from_preset("quartic-full")
    first, second = support.interior_set()[:2]
    entry = hasse_witt.symbolic_entry

    def copied(support, u, v, p):
        return entry(support, first if u == second else u, v, p)

    monkeypatch.setattr(hasse_witt, "symbolic_entry", copied)
    code, out, _ = run_cli(capsys, "generic-det", "--preset", "quartic-full", "--p", "3")
    assert code == 1
    payload = {
        "p": 3, "det_B": "0", "det_B_constant_term": 0, "det_A": "0",
        "thm_2_3": "fail", "prop_2_11": "fail",
    }
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [["hw-symbolic"], ["generic-det"], ["verify", "--suite", "all"],
     ["hw-eval", "--sweep", "k=1"]],
    ids=["hw-symbolic", "generic-det", "verify-all", "hw-eval-sweep"],
)
def test_bench_setup_probe_stops_at_a_hasse_witt_name(tmp_path, argv):
    """The benchmark's setup_s probe stubs every hasse_witt name bound in
    cli and prints the time when the CLI first calls one; it exits 98 if
    the CLI finishes without calling one.  Anything that the CLI writes to
    stdout before that call would spoil the one float the probe prints."""
    if argv[0] == "hw-eval":
        argv = argv + ["--config", write_config(
            tmp_path, **dict(PRESETS["quartic-full"], p=3, **{"lambda": [1] * 15}))]
    else:
        argv = argv + ["--preset", "quartic-full", "--p", "3"]
    src = Path(hassewitt.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, str(src.parent / "bench" / "child.py"), "probe", "--", *argv],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert float(proc.stdout) > 0


def test_bench_tracer_installs_and_counts_relations(tmp_path):
    """The benchmark's tracer patches SparseLaurentPoly methods and binds
    verify_hypergeometric_solution's parameters by name; a rename or a
    deletion there makes every traced run fail."""
    src = Path(hassewitt.__file__).parents[1]
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(src.parent / "bench" / "child.py"), "trace", str(out),
         "--", "verify", "--preset", "hesse-cubic", "--p", "5"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    trace = json.loads(out.read_text())
    calls, _ = trace["spans"]["algebra.canonical_str"]
    assert calls > 0  # the span is entered at install time, so read its calls
    assert trace["counts"]["suites.box_relations.used"] > 0
    # the per-layer metrics of the box kernel read real work
    for span in ("hypergeometric.box_apply", "hypergeometric.verify_hypergeometric_solution"):
        calls, _ = trace["spans"][span]
        assert calls > 0, span
    # the run builds A once, through the names the tracer patched
    assert trace["spans"]["hasse_witt.symbolic_matrix"][0] == 1
    for span in ("hasse_witt.scaled_matrix", "hasse_witt.generic_det_check",
                 "suites.suite_2_11", "geometry.enumerate_box_relations"):
        calls, _ = trace["spans"][span]
        assert calls >= 1, span


@pytest.mark.parametrize(
    "argv,span",
    [
        (["hw-eval", "--sweep", "k=4"], "hasse_witt.evaluate_matrix"),
        (["generic-det", "--preset", "hesse-cubic", "--p", "5"], "hasse_witt.generic_det"),
    ],
    ids=["hw-eval-sweep", "generic-det"],
)
def test_bench_tracer_runs_the_commands_whose_values_it_spans(tmp_path, argv, span):
    """A traced run of the sweep (hesse-cubic over GF(25)) and of generic-det
    exits 0 and calls the hasse_witt function whose return value the
    command consumes."""
    if argv[0] == "hw-eval":
        argv = argv + ["--config", write_config(
            tmp_path, a=2, **{"lambda": ["1,1", "1,0", "0,1", "1,0"]})]
    src = Path(hassewitt.__file__).parents[1]
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(src.parent / "bench" / "child.py"), "trace", str(out),
         "--", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    calls, _ = json.loads(out.read_text())["spans"][span]
    assert calls > 0


def test_bench_oracle_agrees_with_the_sweep(tmp_path, capsys):
    """The benchmark's dense-oracle check of a sweep (hesse-cubic over
    GF(25), k = 4) passes oracle_equivalence and gives the ranks that
    hw-eval --sweep prints, at one value of rank 0 and one of rank 1."""
    config = write_config(tmp_path, a=2, **{"lambda": ["1,1", "1,0", "0,1", "1,0"]})
    code, out, _ = run_cli(capsys, "hw-eval", "--config", config, "--sweep", "k=4")
    assert code == 0
    swept = {}
    for line in out.splitlines()[1:]:
        value, rank = line.rsplit(",", 1)
        swept.setdefault(int(rank), value)
    values = [swept[0], swept[1]]
    src = Path(hassewitt.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, str(src.parent / "bench" / "child.py"), "oracle", config, "4",
         *values],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == {values[0]: 0, values[1]: 1}


def test_extension_field_lambda(tmp_path, capsys):
    path = write_config(
        tmp_path, a=2, **{"lambda": ["1,1", "1,0", "0,1", "1,0"]}
    )
    code, out, _ = run_cli(capsys, "hw-eval", "--config", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == 2
    assert payload["rank"] in (0, 1)


@pytest.mark.parametrize("p", ["4", "1", "0", "-3"])
def test_non_prime_p_exit_2(capsys, p):
    code, out, err = run_cli(capsys, "hw-symbolic", "--preset", "hesse-cubic", "--p", p)
    assert code == 2
    assert out == ""
    assert "not prime" in err


def test_non_prime_p_in_config_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "generic-det", "--config", write_config(tmp_path, p=9))
    assert code == 2
    assert "not prime" in err


@pytest.mark.parametrize("a", [0, -1])
def test_extension_degree_below_one_exit_2(tmp_path, capsys, a):
    path = write_config(tmp_path, a=a, **{"lambda": [1, 1, 1, 2]})
    code, _, err = run_cli(capsys, "hw-eval", "--config", path)
    assert code == 2
    assert "extension degree" in err


@pytest.mark.parametrize("command", ["series", "trunc"])
@pytest.mark.parametrize("flag", ["--i", "--j"])
def test_series_index_zero_exit_2(capsys, command, flag):
    code, _, err = run_cli(
        capsys, command, "--preset", "hesse-cubic", "--p", "5", flag, "0"
    )
    assert code == 2
    assert "indices" in err


@pytest.mark.parametrize("command", ["series", "trunc"])
def test_depth_zero_exit_2(capsys, command):
    code, _, err = run_cli(
        capsys, command, "--preset", "hesse-cubic", "--p", "5", "--depth", "0"
    )
    assert code == 2
    assert "depth" in err


def test_config_depth_zero_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, depth=0))
    assert code == 2
    assert "depth" in err


@pytest.mark.parametrize("depth", [2, 4])
def test_verify_config_depth_reaches_the_depth_suites(tmp_path, capsys, depth):
    # suites 2.9 and 3.4 run at the config's depth; suite 3.8 reads G_i at
    # depth p = 3 whatever it is, so a series shared across depths would
    # fail it
    path = write_config(tmp_path, depth=depth, **dict(PRESETS["quartic-full"], p=3))
    code, out, _ = run_cli(capsys, "verify", "--config", path)
    assert code == 0
    reports = {r["statement"]: r for r in json.loads(out)["reports"]}
    assert len(reports) == 8 and all(r["passed"] for r in reports.values())
    assert reports["prop-2.9"]["witnesses"]["depth"] == depth
    assert reports["prop-3.4"]["witnesses"]["depth"] == depth
    assert reports["prop-3.8"]["passed"]


def test_j_defaults_to_i(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--preset", "quartic-full", "--p", "3", "--i", "2", "--depth", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["i"], payload["j"]) == (2, 2)


def test_flat_exponents_exit_2(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "hw-symbolic", "--config", write_config(tmp_path, exponents=[3, 0, 0])
    )
    assert code == 2
    assert out == ""
    assert "exponents" in err


def test_scalar_lambda_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, **{"lambda": 5})
    code, out, err = run_cli(capsys, "hw-eval", "--config", path)
    assert code == 2
    assert out == ""
    assert "lambda" in err


@pytest.mark.parametrize("n,d,exponents", [(0, 1, [[1]]), (-1, 0, [[]])])
def test_dimension_below_one_exit_2(tmp_path, capsys, n, d, exponents):
    path = write_config(tmp_path, n=n, d=d, exponents=exponents)
    code, out, err = run_cli(capsys, "hw-symbolic", "--config", path)
    assert code == 2
    assert out == ""
    assert "dimension" in err


@pytest.mark.parametrize("depth", ["1", "2"])
def test_trunc_depth_below_p_exit_2(capsys, depth):
    # the rho window holds series terms with -l_i up to p = 3
    code, out, err = run_cli(
        capsys, "trunc", "--preset", "quartic-full", "--p", "3",
        "--i", "1", "--j", "2", "--depth", depth,
    )
    assert code == 2
    assert out == ""
    assert "depth" in err


@pytest.mark.parametrize("depth", ["3", "4"])
def test_trunc_depth_at_least_p_passes(capsys, depth):
    code, out, _ = run_cli(
        capsys, "trunc", "--preset", "quartic-full", "--p", "3",
        "--i", "1", "--j", "2", "--depth", depth,
    )
    assert code == 0
    assert json.loads(out)["prop_3_8"]["passed"]


def test_trunc_config_depth_below_p_exit_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "trunc", "--config", write_config(tmp_path, depth=4))
    assert code == 2
    assert out == ""
    assert "depth" in err


@pytest.mark.parametrize("depth", ["1", "2"])
def test_series_accepts_depth_below_p(capsys, depth):
    code, out, _ = run_cli(
        capsys, "series", "--preset", "quartic-full", "--p", "3",
        "--i", "1", "--j", "2", "--depth", depth,
    )
    assert code == 0
    assert json.loads(out)["depth"] == int(depth)


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("field", ["p", "a", "n", "d", "seed", "depth", "box_bound"])
def test_boolean_integer_field_exit_2(tmp_path, capsys, field, value):
    path = write_config(tmp_path, **{field: value})
    code, out, err = run_cli(capsys, "verify", "--config", path, "--suite", "2.8")
    assert code == 2
    assert out == ""
    assert field in err


@pytest.mark.parametrize("value", [True, False])
def test_boolean_exponent_entry_exit_2(tmp_path, capsys, value):
    exponents = [[3, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, value]]
    code, out, err = run_cli(
        capsys, "hw-symbolic", "--config", write_config(tmp_path, exponents=exponents)
    )
    assert code == 2
    assert out == ""
    assert "exponents" in err


def test_boolean_lambda_entry_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, **{"lambda": [1, 1, True, 2]})
    code, out, err = run_cli(capsys, "hw-eval", "--config", path)
    assert code == 2
    assert out == ""
    assert "field element" in err


@pytest.mark.parametrize("box_bound", [0, -1, "3"])
def test_bad_box_bound_exit_2(tmp_path, capsys, box_bound):
    path = write_config(tmp_path, box_bound=box_bound)
    code, out, err = run_cli(capsys, "verify", "--config", path, "--suite", "3.11")
    assert code == 2
    assert out == ""
    assert "box_bound" in err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, max_results=10)
    code, out, err = run_cli(capsys, "verify", "--config", path, "--suite", "3.11")
    assert code == 2
    assert out == ""
    assert "max_results" in err


def test_presets_use_only_accepted_keys():
    from hassewitt.cli import CONFIG_KEYS, PRESETS

    assert all(set(cfg) <= set(CONFIG_KEYS) for cfg in PRESETS.values())


# only generic-det expands a determinant: verify decides Prop 2.11 by the
# certificate of hasse_witt.generic_det_check at every m
@pytest.mark.parametrize("argv", [["generic-det"]], ids=["generic-det"])
def test_determinant_over_the_bound_exit_2(tmp_path, capsys, argv):
    path = write_config(tmp_path, **SEXTIC)
    code, out, err = run_cli(capsys, *argv, "--config", path)
    assert code == 2
    assert out == ""
    assert "m = 10" in err and "bound 8" in err


@pytest.mark.parametrize("argv", [["generic-det"]], ids=["generic-det"])
def test_determinant_over_the_work_bound_exit_2(capsys, monkeypatch, argv):
    # quintic-full at p = 5 has m = 6 but rows whose term counts multiply to
    # 2.6e15: the expansion is refused before it starts
    def expanded(*args):
        raise AssertionError("the determinant was expanded")

    monkeypatch.setattr(algebra, "_packed_det", expanded)
    code, out, err = run_cli(capsys, *argv, "--preset", "quintic-full", "--p", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ") and "DET_WORK_BOUND" in err


def test_verify_runs_every_suite_over_the_determinant_bound(tmp_path, capsys):
    path = write_config(tmp_path, **SEXTIC)
    code, out, _ = run_cli(capsys, "verify", "--config", path, "--p", "5")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 8 and all(r["passed"] for r in reports)
    (prop_2_11,) = [r for r in reports if r["statement"] == "prop-2.11"]
    assert prop_2_11["witnesses"]["matrix_size"] == 10


@pytest.mark.parametrize(
    "argv",
    [["--preset", "quintic-full", "--p", "5", "--suite", "2.11"],
     ["--preset", "quartic-full", "--p", "3", "--suite", "all"]],
    ids=["quintic-full-5-2.11", "quartic-full-3-all"],
)
def test_verify_expands_no_determinant(capsys, monkeypatch, argv):
    # quintic-full at p = 5 is over DET_WORK_BOUND for generic-det
    def refused(mat):
        raise AssertionError("det_leibniz was called")

    for module in (algebra, hasse_witt):
        monkeypatch.setattr(module, "det_leibniz", refused)
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert all(r["passed"] for r in json.loads(out)["reports"])


def test_box_suite_runs_over_the_determinant_bound(tmp_path, capsys):
    path = write_config(tmp_path, **SEXTIC)
    code, out, _ = run_cli(capsys, "verify", "--config", path, "--suite", "3.11")
    assert code == 0
    witnesses = json.loads(out)["reports"][0]["witnesses"]
    assert witnesses["entries_checked"] == 100


# GF(5^40) is far above FIELD_BOUND = 2**16: every command that builds a field
# exits 2 and names the bound; the others never build one and ignore a.
@pytest.mark.parametrize(
    "argv,lam",
    [(["hw-eval"], True), (["hw-eval", "--sweep", "k=4"], True),
     (["oracle"], True), (["oracle"], False)],
    ids=["hw-eval", "hw-eval-sweep", "oracle-lambda", "oracle-seeded"],
)
def test_field_over_the_bound_exit_2(tmp_path, capsys, argv, lam):
    extra = {"lambda": [1, 1, 1, 2]} if lam else {}
    path = write_config(tmp_path, a=40, **extra)
    code, out, err = run_cli(capsys, *argv, "--config", path)
    assert code == 2
    assert out == ""
    assert "FIELD_BOUND = 65536" in err


@pytest.mark.parametrize(
    "argv",
    [["hw-symbolic"], ["generic-det"], ["verify", "--suite", "2.7"], ["series"],
     ["trunc"]],
    ids=["hw-symbolic", "generic-det", "verify-2.7", "series", "trunc"],
)
def test_commands_without_a_field_ignore_a(tmp_path, capsys, argv):
    code, big, _ = run_cli(capsys, *argv, "--config", write_config(tmp_path, a=40))
    assert code == 0
    code, small, _ = run_cli(capsys, *argv, "--config", write_config(tmp_path, a=1))
    assert code == 0
    assert strip_seconds(json.loads(big)) == strip_seconds(json.loads(small))


# -- the one JSON writer ------------------------------------------------------


# every command that prints JSON, on small inputs; verify runs all suites
LAYOUT_ARGV = {
    "hw-symbolic": ["hw-symbolic", "--preset", "quartic-full", "--p", "3"],
    "hw-eval": ["hw-eval"],
    "generic-det": ["generic-det", "--preset", "quartic-full", "--p", "3"],
    "series": ["series", "--preset", "hesse-cubic", "--p", "5"],
    "trunc": ["trunc", "--preset", "quartic-full", "--p", "3", "--i", "1", "--j", "2"],
    "verify": ["verify", "--preset", "quartic-full", "--p", "3", "--suite", "all"],
    "oracle": ["oracle", "--preset", "hesse-cubic", "--p", "5"],
}


@pytest.mark.parametrize("command", sorted(LAYOUT_ARGV))
def test_stdout_is_the_json_dump_layout(tmp_path, capsys, command):
    """GOLDEN and ARGV_GOLDEN hash re-serialised JSON, so they cannot see a
    change in the bytes; this pins the bytes of every command's layout."""
    argv = LAYOUT_ARGV[command]
    if command == "hw-eval":
        argv = argv + ["--config", write_config(tmp_path, **{"lambda": [1, 1, 1, 2]})]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)


def lazy_copy(value, draw):
    """``value`` with some strings made Texts of random pieces and some lists
    made iterators, drawn with ``draw``."""
    if isinstance(value, str) and draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(0, len(value)), max_size=3)))
        bounds = [0] + cuts + [len(value)]
        return Text(value[a:b] for a, b in zip(bounds, bounds[1:]))
    if isinstance(value, dict):
        return {key: lazy_copy(item, draw) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        items = [lazy_copy(item, draw) for item in value]
        return iter(items) if draw(st.booleans()) else items
    return value


@settings(max_examples=200, deadline=None)
@given(payload=json_values, data=st.data())
def test_json_writer_matches_json_dumps(payload, data):
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    for value in (payload, lazy_copy(payload, data.draw)):
        fh = io.StringIO()
        cli._dump_json(value, fh)
        assert fh.getvalue() == expected


def test_escape_piece_matches_encode_basestring_ascii():
    # every character that needs an escape, or borders on one, alone, at both
    # ends and in the middle of a long plain piece, and short seeded mixes
    rng = random.Random(2028)
    specials = [*map(chr, range(0x20)), "\x7f", '"', "\\", "/", "~", " ", "\xe9"]
    specials += ["\u2028", "\U0001d11e", "\ud800", ""]
    plain = "".join(rng.choice("0123456789-*L^+ /") for _ in range(4000))
    corpus = [plain]
    for c in specials:
        corpus += [c, c + plain, plain[:2000] + c + plain[2000:], plain + c]
    for _ in range(500):
        corpus.append("".join(rng.choices(specials + list("aL1^*+ "), k=rng.randint(0, 12))))
    for piece in corpus:
        assert cli._escape_piece(piece) == encode_basestring_ascii(piece)[1:-1]
    assert cli._escape_piece(plain) is plain  # no copy of a plain piece


def test_json_writer_holds_the_layout_until_the_first_lazy_value():
    fh = io.StringIO()

    def pieces():
        assert fh.getvalue() == ""
        yield "x"

    cli._dump_json({"a": [1, "b", {}], "b": Text(pieces()), "c": iter([])}, fh)
    assert json.loads(fh.getvalue()) == {"a": [1, "b", {}], "b": "x", "c": []}


def traced_peak(argv):
    """The tracemalloc peak of one in-process CLI run, stdout to os.devnull."""
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generic_det_peaks_near_its_determinant():
    # the texts are rendered from the packed determinant, with no exponent
    # tuple and no polynomial copy: the command peaks at little more than
    # det_leibniz alone (1.03 times; 1.13 when the terms were unpacked into
    # a polynomial and rendered from it)
    p = 5
    entries = hasse_witt.symbolic_matrix(support_from_preset("quartic-full"), p).entries
    tracemalloc.start()
    try:
        algebra.det_leibniz(entries)
        det = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traced_peak(["generic-det", "--preset", "quartic-full", "--p", str(p)]) <= 1.1 * det


def test_hw_symbolic_peaks_below_one_entry_of_the_polynomial_route():
    # each entry's text is written from its walk as it is read, so the whole
    # matrix needs less than one entry built as a polynomial and then printed
    p = 11
    support = support_from_preset("quartic-full")
    labels = support.interior_set()
    largest = max(
        ((u, v) for u in labels for v in labels),
        key=lambda uv: len(hasse_witt.symbolic_entry(support, *uv, p).terms),
    )
    tracemalloc.start()
    try:
        hasse_witt.symbolic_entry(support, *largest, p).canonical_str()
        entry = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traced_peak(["hw-symbolic", "--preset", "quartic-full", "--p", str(p)]) <= entry
