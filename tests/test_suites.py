"""Suite-level behaviour: every suite fails on a seeded wrong input and names
the mutated index, and every report is timed in one place."""

import math

import pytest

from hassewitt import SparseLaurentPoly, hypergeometric, reports, suites
from hassewitt.hypergeometric import rho_window, trunc

from conftest import support_from_preset

# quartic-full at p = 3; the mutated entry is (i, j) = (2, 3), 1-based, which
# holds three terms: flipping one coefficient mod 3 negates it, so the
# mutant is neither the entry nor its negative
PRESET_P = 3
I, J = 1, 2


def _flip(f):
    """f with the coefficient of its first term negated."""
    terms = dict(f.terms)
    exp = min(terms)
    terms[exp] = -terms[exp] % f.modulus
    return SparseLaurentPoly(f.nvars, f.modulus, terms)


def _outside_Li(monkeypatch, support, p):
    # a nonzero element of L_1 handed to suite 2.9 as an element of L_2
    real = suites.enumerate_Li
    outsider = next(l for l in real(support.lifted, 0, p) if any(l))

    def injected(lifted, i, depth):
        return real(lifted, i, depth) + ([outsider] if i == I else [])

    monkeypatch.setattr(suites, "enumerate_Li", injected)
    return [(I, outsider)]


def _window_term(monkeypatch, support, p, r_i):
    # flip the first term of the windows of (I, J) with r_I = r_i, as the
    # window construction hands them to suite 3.7; the suite checks each
    # window on its own, so exactly that window fails
    real = suites.lucas_windows
    held = real(support, I, J, p)
    target = min(s for r, f in held.items() if r[I] == r_i for s in f.terms)
    window = tuple(x // p for x in target)

    def flipping(support, i, j, p):
        out = real(support, i, j, p)
        if (i, j) == (I, J):
            terms = dict(out[window].terms)
            terms[target] = -terms[target]
            out[window] = SparseLaurentPoly(support.N, p, terms)
        return out

    monkeypatch.setattr(suites, "lucas_windows", flipping)
    return [(I + 1, J + 1, list(window))]


def _rho_window_term(monkeypatch, support, p):
    expected = _window_term(monkeypatch, support, p, -1)
    assert expected == [(I + 1, J + 1, list(rho_window(support.N, I)))]
    return expected


def _deep_window_term(monkeypatch, support, p):
    return _window_term(monkeypatch, support, p, -2)


def _truncation_identity_entry(monkeypatch, support, p):
    real = hypergeometric.symbolic_entry
    target = (support.exponents[I], support.exponents[J])

    def flipping(support, u, v, p):
        out = real(support, u, v, p)
        return _flip(out) if (tuple(u), tuple(v)) == target else out

    monkeypatch.setattr(hypergeometric, "symbolic_entry", flipping)
    return [(I + 1, J + 1)]


def _matrix_entry(monkeypatch, support, p):
    A = suites.symbolic_matrix(support, p)
    rows = [list(row) for row in A.entries]
    rows[I][J] = _flip(rows[I][J])
    mutant = A._replace(entries=tuple(map(tuple, rows)))
    monkeypatch.setattr(suites, "symbolic_matrix", lambda support, p: mutant)
    return [(I + 1, J + 1)]


def _oracle_coefficient(monkeypatch, support, p):
    real = suites.oracle_dense_coefficient
    target = (support.exponents[I], support.exponents[J])

    def wrong(support, point, p, u, v, field):
        out = real(support, point, p, u, v, field)
        return out + field.one() if (tuple(u), tuple(v)) == target else out

    monkeypatch.setattr(suites, "oracle_dense_coefficient", wrong)
    return [(I, J)]


def _windows(w):
    return [(f["i"], f["j"], f["window"]) for f in w["failures"]]


# test id -> (suite, mutation, the indices a failing report names)
MUTATIONS = {
    "2.9": ("2.9", _outside_Li, lambda w: w["certificate_failures"]),
    "3.7": ("3.7", _rho_window_term, _windows),
    "3.7-deep-window": ("3.7", _deep_window_term, _windows),
    "3.8": (
        "3.8",
        _truncation_identity_entry,
        lambda w: [(e["i"], e["j"]) for e in w["entries"] if not e["signs"]],
    ),
    "3.11": ("3.11", _matrix_entry, lambda w: [(f["i"], f["j"]) for f in w["failures"]]),
    "oracle-eq": ("oracle-eq", _oracle_coefficient, lambda w: w["mismatches"]),
}


def _run(support, suite):
    if suite == "oracle-eq":
        return suites.oracle_equivalence(support, PRESET_P)
    (report,) = suites.run_suites(support, PRESET_P, suite)
    return report


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_suites_name_a_seeded_mutant(quartic, monkeypatch, case):
    suite, mutate, culprits = MUTATIONS[case]
    assert _run(quartic, suite).passed
    expected = mutate(monkeypatch, quartic, PRESET_P)
    report = _run(quartic, suite)
    assert not report.passed
    assert culprits(report.witnesses) == expected


@pytest.mark.parametrize(
    "preset,p,windows",
    [
        ("quartic-full", 2, 27),
        ("quartic-full", 3, 27),
        ("quartic-full", 5, 27),
        ("hesse-cubic", 5, 1),
        ("quintic-full", 3, 162),
        ("sextic", 5, 310),
    ],
)
def test_suite_3_7_checks_the_windows_that_hold_terms(monkeypatch, preset, p, windows):
    # each polynomial suite 3.7 checks is nonzero and equals trunc of its
    # series mod p over its window, and the windows are exactly those that
    # hold a term with r_i >= -2; the reference series is two deeper than the
    # depth 2p that holds every such window, so a window built only in part
    # would differ
    support = support_from_preset(preset)
    checked = []
    pair = []
    real_windows = suites.lucas_windows
    real_verify = suites.verify_hypergeometric_solution

    def lucas_windows(support, i, j, p):
        pair[:] = [i, j]
        return real_windows(support, i, j, p)

    def verify(f, *args, **kwargs):
        checked.append((*pair, f))
        return real_verify(f, *args, **kwargs)

    monkeypatch.setattr(suites, "lucas_windows", lucas_windows)
    monkeypatch.setattr(suites, "verify_hypergeometric_solution", verify)
    (report,) = suites.run_suites(support, p, "3.7")
    assert report.passed
    assert report.witnesses["windows_checked"] == len(checked) == windows
    assert all(not f.is_zero for _, _, f in checked)
    got = {(i, j, tuple(x // p for x in min(f.terms))): f for i, j, f in checked}
    assert len(got) == len(checked)
    for i in range(support.m):
        gi = hypergeometric.series_Gi(support, i, 2 * p + 2)
        for j in range(support.m):
            mod_p = hypergeometric.derivative_series(gi, j).poly.reduce_mod(p)
            held = {tuple(x // p for x in s) for s in mod_p.terms if s[i] // p >= -2}
            assert {r for a, b, r in got if (a, b) == (i, j)} == held
            for r in held:
                assert got[i, j, r] == trunc(r, mod_p, p)


def test_suite_3_7_builds_no_series(quartic, monkeypatch):
    def refused(*args):
        raise AssertionError("suite 3.7 built a series")

    monkeypatch.setattr(suites, "series_Gi", refused)
    monkeypatch.setattr(suites, "derivative_series", refused)
    (report,) = suites.run_suites(quartic, PRESET_P, "3.7")
    assert report.passed
    assert report.witnesses["windows_checked"] == 27


@pytest.mark.parametrize(
    "preset,p,tuples",
    [
        ("quartic-full", 3, 16**3),
        ("quartic-full", 5, 131**3),
        ("quartic-full", 7, 759**3),
        ("quintic-full", 3, 18**3 * 32**3),
        ("quintic-full", 5, 192**3 * 467**3),
    ],
)
def test_suite_2_9_covers_the_whole_product(preset, p, tuples):
    (report,) = suites.run_suites(support_from_preset(preset), p, "2.9")
    assert report.passed
    assert math.prod(report.witnesses["set_sizes"]) == tuples


@pytest.mark.parametrize("p", [3, 5])
def test_suite_2_9_names_a_negated_element(quartic, monkeypatch, p):
    # the negation of a nonzero element of L_1 handed to suite 2.9 as an
    # element of L_2: its weight is negative, and it lies outside L_2; the
    # tuple (l, -l, 0) sums to zero
    real = suites.enumerate_Li
    l = next(l for l in real(quartic.lifted, 0, p) if any(l))
    negated = tuple(-x for x in l)

    def injected(lifted, i, depth):
        return real(lifted, i, depth) + ([negated] if i == I else [])

    monkeypatch.setattr(suites, "enumerate_Li", injected)
    (report,) = suites.run_suites(quartic, p, "2.9")
    assert not report.passed
    assert report.witnesses["counterexamples"] == [(I, negated)]
    assert report.witnesses["certificate_failures"] == [(I, negated)]


def test_timed_sets_seconds_from_one_clock(monkeypatch):
    ticks = iter([10.0, 12.5])
    monkeypatch.setattr(reports.time, "monotonic", lambda: next(ticks))
    seen = []

    def check(*args, **kwargs):
        seen.append((args, kwargs))
        return reports.VerificationReport(statement="s", passed=True, seconds=99.0)

    report = reports.timed(check, 1, 2, k=3)
    assert seen == [((1, 2), {"k": 3})]
    assert report.seconds == 2.5
    assert report.to_dict()["seconds"] == 2.5


def test_reports_built_without_witnesses_hold_distinct_dicts():
    a = reports.VerificationReport("s", True)
    b = reports.VerificationReport(statement="s", passed=True)
    assert a.witnesses == b.witnesses == {}
    a.witnesses["x"] = 1
    assert b.witnesses == {}
    given = {"y": 2}
    assert reports.VerificationReport("s", False, given).witnesses is given


def test_report_to_dict_keys_and_rounding():
    report = reports.VerificationReport("s", False, {"k": [1]}, 1.23456789)
    assert report.seconds == 1.23456789
    report.seconds = 0.1234564  # mutable: timed stamps it after the check
    out = report.to_dict()
    assert list(out) == ["statement", "passed", "witnesses", "seconds"]
    assert out == {"statement": "s", "passed": False, "witnesses": {"k": [1]},
                   "seconds": 0.123456}
    assert reports.VerificationReport("s", True).to_dict()["seconds"] == 0.0


def test_run_suites_times_every_suite(hesse, monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(reports.time, "monotonic", lambda: next(clock))
    reps = suites.run_suites(hesse, 5)
    assert [r.seconds for r in reps] == [1] * len(suites.SUITE_NAMES)


def test_run_suites_rejects_unknown_options(hesse):
    # depth is the one setting besides the suite; nothing else is passed on
    with pytest.raises(TypeError):
        suites.run_suites(hesse, 5, "2.9", seed=2, bogus=1)
    (report,) = suites.run_suites(hesse, 5, "2.9", depth=3)
    assert report.witnesses["depth"] == 3
