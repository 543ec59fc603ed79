import inspect
import itertools
import json
import math
import random
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hassewitt import algebra, geometry, hasse_witt, suites
from hassewitt.algebra import ExtensionField, SparseLaurentPoly, det_leibniz
from hassewitt.cli import PRESETS, main
from hassewitt.geometry import SupportSet, in_Li, monomials
from hassewitt.hasse_witt import (
    HypothesisViolation,
    evaluate_matrix,
    generic_det_check,
    matrix_rank,
    oracle_dense_coefficient,
    scaled_matrix,
    symbolic_entry,
    symbolic_entry_text,
    symbolic_matrix,
    sweep_ranks,
)

from conftest import const, det_cofactor, joined, mono, plus, support_from_preset, unpacked
from test_golden import GOLDEN

U111 = (1, 1, 1)


# -- symbolic entries ----------------------------------------------------------
# After reindexing, the Hesse support is ((1,1,1),(0,0,3),(0,3,0),(3,0,0)),
# so L1 is the coefficient of xyz.


def test_hesse_entry_p5(hesse):
    entry = symbolic_entry(hesse, U111, U111, 5)
    expected = SparseLaurentPoly(
        4, 5, {(1, 1, 1, 1): 4, (4, 0, 0, 0): 1}
    )
    assert entry == expected


def test_entry_negative_target_is_zero(hesse):
    # p*u - v with a negative coordinate has no nonnegative representation
    entry = symbolic_entry(hesse, U111, (0, 0, 3), 2)
    assert (2 * 1 - 3) < 0 and entry.is_zero


def test_fermat_entry_is_zero(fermat):
    assert symbolic_entry(fermat, U111, U111, 5).is_zero


def test_entry_homogeneity(quartic):
    # every monomial exponent satisfies sum e_k * a_k+ = p*u+ - v+
    p = 3
    A = symbolic_matrix(quartic, p)
    lifted = quartic.lifted
    for i, u in enumerate(A.labels):
        for j, v in enumerate(A.labels):
            target = tuple(
                p * a - b for a, b in zip(tuple(u) + (1,), tuple(v) + (1,))
            )
            for e in A.entries[i][j].terms:
                got = tuple(
                    sum(ek * vec[c] for ek, vec in zip(e, lifted))
                    for c in range(4)
                )
                assert got == target


# -- entry texts -----------------------------------------------------------------


def assert_text_is_the_canonical_str(support, u, v, p):
    text = joined(symbolic_entry_text(support, u, v, p))
    assert text == symbolic_entry(support, u, v, p).canonical_str()


def walk_cut(support, u, v, p):
    """The level at which the walk of entry (u, v) starts its memo, or None
    for an empty entry."""
    target = tuple(p * a - b for a, b in zip(u + (1,), v + (1,)))
    walk = geometry._live_edges(support.lifted, target)
    return None if walk is None else geometry._cut(walk[1])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_entry_text_is_the_canonical_str(preset, p):
    support = support_from_preset(preset)
    pairs = list(itertools.product(support.interior_set(), repeat=2))
    if (preset, p) == ("quintic-full", 11):
        pairs = pairs[:1] + pairs[-1:]  # RAW_GOLDEN pins the whole matrix
    for u, v in pairs:
        assert_text_is_the_canonical_str(support, u, v, p)


@pytest.mark.parametrize(
    "raw,u,v,cut",
    [
        ([[3, 0, 0], [0, 3, 0], [0, 0, 3]], U111, U111, None),  # Fermat: "0"
        # level 1 holds one node per term, so the memo of levels 1..N-1 is
        # never smaller than the entry when N > 2: level N is the cut only
        # for N = 1, where nothing is memoised, and level 1 for N <= 2
        ([[1, 1]], (1, 1), (1, 1), 1),
        ([[1, 1], [2, 0]], (1, 1), (1, 1), 1),
        ([[3, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, 1]], U111, U111, 3),
    ],
    ids=["empty", "N=1-cut-at-N", "N=2-cut-at-1", "hesse-cut-at-N-1"],
)
def test_entry_text_where_the_walk_is_empty_or_cut_at_an_end(raw, u, v, cut):
    p = 5
    support = SupportSet.build(len(raw[0]) - 1, sum(raw[0]), raw)
    assert walk_cut(support, u, v, p) == cut
    assert_text_is_the_canonical_str(support, u, v, p)
    if cut is None:
        assert joined(symbolic_entry_text(support, u, v, p)) == "0"


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_entry_text_on_drawn_supports(data):
    n = data.draw(st.integers(1, 2))
    d = data.draw(st.integers(n + 1, n + 3))
    raw = data.draw(st.lists(st.sampled_from(monomials(d, n + 1)), min_size=1,
                             max_size=8, unique=True))
    support = SupportSet.build(n, d, raw)
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
    u, v = data.draw(st.tuples(*[st.sampled_from(support.interior_set())] * 2))
    assert_text_is_the_canonical_str(support, u, v, p)


# -- scaled matrix ---------------------------------------------------------------


def test_scaled_entry_hesse(hesse):
    B = scaled_matrix(symbolic_matrix(hesse, 5))
    expected = SparseLaurentPoly(
        4, 5, {(0, 0, 0, 0): 1, (-3, 1, 1, 1): 4}
    )
    assert B.entries[0][0] == expected
    assert B.entries[0][0].constant_term() == 1


def test_scaled_single_term_diagonal():
    # support with exactly one interior monomial and no relations: the
    # diagonal entry reduces to L_i^{p-1}, which rescales to 1
    s = SupportSet.build(1, 2, [(1, 1)])
    p = 3
    A = symbolic_matrix(s, p)
    assert A.entries[0][0] == mono((p - 1,), 1, p)
    B = scaled_matrix(A)
    assert B.entries[0][0] == const(1, 1, p)


def test_scaled_matrix_requires_interior(fermat):
    with pytest.raises(HypothesisViolation):
        scaled_matrix(symbolic_matrix(fermat, 5))


# Mutants of the Hesse entry A_11 = L1^4 + 4*L1*L2*L3*L4 at p = 5: one adds a
# monomial whose rescaled exponent leaves L_1, the other changes the
# coefficient that rescales to the constant term.
LEMMA_MUTANTS = {
    "2.7": ({(0, 0, 0, 4): 1}, [(0, 0, (-4, 0, 0, 4))]),
    "2.8": ({(4, 0, 0, 0): 1}, [(0, 0, 2)]),
}


@pytest.mark.parametrize("suite", sorted(LEMMA_MUTANTS))
def test_lemma_suites_report_a_mutant_entry(hesse, monkeypatch, suite):
    added, violations = LEMMA_MUTANTS[suite]
    A = symbolic_matrix(hesse, 5)
    entry = plus(A.entries[0][0], SparseLaurentPoly(4, 5, added))
    mutant = A._replace(entries=((entry,),))
    monkeypatch.setattr(suites, "symbolic_matrix", lambda support, p: mutant)
    reports = {nm: suites.run_suites(hesse, 5, nm)[0] for nm in ("2.7", "2.8")}
    assert not reports[suite].passed
    assert reports[suite].witnesses["violations"] == violations
    other = "2.8" if suite == "2.7" else "2.7"
    assert reports[other].passed


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lemma_2_7_and_2_8_hesse(hesse, p):
    B = scaled_matrix(symbolic_matrix(hesse, p))
    for i, row in enumerate(B.entries):
        for j, poly in enumerate(row):
            for l in poly.terms:
                assert in_Li(hesse.lifted, i, l)
            assert poly.constant_term() == (1 if i == j else 0)


# -- generic determinant -----------------------------------------------------------


def _check(support, p):
    return generic_det_check(scaled_matrix(symbolic_matrix(support, p)))


def test_generic_det_hesse_p5(hesse):
    rep = _check(hesse, 5)
    assert rep.statement == "prop-2.11" and rep.passed
    w = rep.witnesses
    assert w["det_B_constant_term"] == 1
    assert w["det_A_nonzero"] and "scaling_identity" not in w
    # B = 1 + 4*L1^-3*L2*L3*L4, one term of weight 3*9 - 3*3 = 18
    assert w["terms_checked"] == 2 and w["light_terms"] == []
    assert "det_A" not in w and "det_B" not in w
    # det A = L1^4 + 4*L1*L2*L3*L4 (1x1 matrix)
    _, text_A, _ = hasse_witt.generic_det(hesse, 5)
    assert joined(text_A) == "4*L1^1*L2^1*L3^1*L4^1 + 1*L1^4*L2^0*L3^0*L4^0"


def test_generic_det_quartic_p3(quartic):
    rep = _check(quartic, 3)
    assert rep.passed
    assert rep.witnesses["matrix_size"] == 3
    assert rep.witnesses["det_B_constant_term"] == 1


def test_generic_det_fermat_errors(fermat):
    with pytest.raises(HypothesisViolation):
        _check(fermat, 5)


@pytest.mark.parametrize(
    "preset,p", sorted((pr, p) for cmd, pr, p in GOLDEN if cmd == "generic-det")
)
def test_det_B_is_det_A_times_a_monomial(preset, p):
    # B rescales row i by L_i^-p and column j by L_j, so by multilinearity
    # det B = det A * prod_{k<m} L_k^(1-p); generic_det_check relies on it
    support = support_from_preset(preset)
    A = symbolic_matrix(support, p)
    delta = [1 - p if k < support.m else 0 for k in range(support.N)]
    assert unpacked(det_leibniz(scaled_matrix(A).entries)) == unpacked(
        det_leibniz(A.entries)
    ).shift(delta)


def test_generic_det_matches_cofactor_oracle(quartic):
    _, text_A, text_B = hasse_witt.generic_det(quartic, 3)
    A = symbolic_matrix(quartic, 3)
    assert joined(text_A) == det_cofactor(A.entries).canonical_str()
    assert joined(text_B) == det_cofactor(scaled_matrix(A).entries).canonical_str()


@pytest.mark.parametrize("preset,p", [("hesse-cubic", 3), ("hesse-cubic", 5), ("quartic-full", 2)])
def test_generic_det_texts_match_cofactor_oracle(preset, p):
    # hesse-cubic's det A has least first exponent 2 at p = 3 and 1 at p = 5,
    # so its packed keys carry a nonzero offset
    support = support_from_preset(preset)
    A = symbolic_matrix(support, p)
    ct, text_A, text_B = hasse_witt.generic_det(support, p)
    det_A, det_B = det_cofactor(A.entries), det_cofactor(scaled_matrix(A).entries)
    assert joined(text_A) == det_A.canonical_str()
    assert joined(text_B) == det_B.canonical_str()
    assert ct == det_B.constant_term() and not det_A.is_zero
    if preset == "hesse-cubic":
        assert det_leibniz(A.entries).offsets[0] > 0


@pytest.mark.parametrize("argv", [["generic-det", "--preset", "quartic-full", "--p", "5"]])
def test_generic_det_unpacks_no_exponent(capsys, monkeypatch, argv):
    # the m * m entries of A are the only polynomials built; the texts unpack
    # each run's head (m fields) once, and each distinct upper and lower half
    # of a tail (the N - m fields after the head, split at their middle)
    # once, never a whole exponent
    support = support_from_preset("quartic-full")
    m, N, p = support.m, support.N, int(argv[4])
    det = det_leibniz(symbolic_matrix(support, p).entries)
    exponents = list(unpacked(det).terms)
    middle = (m + N) // 2
    heads = {e[:m] for e in exponents}
    halves = [
        {tuple(x - o for x, o in zip(e[lo:hi], det.offsets[lo:hi])) for e in exponents}
        for lo, hi in [(m, middle), (middle, N)]
    ]
    assert (len(exponents), len(halves[0]), len(halves[1])) == (41573, 1210, 1180)
    built, unpacks = [], []
    init = SparseLaurentPoly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    real_unpacker = algebra._unpacker

    def counting_unpacker(nvars, width):
        unpack, fields = real_unpacker(nvars, width), []
        unpacks.append((nvars, fields))

        def counted(key):
            fields.append(unpack(key))
            return fields[-1]

        return counted

    monkeypatch.setattr(SparseLaurentPoly, "__init__", counting_init)
    monkeypatch.setattr(algebra, "_unpacker", counting_unpacker)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(built) == m * m
    assert sorted(n for n, _ in unpacks) == sorted([m, middle - m, N - middle])
    (head_calls,) = [fields for n, fields in unpacks if n == m]
    half_calls = [fields for n, fields in unpacks if n != m]
    assert len(head_calls) == len(heads)
    assert all(len(fields) == len(set(fields)) for fields in half_calls)
    assert {frozenset(fields) for fields in half_calls} == set(map(frozenset, halves))


def test_det_work_bound_admits_quartic_p7_and_refuses_quintic_p5():
    def work(preset, p):
        A = symbolic_matrix(support_from_preset(preset), p)
        return math.prod(sum(len(entry.terms) for entry in row) for row in A.entries)

    assert work("quartic-full", 7) <= algebra.DET_WORK_BOUND
    assert work("quintic-full", 3) <= algebra.DET_WORK_BOUND
    assert work("quintic-full", 5) > algebra.DET_WORK_BOUND


@pytest.mark.parametrize(
    "argv",
    [
        ["generic-det", "--preset", "quartic-full", "--p", "3"],
        ["verify", "--preset", "quartic-full", "--p", "3", "--suite", "2.11"],
    ],
)
def test_one_det_leibniz_per_generic_det(capsys, monkeypatch, argv):
    # suite 2.11 decides Prop 2.11 with no expansion
    calls = []
    real = hasse_witt.det_leibniz
    monkeypatch.setattr(
        hasse_witt, "det_leibniz", lambda mat: calls.append(mat) or real(mat)
    )
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == (argv[0] == "generic-det")


# A mutant whose (1,1) entry gains 1 at the exponent (p-1)*e_1, the monomial
# that rescales to the constant term of B_11: det B then has constant term 2.
@pytest.mark.parametrize("preset,p", [("hesse-cubic", 5), ("quartic-full", 3)])
def test_generic_det_reports_a_mutant_entry(capsys, monkeypatch, preset, p):
    support = support_from_preset(preset)
    A = symbolic_matrix(support, p)
    bump = mono((p - 1,) + (0,) * (support.N - 1), 1, p)
    rows = [list(row) for row in A.entries]
    rows[0][0] = plus(rows[0][0], bump)
    mutant = A._replace(entries=tuple(tuple(r) for r in rows))
    # generic-det reads A from hasse_witt, verify from suites
    for module in (hasse_witt, suites):
        monkeypatch.setattr(module, "symbolic_matrix", lambda support, p: mutant)
    assert main(["generic-det", "--preset", preset, "--p", str(p)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["det_B_constant_term"] == 2
    assert payload["prop_2_11"] == "fail" and payload["thm_2_3"] == "fail"
    report = suites.run_suites(support, p, "2.11")[0]
    assert not report.passed
    assert report.witnesses["det_B_constant_term"] == 2


@pytest.mark.parametrize(
    "preset,p", sorted((pr, p) for cmd, pr, p in GOLDEN if cmd == "generic-det")
)
def test_certificate_matches_the_expansion(preset, p):
    support = support_from_preset(preset)
    report = _check(support, p)
    ct, _, _ = hasse_witt.generic_det(support, p)
    assert report.passed and report.witnesses["light_terms"] == []
    assert report.witnesses["det_B_constant_term"] == ct == 1


def test_det_mod_p_matches_cofactor():
    rng = random.Random("det-mod-p")
    for p in (2, 3, 5, 7):
        for m in range(1, 6):
            rows = [[rng.randrange(-p, 2 * p) for _ in range(m)] for _ in range(m)]
            polys = [[const(1, x, p) for x in row] for row in rows]
            expected = det_cofactor(polys).constant_term() % p
            assert hasse_witt._det_mod_p(rows, p) == expected
    assert hasse_witt._det_mod_p([[0, 1], [1, 0]], 5) == 4  # one row swap
    assert hasse_witt._det_mod_p([[1, 2], [2, 4]], 7) == 0


# A mutant that only the weight step catches: A_11 of hesse-cubic at p = 5
# gains the monomial L1*L4, whose exponent (-3, 0, 0, 1) in B has weight
# -3*3 + 9 = 0.  It is not a constant term, so det(ct B) stays 1.
def test_generic_det_check_names_a_light_term(capsys, monkeypatch, hesse):
    p = 5
    A = symbolic_matrix(hesse, p)
    mutant = A._replace(entries=((plus(A.entries[0][0], mono((1, 0, 0, 1), 1, p)),),))
    monkeypatch.setattr(suites, "symbolic_matrix", lambda support, p: mutant)
    report = generic_det_check(scaled_matrix(mutant))
    assert not report.passed
    w = report.witnesses
    assert w["light_terms"] == [(0, 0, (-3, 0, 0, 1))]
    assert w["det_B_constant_term"] == 1 and not w["det_A_nonzero"]
    assert main(["verify", "--preset", "hesse-cubic", "--p", "5", "--suite", "2.11"]) == 1
    (printed,) = json.loads(capsys.readouterr().out)["reports"]
    assert printed["passed"] is False
    assert printed["witnesses"]["light_terms"] == [[0, 0, [-3, 0, 0, 1]]]


# -- evaluation ----------------------------------------------------------------------


def _point(field, values):
    return tuple(field.from_int(v) for v in values)


def test_evaluate_zero_point(hesse):
    F = ExtensionField(5, 1)
    A = symbolic_matrix(hesse, 5)
    rows = evaluate_matrix(A, _point(F, [0, 0, 0, 0]), F)
    assert matrix_rank(rows) == 0
    assert not rows[0][0]


def test_evaluate_hesse_points(hesse):
    # internal order puts the xyz coefficient first
    F = ExtensionField(5, 1)
    A = symbolic_matrix(hesse, 5)
    # Fermat member: xyz coefficient 0 -> entry 0, supersingular
    rows = evaluate_matrix(A, _point(F, [0, 1, 1, 1]), F)
    assert matrix_rank(rows) == 0
    rows = evaluate_matrix(A, _point(F, [1, 1, 1, 1]), F)
    assert matrix_rank(rows) == 0  # 4 + 1 = 0 mod 5
    rows = evaluate_matrix(A, _point(F, [2, 1, 1, 1]), F)
    assert rows == ((F.from_int(4),),)  # 4*2 + 2^4 = 24 = 4
    assert matrix_rank(rows) == 1


def test_evaluate_characteristic_mismatch(hesse):
    A = symbolic_matrix(hesse, 5)
    F = ExtensionField(3, 1)
    with pytest.raises(ValueError, match="characteristic"):
        evaluate_matrix(A, _point(F, [1, 1, 1, 1]), F)
    F5 = ExtensionField(5, 1)
    with pytest.raises(ValueError, match="wrong length"):
        evaluate_matrix(A, _point(F5, [1, 1, 1]), F5)


def test_matrix_rank():
    F = ExtensionField(3, 1)
    one, zero = F.one(), F.zero()
    assert matrix_rank([[one, one], [one, one]]) == 1
    assert matrix_rank([[one, zero], [zero, one]]) == 2
    assert matrix_rank([[zero, zero], [zero, zero]]) == 0


# -- dense oracle --------------------------------------------------------------------


def test_oracle_fermat_values(fermat):
    F7 = ExtensionField(7, 1)
    pt = _point(F7, [1, 1, 1])
    # coefficient of x^6 y^6 z^6 in (x^3+y^3+z^3)^6 is 6!/(2!2!2!) = 90 = 6 mod 7
    assert oracle_dense_coefficient(fermat, pt, 7, U111, U111, F7) == F7.from_int(6)
    F5 = ExtensionField(5, 1)
    pt5 = _point(F5, [1, 1, 1])
    assert not oracle_dense_coefficient(fermat, pt5, 5, U111, U111, F5)


def test_oracle_zero_point(fermat):
    F5 = ExtensionField(5, 1)
    assert not oracle_dense_coefficient(
        fermat, _point(F5, [0, 0, 0]), 5, U111, U111, F5
    )


def _random_support(rng):
    n = rng.choice([1, 2])
    d = n + 1 + rng.randint(0, 2 - n)
    from hassewitt.geometry import enumerate_interior

    interior = enumerate_interior(d, n)
    pool = monomials(d, n + 1)
    extra = [a for a in pool if a not in interior]
    rng.shuffle(extra)
    take = extra[: rng.randint(0, min(len(extra), 8 - len(interior)))]
    return SupportSet.build(n, d, interior + take)


def test_oracle_equivalence_random():
    rng = random.Random(424242)
    checked = 0
    for _ in range(80):
        support = _random_support(rng)
        p = rng.choice([2, 3, 5, 7])
        a = rng.choice([1, 2])
        field = ExtensionField(p, a)
        pool = list(field.elements())
        point = tuple(rng.choice(pool) for _ in range(support.N))
        A = symbolic_matrix(support, p)
        rows = evaluate_matrix(A, point, field)
        for i, u in enumerate(A.labels):
            for j, v in enumerate(A.labels):
                expected = oracle_dense_coefficient(support, point, p, u, v, field)
                assert rows[i][j] == expected
                checked += 1
    assert checked >= 100


# -- rank sweeps ----------------------------------------------------------------------


def _det(rows):
    """Laplace expansion along the first row of a nonempty square matrix."""
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for j, x in enumerate(rows[0]):
        minor = _det([r[:j] + r[j + 1:] for r in rows[1:]])
        term = x * minor
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _rank_by_minors(rows):
    """Largest r with a nonzero r x r minor; shares no code with matrix_rank."""
    import itertools

    m = len(rows)
    for r in range(m, 0, -1):
        for rs in itertools.combinations(range(m), r):
            for cs in itertools.combinations(range(m), r):
                if _det([[rows[i][j] for j in cs] for i in rs]):
                    return r
    return 0


@pytest.mark.parametrize(
    "family,p,a,ks",
    [("hesse", 5, 2, (0, 1, 2, 3)), ("quartic", 3, 2, (0, 2, 3, 14))],
)
def test_sweep_ranks_match_dense_oracle(request, family, p, a, ks):
    support = request.getfixturevalue(family)
    field = ExtensionField(p, a)
    pool = list(field.elements())
    rng = random.Random(f"sweep-{family}")
    A = symbolic_matrix(support, p)
    for k in ks:
        base = [rng.choice(pool) for _ in range(support.N)]
        ranks = sweep_ranks(A, base, k, field)
        assert len(ranks) == field.q
        for x, rank in zip(field.elements(), ranks):
            point = tuple(x if j == k else base[j] for j in range(support.N))
            dense = [
                [oracle_dense_coefficient(support, point, p, u, v, field) for v in A.labels]
                for u in A.labels
            ]
            assert rank == _rank_by_minors(dense)


def test_sweep_ranks_checks_point(hesse):
    A = symbolic_matrix(hesse, 5)
    F = ExtensionField(3, 1)
    with pytest.raises(ValueError):
        sweep_ranks(A, _point(F, [1, 1, 1, 1]), 0, F)
    F5 = ExtensionField(5, 1)
    with pytest.raises(ValueError):
        sweep_ranks(A, _point(F5, [1, 1, 1]), 0, F5)


def test_sweep_ranks_witness_catches_broken_specialization(hesse, monkeypatch):
    import hassewitt.hasse_witt as hw

    F = ExtensionField(5, 2)
    A = symbolic_matrix(hesse, 5)
    point = _point(F, [2, 1, 1, 1])
    real = hw.specialize

    def off_by_one(poly, point, k, field):
        coeffs = real(poly, point, k, field)
        coeffs[0] = coeffs.get(0, field.zero()) + field.one()
        return coeffs

    monkeypatch.setattr(hw, "specialize", off_by_one)
    with pytest.raises(RuntimeError):
        sweep_ranks(A, point, 1, F)


# Faults seeded into the per-term step of algebra.specialize, as (line of the
# kernel, line that replaces it).  The base-point witness of sweep_ranks runs
# the same kernel and cannot see them; the dense oracle must.
KERNEL_MUTANTS = {
    # the first term of each entry is off by one in its log
    "log-plus-one": (
        "t = (t + sum(map(operator.mul, exp, logs))) % n",
        "t = (t + sum(map(operator.mul, exp, logs)) + (not out)) % n",
    ),
    # a fixed coordinate that is 0 is taken for 1
    "zero-rule-dropped": ("zeros.append(j)", "pass"),
}


@pytest.mark.parametrize("mutant", sorted(KERNEL_MUTANTS))
def test_dense_oracle_catches_a_kernel_mutant(quartic, monkeypatch, mutant):
    p, a, k = 3, 2, 1
    field = ExtensionField(p, a)
    rng = random.Random("kernel-mutant")
    pool = [x for x in field.elements() if x]
    base = [rng.choice(pool) for _ in range(quartic.N)]
    base[4] = field.zero()  # a fixed coordinate: neither x_0 nor x_k
    base = tuple(base)
    A = symbolic_matrix(quartic, p)
    dense = [
        _rank_by_minors([
            [oracle_dense_coefficient(quartic, point, p, u, v, field) for v in A.labels]
            for u in A.labels
        ])
        for point in (base[:k] + (x,) + base[k + 1:] for x in field.elements())
    ]
    assert sweep_ranks(A, base, k, field) == dense
    assert suites.oracle_equivalence(quartic, p, a, point=base).passed

    source = textwrap.dedent(inspect.getsource(algebra.specialize))
    line, replacement = KERNEL_MUTANTS[mutant]
    assert source.count(line) == 1
    namespace = dict(vars(algebra))
    exec(source.replace(line, replacement), namespace)
    monkeypatch.setattr(algebra, "specialize", namespace["specialize"])
    monkeypatch.setattr(hasse_witt, "specialize", namespace["specialize"])

    report = suites.oracle_equivalence(quartic, p, a, point=base)
    assert not report.passed and report.witnesses["mismatches"]
    assert sweep_ranks(A, base, k, field) != dense
