import math
import random
from fractions import Fraction

import pytest

from hassewitt import hypergeometric, suites
from hassewitt.algebra import SparseLaurentPoly
from hassewitt.geometry import enumerate_box_relations
from hassewitt.hasse_witt import symbolic_entry, symbolic_matrix
from hassewitt.hypergeometric import (
    TruncatedSeries,
    box_apply,
    derivative_series,
    euler_apply,
    rho_truncation,
    rho_window,
    series_Gi,
    trunc,
    verify_hypergeometric_solution,
    verify_truncation_identity,
)

from conftest import const, mono, monomial_derivative, plus, support_from_preset

P = SparseLaurentPoly

# reindexed Hesse coordinates: L1 = coefficient of xyz, the interior monomial
HESSE_REL = (-3, 1, 1, 1)


def hesse_beta(hesse, j=0):
    return tuple(-x for x in hesse.lifted[j])


# -- box operators -----------------------------------------------------------


def test_box_kills_constants():
    f = const(4, 7)
    assert box_apply(HESSE_REL, f).is_zero


def test_box_on_inverse_monomial():
    # Box = d2 d3 d4 - d1^3 applied to L1^-1: the falling factorial
    # (-1)(-2)(-3) = -6 and the operator's minus sign give +6 L1^-4
    f = mono((-1, 0, 0, 0))
    got = box_apply(HESSE_REL, f)
    assert got == mono((-4, 0, 0, 0), 6)


def test_box_depth_one_solution():
    # the visible cancellation: d2 d3 d4 of the second term matches d1^3 of
    # the first; the only residual is the boundary term at (-7,1,1,1),
    # cancelled by the next (depth-excluded) series term
    f = P(4, None, {(-1, 0, 0, 0): 1, (-4, 1, 1, 1): -6})
    got = box_apply(HESSE_REL, f)
    assert got == mono((-7, 1, 1, 1), -720)
    passed, _ = verify_hypergeometric_solution(
        f, (-1, -1, -1, -1), [HESSE_REL], _hesse_lifted(), mode="exact-integer",
        floor=(0, -4),  # depth 3, i = j: every term with s_1 >= -4 is present
    )
    assert passed


def _hesse_lifted():
    from hassewitt.geometry import SupportSet

    return SupportSet.build(
        2, 3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]
    ).lifted


def test_box_mod_p_agrees_with_integer_lift():
    # box_apply on a mod-p polynomial is the reduction of box_apply on any
    # integer lift of it
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        lift = P(4, None, {
            tuple(rng.randint(-4, 4) for _ in range(4)):
                rng.randint(1, p - 1) + p * rng.randint(-3, 3)
            for _ in range(4)
        })
        for l in (HESSE_REL, (2 * p, -p + 1, 1 - p, 0)):
            assert box_apply(l, lift.reduce_mod(p)) == box_apply(l, lift).reduce_mod(p)


def test_box_apply_is_difference_of_derivatives():
    rng = random.Random(29)
    # l = 0, l >= 0 and l <= 0 leave a sign part empty; a random draw
    # almost never does
    fixed = [(0, 0, 0, 0), (2, 0, 1, 3), (0, -1, -4, 0)]
    drawn = [tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(200)]
    for l in fixed + drawn:
        modulus = rng.choice([None, 2, 3, 5, 7])
        f = P(4, modulus, {
            tuple(rng.randint(-4, 4) for _ in range(4)): rng.randint(-20, 20)
            for _ in range(rng.randint(0, 6))
        })
        lp = tuple(max(x, 0) for x in l)
        lm = tuple(max(-x, 0) for x in l)
        assert box_apply(l, f) == plus(monomial_derivative(f, lp), -monomial_derivative(f, lm))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_falling_factorial_tables_match_the_product(p):
    for m in range(2 * p + 1):
        mod_p = hypergeometric._falling_table(p, m)
        exact = hypergeometric._falling_table(None, m)
        for s in range(-3 * p, 3 * p + 1):
            assert mod_p[s] == hypergeometric._falling(s, m) % p
            assert exact[s] == hypergeometric._falling(s, m) == math.prod(range(s - m + 1, s + 1))


# -- Euler operators -----------------------------------------------------------


def test_euler_annihilates_matching_monomial(hesse):
    # a monomial whose lifted degree equals beta is killed by every coordinate
    f = mono((-1, 0, 0, 0))
    beta = hesse_beta(hesse)  # -a_1+ = (-1,-1,-1,-1)
    for coord in range(4):
        assert euler_apply(hesse.lifted, coord, beta, f).is_zero


def test_euler_nonmatching_monomial(hesse):
    f = mono((1, 0, 0, 0))  # lifted degree a_1+ = (1,1,1,1)
    got = euler_apply(hesse.lifted, 0, (0, 0, 0, 0), f)
    assert got == mono((1, 0, 0, 0), 1)


def test_euler_iff_lifted_degree(hesse):
    rng = random.Random(5)
    lifted = hesse.lifted
    for _ in range(100):
        exp = tuple(rng.randint(-3, 3) for _ in range(4))
        degree = tuple(
            sum(e * v[c] for e, v in zip(exp, lifted)) for c in range(4)
        )
        beta = tuple(rng.randint(-3, 3) for _ in range(4))
        killed = all(
            euler_apply(lifted, c, beta, mono(exp)).is_zero
            for c in range(4)
        )
        assert killed == (degree == beta)


# -- series ---------------------------------------------------------------------


def test_Gi_hesse_coefficients(hesse):
    g = series_Gi(hesse, 0, 6)
    assert g.poly.terms == {(-3, 1, 1, 1): 2, (-6, 2, 2, 2): -15}
    g3 = series_Gi(hesse, 0, 3)
    assert g3.poly.terms == {(-3, 1, 1, 1): 2}


def test_Gi_rational_coefficients(quartic):
    # quartic-full at depth 5 has non-integral coefficients such as 6/4 = 3/2;
    # a Fraction is kept only where the coefficient is not an integer
    coefficients = series_Gi(quartic, 0, 5).poly.terms.values()
    assert all(isinstance(c, int) or c.denominator > 1 for c in coefficients)
    assert Fraction(3, 2) in coefficients or Fraction(-3, 2) in coefficients


@pytest.mark.parametrize("i", range(3))
def test_Gi_keeps_a_Fraction_exactly_where_not_integral(quartic, i):
    depth = 8
    terms = series_Gi(quartic, i, depth).poly.terms
    rational = 0
    for l, c in terms.items():
        t = -l[i]
        den = math.prod(math.factorial(x) for k, x in enumerate(l) if k != i)
        exact = Fraction((-1) ** (t - 1) * math.factorial(t - 1), den)
        assert c == exact
        assert type(c) is (int if exact.denominator == 1 else Fraction)
        rational += exact.denominator > 1
    assert terms and 0 < rational < len(terms)


def test_Gi_trivial_lattice():
    from hassewitt.geometry import SupportSet

    s = SupportSet.build(1, 2, [(1, 1)])
    assert series_Gi(s, 0, 5).poly.is_zero


def test_Gi_bad_index(hesse):
    with pytest.raises(ValueError):
        series_Gi(hesse, 1, 3)


def test_derivative_series_diagonal(hesse):
    # depth bounds -l_1, so depth 3 admits exactly l = 0 and the generator
    ds = derivative_series(series_Gi(hesse, 0, 3), 0)
    assert ds.poly.terms == {(-1, 0, 0, 0): 1, (-4, 1, 1, 1): -6}
    ds6 = derivative_series(series_Gi(hesse, 0, 6), 0)
    assert ds6.poly.terms == {
        (-1, 0, 0, 0): 1,
        (-4, 1, 1, 1): -6,
        (-7, 2, 2, 2): 90,
    }


def test_derivative_series_off_diagonal(quartic):
    # j != i: every exponent is l - e_j with l_j > 0, coefficients integers
    ds = derivative_series(series_Gi(quartic, 0, 3), 1)
    assert not ds.poly.is_zero
    for exp, c in ds.poly.terms.items():
        assert isinstance(c, int)
        l = list(exp)
        l[1] += 1
        assert l[1] > 0 and l[0] <= 0


def test_derivative_series_trivial_off_diagonal():
    # with a trivial lattice the j != i sum is empty
    from hassewitt.geometry import SupportSet

    s = SupportSet.build(2, 4, [(2, 1, 1), (1, 2, 1), (1, 1, 2), (4, 0, 0), (0, 4, 0), (0, 0, 4)])
    if not __import__("hassewitt.geometry", fromlist=["kernel_basis"]).kernel_basis(
        s.lifted
    ):
        assert derivative_series(series_Gi(s, 0, 3), 1).poly.is_zero


@pytest.mark.parametrize(
    "preset,depth", [("hesse-cubic", 11), ("quartic-full", 8), ("quintic-full", 8)]
)
def test_derivative_series_matches_monomial_derivative(preset, depth):
    # a term-by-term derivative, on G_i's rational coefficients
    support = support_from_preset(preset)
    N = support.N
    for i in range(support.m):
        gi = series_Gi(support, i, depth)
        for j in range(N):
            unit = tuple(int(k == j) for k in range(N))
            expected = monomial_derivative(gi.poly, unit)
            if j == i:
                expected = plus(expected, mono(tuple(-x for x in unit)))
            got = derivative_series(gi, j)
            assert got.poly == expected
            assert all(isinstance(c, int) for c in got.poly.terms.values())
            assert (got.i, got.j, got.depth) == (i, j, depth)


def test_derivative_series_rejects_bad_input(hesse):
    gi = series_Gi(hesse, 0, 6)
    for j in (-1, hesse.N):
        with pytest.raises(ValueError):
            derivative_series(gi, j)
    with pytest.raises(ValueError):
        derivative_series(derivative_series(gi, 1), 1)
    half = TruncatedSeries(P(4, None, {(-2, 1, 1, 0): Fraction(1, 2)}), 0, 0, 2)
    with pytest.raises(ArithmeticError, match="non-integer"):
        derivative_series(half, 1)
    assert derivative_series(half, 3).poly.is_zero


# -- truncation ------------------------------------------------------------------


def test_trunc_rho_window(hesse):
    p = 5
    ds = derivative_series(series_Gi(hesse, 0, 6), 0).poly.reduce_mod(p)
    got = trunc(rho_window(4, 0), ds, p)
    # the term at (-7,2,2,2) falls outside s_1 in [-5,-1]
    assert got == P(4, p, {(-1, 0, 0, 0): 1, (-4, 1, 1, 1): -6})


def test_trunc_zero_window_identity():
    p = 5
    f = P(3, p, {(0, 1, 2): 3, (4, 4, 4): 1})
    assert trunc((0, 0, 0), f, p) == f


def test_trunc_disjoint_window():
    f = P(2, 5, {(1, 1): 2})
    assert trunc((1, 1), f, 5).is_zero


def test_trunc_commutes_with_derivative_mod_p():
    # d/dL_k (Trunc_r f) = Trunc_r (d/dL_k f) mod p: boundary terms carry
    # coefficients divisible by p
    rng = random.Random(314)
    for _ in range(1000):
        p = rng.choice([2, 3, 5, 7])
        nvars = rng.choice([2, 3])
        f = P(
            nvars,
            p,
            {
                tuple(rng.randint(-2 * p, 2 * p) for _ in range(nvars)): rng.randint(
                    1, p - 1
                )
                for _ in range(5)
            },
        )
        r = tuple(rng.randint(-2, 1) for _ in range(nvars))
        k = rng.randrange(nvars)
        orders = tuple(int(c == k) for c in range(nvars))
        lhs = monomial_derivative(trunc(r, f, p), orders)
        rhs = trunc(r, monomial_derivative(f, orders), p)
        assert lhs == rhs


# -- solution verification ---------------------------------------------------------


def test_verify_entry_as_solution(hesse):
    p = 5
    entry = symbolic_entry(hesse, (1, 1, 1), (1, 1, 1), p)
    up = hesse.lifted[0]
    beta = tuple(p * a - b for a, b in zip(up, up))
    passed, _ = verify_hypergeometric_solution(
        entry, beta, [HESSE_REL], hesse.lifted, mode="mod-p"
    )
    assert passed


def test_verify_truncated_series_mod_p(hesse):
    p = 5
    ds = derivative_series(series_Gi(hesse, 0, p), 0).poly.reduce_mod(p)
    f = trunc(rho_window(4, 0), ds, p)
    passed, _ = verify_hypergeometric_solution(
        f, hesse_beta(hesse), [HESSE_REL], hesse.lifted, mode="mod-p"
    )
    assert passed


def test_verify_detects_corruption(hesse):
    p = 5
    ds = derivative_series(series_Gi(hesse, 0, p), 0).poly.reduce_mod(p)
    f = trunc(rho_window(4, 0), ds, p)
    corrupted = plus(f, mono((-1, 0, 0, 0), 1, p))
    passed, _ = verify_hypergeometric_solution(
        corrupted, hesse_beta(hesse), [HESSE_REL], hesse.lifted, mode="mod-p"
    )
    assert not passed


def test_verify_exact_integer_mode(hesse):
    ds = derivative_series(series_Gi(hesse, 0, 5), 0)
    passed, witnesses = verify_hypergeometric_solution(
        ds.poly, hesse_beta(hesse), [HESSE_REL], hesse.lifted, mode="exact-integer",
        floor=(0, -6),
    )
    assert passed
    assert witnesses["integer_coefficients"]


def test_verify_floor_is_exact_integer_only(hesse):
    args = ((0, 0, 0, 0), [HESSE_REL], hesse.lifted)
    with pytest.raises(ValueError, match="floor"):
        verify_hypergeometric_solution(const(4, 1), *args, mode="exact-integer")
    with pytest.raises(ValueError, match="floor"):
        verify_hypergeometric_solution(const(4, 1, 5), *args, mode="mod-p", floor=(0, 0))


def test_suite_3_4_fails_on_every_dropped_series_term(quartic, monkeypatch):
    # at p = 3 the nine derivative series of quartic-full hold 66 terms; a
    # series missing any one of them leaves a box residual inside its floor
    p = 3
    assert suites.run_suites(quartic, p, "3.4")[0].passed
    real = suites.derivative_series
    drops = [
        (i, j, exp)
        for i in range(quartic.m)
        for j in range(quartic.m)
        for exp in real(series_Gi(quartic, i, p), j).poly.terms
    ]
    assert len(drops) == 66
    for i, j, exp in drops:

        def dropping(gi, k):
            series = real(gi, k)
            if (gi.i, k) != (i, j):
                return series
            terms = {e: c for e, c in series.poly.terms.items() if e != exp}
            return series._replace(poly=P(quartic.N, None, terms))

        monkeypatch.setattr(suites, "derivative_series", dropping)
        failures = suites.run_suites(quartic, p, "3.4")[0].witnesses["failures"]
        assert [(f["i"], f["j"]) for f in failures] == [(i + 1, j + 1)], exp
        assert failures[0]["detail"]["box_failures"], exp


def test_verify_rejects_non_relation(hesse):
    # (5, -5, 0, 0) has both parts of order p = 5, so its box operator
    # vanishes mod p; the relation check must still reject it
    for mode, f in (("mod-p", const(4, 1, 5)), ("exact-integer", const(4, 1))):
        for l in ((1, 0, 0, 0), (5, -5, 0, 0)):
            with pytest.raises(ValueError, match="not a lattice relation"):
                verify_hypergeometric_solution(
                    f, (0, 0, 0, 0), [HESSE_REL, l], hesse.lifted, mode=mode,
                    floor=(0, 0) if mode == "exact-integer" else None,
                )


def test_verify_validates_each_relation_tuple_once(hesse, monkeypatch):
    from hassewitt import hypergeometric

    calls = []

    def counting(lifted, l):
        calls.append(l)
        return geometry_is_relation(lifted, l)

    geometry_is_relation = hypergeometric.is_relation
    monkeypatch.setattr(hypergeometric, "is_relation", counting)
    hypergeometric._check_relations.cache_clear()
    f = const(4, 1, 5)
    good = (HESSE_REL, tuple(2 * x for x in HESSE_REL))
    for _ in range(3):
        _, witnesses = verify_hypergeometric_solution(f, (0, 0, 0, 0), good, hesse.lifted)
        assert witnesses["relations_checked"] == 2
    assert len(calls) == 2
    # a bad tuple raises on every call, also right after being rejected
    bad = good + ((1, 0, 0, 0),)
    for _ in range(2):
        with pytest.raises(ValueError, match="not a lattice relation"):
            verify_hypergeometric_solution(f, (0, 0, 0, 0), bad, hesse.lifted)
    with pytest.raises(ValueError, match="not a lattice relation"):
        verify_hypergeometric_solution(f, (0, 0, 0, 0), list(bad), hesse.lifted)


# -- truncation identity (entry vs series) ---------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_truncation_identity_hesse(hesse, p):
    truncated = rho_truncation(series_Gi(hesse, 0, p), 0, p)
    rep = verify_truncation_identity(hesse, 0, 0, p, truncated)
    assert rep.passed
    assert rep.witnesses["signs"] == ["+"]


def test_truncation_identity_trivial_lattice():
    # with L_i trivial both sides reduce to L_i^{p-1}
    from hassewitt.geometry import SupportSet

    s = SupportSet.build(1, 2, [(1, 1)])
    p = 5
    rep = verify_truncation_identity(s, 0, 0, p, rho_truncation(series_Gi(s, 0, p), 0, p))
    assert rep.passed
    assert rep.witnesses["entry"] == mono((p - 1,), 1, p).canonical_str()


def test_truncation_identity_quartic_entries(quartic):
    for i in range(quartic.m):
        gi = series_Gi(quartic, i, 3)
        for j in range(quartic.m):
            rep = verify_truncation_identity(quartic, i, j, 3, rho_truncation(gi, j, 3))
            assert rep.passed
            assert "+" in rep.witnesses["signs"]


# -- box checks against the Markov moves -----------------------------------------


def _mutant(rng, f, p):
    """f plus one nonzero coefficient at an exponent within 2 of its support."""
    exp = tuple(e + rng.randint(-2, 2) for e in rng.choice(sorted(f.terms)))
    return plus(f, P(f.nvars, p, {exp: rng.randint(1, p - 1)}))


def _flip(rng, f, p):
    """f with one coefficient changed to a different nonzero residue."""
    exp = rng.choice(sorted(f.terms))
    terms = dict(f.terms)
    terms[exp] = rng.choice([c for c in range(1, p) if c != terms[exp]])
    return P(f.nvars, p, terms)


@pytest.mark.parametrize("preset,p", [("hesse-cubic", 5), ("quartic-full", 3)])
def test_box_failures_of_mutants_match_reference(preset, p):
    # the reported failures are exactly the relations whose box operator
    # does not vanish on the mutant
    support = support_from_preset(preset)
    lifted = support.lifted
    relations = tuple(enumerate_box_relations(lifted))
    A = symbolic_matrix(support, p)
    rng = random.Random(43)
    cases = []
    for i, u in enumerate(A.labels):
        for j, v in enumerate(A.labels):
            beta = tuple(p * a - b for a, b in zip(tuple(u) + (1,), tuple(v) + (1,)))
            cases.append((A.entries[i][j], beta))
            series = derivative_series(series_Gi(support, i, 2 * p + 2), j).poly.reduce_mod(p)
            cases.append((trunc(rho_window(support.N, i), series, p),
                          tuple(-x for x in lifted[j])))
    caught = 0
    for f, beta in cases:
        mutant = _mutant(rng, f, p)
        _, witnesses = verify_hypergeometric_solution(
            mutant, beta, relations, lifted, mode="mod-p"
        )
        reference = [list(l) for l in relations if not box_apply(l, mutant).is_zero]
        assert witnesses["box_failures"] == reference
        assert witnesses["relations_checked"] == len(relations)
        caught += bool(reference)
    assert caught  # the comparison covers nonempty failure lists


# (preset, p, mutation): at p = 2 every entry is a single term with
# coefficient 1, so a flip would zero it and an added monomial is used instead
MUTATION_CASES = [
    ("quartic-full", 2, "add"),
    ("quartic-full", 3, "flip"),
    ("quartic-full", 5, "flip"),
    ("quintic-full", 3, "flip"),
]


@pytest.mark.parametrize("preset,p,mutation", MUTATION_CASES)
def test_box_operators_catch_every_seeded_mutant(preset, p, mutation):
    # 40 seeded mutants of nonzero Hasse-Witt entries; only the box
    # operators count, not the homogeneity operators
    support = support_from_preset(preset)
    lifted = support.lifted
    relations = tuple(enumerate_box_relations(lifted))
    A = symbolic_matrix(support, p)
    entries = [
        (A.entries[i][j], tuple(p * a - b for a, b in zip(tuple(u) + (1,), tuple(v) + (1,))))
        for i, u in enumerate(A.labels)
        for j, v in enumerate(A.labels)
        if not A.entries[i][j].is_zero
    ]
    mutate = {"add": _mutant, "flip": _flip}[mutation]
    rng = random.Random(7)
    caught = 0
    for _ in range(40):
        f, beta = rng.choice(entries)
        _, witnesses = verify_hypergeometric_solution(
            mutate(rng, f, p), beta, relations, lifted, mode="mod-p"
        )
        caught += bool(witnesses["box_failures"])
    assert caught == 40


def test_box_relations_built_once_per_run(hesse, quartic, monkeypatch):
    # one run builds A, B and the moves once, and each G_i once: suites 3.4
    # and 3.8 share it at depth p
    calls = {}
    for name in ("symbolic_matrix", "scaled_matrix", "enumerate_box_relations", "series_Gi"):
        real = getattr(suites, name)
        monkeypatch.setattr(
            suites, name,
            lambda *args, name=name, real=real: calls.setdefault(name, []).append(args)
            or real(*args),
        )
    for support, p in ((hesse, 5), (quartic, 3)):
        calls.clear()
        reports = suites.run_suites(support, p)
        assert len(calls["enumerate_box_relations"]) == 1
        assert all(r.passed for r in reports)
        assert len(calls["symbolic_matrix"]) == len(calls["scaled_matrix"]) == 1
        assert sorted(args[1:] for args in calls["series_Gi"]) == [
            (i, p) for i in range(support.m)
        ]
        # the next run builds its own moves
        suites.run_suites(support, p, "3.11")
        assert len(calls["enumerate_box_relations"]) == 2


def test_Li_enumerated_once_per_i_per_suite(quartic, monkeypatch):
    # suite 2.9 and the series that suites 3.4 and 3.8 share enumerate L_i
    # once per i
    calls = []
    real = suites.enumerate_Li
    for module in (suites, hypergeometric):
        monkeypatch.setattr(
            module, "enumerate_Li",
            lambda *args: calls.append(args[1:]) or real(*args),
        )
    assert all(r.passed for r in suites.run_suites(quartic, 3))
    # depth p for 2.9, and for the one G_i that 3.4 and 3.8 share; suite
    # 3.7 builds its windows with no L_i
    assert len(calls) == 2 * quartic.m == 6
    assert set(calls) == {(i, 3) for i in range(quartic.m)}


def test_truncation_identity_needs_depth_p(quartic):
    with pytest.raises(ValueError, match="depth"):
        rho_truncation(series_Gi(quartic, 0, 2), 1, 3)
    truncated = rho_truncation(series_Gi(quartic, 0, 3), 1, 3)
    assert verify_truncation_identity(quartic, 0, 1, 3, truncated).passed


@pytest.mark.parametrize("i,j", [(-1, 0), (0, 3), (3, 0)])
def test_truncation_identity_rejects_non_interior_indices(quartic, i, j):
    truncated = rho_truncation(series_Gi(quartic, 0, 3), 0, 3)
    with pytest.raises(ValueError, match="interior-monomial"):
        verify_truncation_identity(quartic, i, j, 3, truncated)
