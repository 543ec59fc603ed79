import gc
import itertools
import math
import operator
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hassewitt import geometry
from hassewitt.algebra import inverse_factorial_table, power_format
from hassewitt.cli import PRESETS
from hassewitt.geometry import (
    SupportSet,
    enumerate_box_relations,
    enumerate_interior,
    enumerate_Li,
    enumerate_representations,
    in_Li,
    is_relation,
    kernel_basis,
    lift,
    monomials,
    representation_coefficients,
)
from hassewitt.hasse_witt import symbolic_entry_text

from conftest import multinomial_mod_p, support_from_preset

HESSE_RAW = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]
FERMAT_RAW = [(3, 0, 0), (0, 3, 0), (0, 0, 3)]


# -- interior set -------------------------------------------------------------


def test_support_set_is_an_immutable_hashable_record():
    a = SupportSet.build(2, 3, HESSE_RAW)
    b = SupportSet.build(2, 3, [list(x) for x in HESSE_RAW])
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert (a.n, a.d, a.m, a.u_contained, a.N) == (2, 3, 1, True, 4)
    assert a.lifted == lift(a.exponents)
    with pytest.raises(AttributeError):
        a.m = 2
    with pytest.raises(AttributeError):
        a.extra = 0
    assert a != SupportSet.build(2, 3, FERMAT_RAW)


def test_interior_examples():
    assert enumerate_interior(3, 2) == [(1, 1, 1)]
    assert enumerate_interior(4, 2) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert enumerate_interior(2, 1) == [(1, 1)]


def test_interior_empty_errors():
    with pytest.raises(ValueError):
        enumerate_interior(2, 2)


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("n", range(1, 5))
def test_interior_count(d, n):
    if d < n + 1:
        with pytest.raises(ValueError):
            enumerate_interior(d, n)
    else:
        assert len(enumerate_interior(d, n)) == math.comb(d - 1, n)


# -- support construction -----------------------------------------------------


def test_support_reindexing():
    s = SupportSet.build(2, 3, HESSE_RAW)
    assert s.exponents[0] == (1, 1, 1)
    assert s.m == 1 and s.u_contained
    assert [HESSE_RAW[k] for k in s.input_order] == list(s.exponents)


def test_support_not_containing_interior():
    s = SupportSet.build(2, 3, FERMAT_RAW)
    assert s.m == 0 and not s.u_contained


def test_support_validation():
    with pytest.raises(ValueError):
        SupportSet.build(2, 3, [(3, 0, 0), (2, 1, 1)])  # inhomogeneous
    with pytest.raises(ValueError):
        SupportSet.build(2, 3, [(3, 0, 0), (3, 0, 0)])  # repeated
    with pytest.raises(ValueError):
        SupportSet.build(2, 2, [(2, 0, 0)])  # degree too small


def test_lift():
    assert lift([(3, 0, 0)]) == ((3, 0, 0, 1),)


# -- representation enumeration ------------------------------------------------


def test_representations_hesse():
    lifted = lift(HESSE_RAW)
    reps = enumerate_representations(lifted, (4, 4, 4, 4))
    assert reps == [(0, 0, 0, 4), (1, 1, 1, 1)]


def test_representations_negative_target():
    lifted = lift(HESSE_RAW)
    assert enumerate_representations(lifted, (-1, 4, 4, 4)) == []


def test_representations_fermat_empty():
    lifted = lift(FERMAT_RAW)
    assert enumerate_representations(lifted, (4, 4, 4, 4)) == []


def brute_force_table(lifted, p):
    """image -> sorted list of every e with sum(e) = p-1 mapping to it."""
    N = len(lifted)
    table = {}
    for picks in itertools.combinations_with_replacement(range(N), p - 1):
        e = tuple(picks.count(k) for k in range(N))
        image = tuple(
            sum(ek * v[i] for ek, v in zip(e, lifted)) for i in range(len(lifted[0]))
        )
        table.setdefault(image, []).append(e)
    return {image: sorted(es) for image, es in table.items()}


def test_representations_completeness_random():
    rng = random.Random(99)
    for _ in range(30):
        p = rng.choice([2, 3, 5, 7])
        n = rng.choice([1, 2, 3])
        d = n + 1 + rng.randint(0, 2)
        monos = sorted(
            {
                tuple(v)
                for v in (
                    _random_composition(rng, d, n + 1) for _ in range(6)
                )
            }
        )
        lifted = lift(monos)
        u = rng.choice(monos)
        v = rng.choice(monos)
        target = tuple(
            p * a - b for a, b in zip(tuple(u) + (1,), tuple(v) + (1,))
        )
        table = brute_force_table(lifted, p)
        assert enumerate_representations(lifted, target) == table.get(target, [])
        # every image the brute force reaches, in the same (lex) order
        for image, expected in table.items():
            assert enumerate_representations(lifted, image) == expected


@pytest.mark.parametrize("preset", ["quartic", "quintic"])
def test_representations_match_brute_force_presets(preset, request):
    s = request.getfixturevalue(preset)
    p = 5
    table = brute_force_table(s.lifted, p)
    labels = s.interior_set()
    for u in labels:
        for v in labels:
            target = tuple(p * a - b for a, b in zip(u + (1,), v + (1,)))
            assert enumerate_representations(s.lifted, target) == table.get(target, [])


def test_representations_zero_target():
    lifted = lift(HESSE_RAW)
    assert enumerate_representations(lifted, (0, 0, 0, 0)) == [(0, 0, 0, 0)]
    assert enumerate_representations([], (0, 0)) == [()]
    assert enumerate_representations([], (1, 1)) == []


def test_representations_reject_unlifted_vectors():
    with pytest.raises(ValueError):
        enumerate_representations([(3, 0, 0)], (3, 0, 0))  # last entry not 1
    with pytest.raises(ValueError):
        enumerate_representations([(3, -1, 1, 1)], (3, 0, 0, 1))
    with pytest.raises(ValueError):
        enumerate_representations(lift(HESSE_RAW), (3, 0, 1))  # wrong length


# derandomize: the same (u, v) pairs on every run, so a failure reproduces
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("preset", ["fermat-cubic", "hesse-cubic", "quartic-full", "quintic-full"])
@settings(max_examples=3, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_walk_coefficients_are_the_multinomials(preset, p, data):
    s = support_from_preset(preset)
    u, v = data.draw(st.tuples(*[st.sampled_from(s.interior_set())] * 2))
    target = tuple(p * a - b for a, b in zip(u + (1,), v + (1,)))
    coefficients = representation_coefficients(s.lifted, target, p)
    assert list(coefficients) == enumerate_representations(s.lifted, target)
    assert list(coefficients) == sorted(coefficients)
    assert coefficients == {e: multinomial_mod_p(e, p) for e in coefficients}


def test_walk_coefficients_need_a_target_ending_in_p_minus_1():
    lifted = lift(HESSE_RAW)
    assert representation_coefficients(lifted, (4, 4, 4, 4), 5) == {
        (0, 0, 0, 4): 1, (1, 1, 1, 1): 4,  # 4!/4! = 1 and 4!/(1!)^4 = 24 = 4 mod 5
    }
    for target in [(4, 4, 4, 3), (4, 4, 4, 5), ()]:
        with pytest.raises(ValueError, match="p - 1"):
            representation_coefficients(lifted, target, 5)


def test_walk_blocks_take_a_digit_sum_below_p():
    # a target ending in sigma < p weighs each e by sigma! / prod e_k! mod p
    lifted = lift(HESSE_RAW)

    def terms(target, p):
        blocks = geometry.representation_blocks(lifted, target, p, lambda k, e: (e,))
        return {head + tail: c * w % p for head, c, tails in blocks for tail, w in tails}

    assert terms((3, 3, 3, 3), 5) == {(0, 0, 0, 3): 1, (1, 1, 1, 0): 1}  # 3!/3! and 3! = 6
    assert terms((0, 0, 0, 0), 2) == {(0, 0, 0, 0): 1}
    for target in [(5, 5, 5, 5), (0, 0, 0, -1), ()]:
        with pytest.raises(ValueError, match="does not end in"):
            terms(target, 5)


def test_representations_leave_no_reference_cycles(quartic):
    p = 7
    u, v = quartic.interior_set()[0], quartic.interior_set()[-1]
    target = tuple(p * a - b for a, b in zip(u + (1,), v + (1,)))
    gc.collect()
    gc.disable()
    try:
        assert enumerate_representations(quartic.lifted, target)
        assert representation_coefficients(quartic.lifted, target, p)
        assert "".join(symbolic_entry_text(quartic, u, v, p).pieces)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("preset,p", [("quartic-full", 11), ("quintic-full", 7)])
def test_walk_memo_holds_no_more_pairs_than_the_entry_has_terms(preset, p):
    s = support_from_preset(preset)
    lifted = [tuple(v) for v in s.lifted]
    weight = inverse_factorial_table(p)
    letters = [[power_format(k) % e for e in range(p)] for k in range(s.N)]
    for u in s.interior_set():
        for v in s.interior_set():
            target = tuple(p * a - b for a, b in zip(u + (1,), v + (1,)))
            live, sizes, start, zero = geometry._live_edges(lifted, target)
            cut = geometry._cut(sizes)
            # every level that _tails builds on the way down to the cut
            held = 0
            for k in range(cut, s.N):
                tails = geometry._tails(live, {zero: [("", 1)]}, k, letters, weight, p)
                assert sum(map(len, tails.values())) == sizes[k]
                held += sizes[k]
            assert held <= sizes[0]
            assert cut == 1 or held + sizes[cut - 1] > sizes[0]  # the shallowest
            assert sizes[0] == len(representation_coefficients(lifted, target, p))


def _random_composition(rng, total, parts):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    vals = []
    prev = 0
    for c in cuts:
        vals.append(c - prev)
        prev = c
    vals.append(total - prev)
    return tuple(vals)


# -- kernel of relations --------------------------------------------------------


def test_kernel_hesse():
    s = SupportSet.build(2, 3, HESSE_RAW)
    basis = kernel_basis(s.lifted)
    assert len(basis) == 1
    l = basis[0]
    assert l in ((3, -1, -1, -1), (-3, 1, 1, 1))
    assert is_relation(s.lifted, l)


def test_kernel_fermat_trivial():
    assert kernel_basis(lift(FERMAT_RAW)) == []


def test_kernel_rank_six_monomials():
    # for a homogeneous support the appended coordinate is linearly
    # dependent on the others, so the lifted rank equals the plain rank (3
    # here) and the kernel has rank N - 3 = 3; cross-checked against
    # rational elimination
    monos = [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 1, 1), (1, 2, 1), (1, 1, 2)]
    lifted = lift(monos)
    basis = kernel_basis(lifted)
    assert len(basis) == len(monos) - _rational_rank(lifted)
    assert len(basis) == 3
    for l in basis:
        assert is_relation(lifted, l)


def _rational_rank(vectors):
    from fractions import Fraction

    rows = [list(map(Fraction, v)) for v in vectors]
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [x / rows[rank][col] for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_kernel_basis_generates_over_Z(quartic):
    # every Markov move must be an integer combination of the basis
    lifted = quartic.lifted
    basis = kernel_basis(lifted)
    for l in enumerate_box_relations(lifted):
        assert _in_span_Z(basis, l)


def _in_span_Z(basis, vec):
    # reduce the basis to integer row echelon form, then eliminate vec
    # against the pivots; membership requires exact divisibility throughout
    rows = [list(b) for b in basis]
    n = len(vec)
    echelon = []
    col = 0
    while rows and col < n:
        cand = [r for r in rows if r[col] != 0]
        if not cand:
            col += 1
            continue
        while len(cand) > 1 or any(r[col] for r in rows if r not in cand):
            cand.sort(key=lambda r: abs(r[col]))
            piv = cand[0]
            for r in rows:
                if r is not piv and r[col]:
                    q = r[col] // piv[col]
                    for j in range(n):
                        r[j] -= q * piv[j]
            cand = [r for r in rows if r[col] != 0]
        piv = cand[0]
        rows.remove(piv)
        echelon.append((col, piv))
        col += 1
    t = list(vec)
    for col, piv in echelon:
        if t[col]:
            if t[col] % piv[col]:
                return False
            q = t[col] // piv[col]
            for j in range(n):
                t[j] -= q * piv[j]
    return all(x == 0 for x in t)


# -- L_i enumeration -------------------------------------------------------------


def test_Li_hesse_depths():
    s = SupportSet.build(2, 3, HESSE_RAW)
    # interior monomial sits at index 0 after reindexing
    got = enumerate_Li(s.lifted, 0, 6)
    assert sorted(got) == sorted(
        [(0, 0, 0, 0), (-3, 1, 1, 1), (-6, 2, 2, 2)]
    )
    assert enumerate_Li(s.lifted, 0, 2) == [(0, 0, 0, 0)]


def test_Li_fermat_trivial():
    lifted = lift(FERMAT_RAW)
    for i in range(3):
        assert enumerate_Li(lifted, i, 5) == [(0, 0, 0)]


@pytest.mark.parametrize("preset", ["hesse", "quartic", "quintic"])
def test_Li_elements_are_valid(preset, request):
    s = request.getfixturevalue(preset)
    for i in range(s.m):
        for l in enumerate_Li(s.lifted, i, 4):
            assert in_Li(s.lifted, i, l)
            assert sum(l) == 0


def _Li_by_depth(lifted, i, depth):
    # the reference: one walk over the other columns for each t = -l_i
    others = lifted[:i] + lifted[i + 1 :]
    out = []
    for t in range(depth + 1):
        target = tuple(t * c for c in lifted[i])
        out += [e[:i] + (-t,) + e[i:]
                for e in enumerate_representations(others, target)]
    return out


@pytest.mark.parametrize("preset", ["hesse", "fermat", "quartic", "quintic"])
def test_Li_is_the_reference_walk_per_depth(preset, request):
    s = request.getfixturevalue(preset)
    for i in range(s.m):
        for depth in range(9):
            assert enumerate_Li(s.lifted, i, depth) == _Li_by_depth(s.lifted, i, depth)


def _assert_weight_certificate(support, depth):
    """Every nonzero l of each L_i has w.l = sum_k l_k * |a_k - a_i|^2 >= -l_i
    for w_k = |a_k|^2: the certificate of suite 2.9."""
    a = support.exponents
    weight = [sum(x * x for x in ak) for ak in a]
    for i in range(support.m):
        spread = [sum((x - y) ** 2 for x, y in zip(ak, a[i])) for ak in a]
        for l in enumerate_Li(support.lifted, i, depth):
            if any(l):
                w_l = sum(map(operator.mul, weight, l))
                assert w_l == sum(map(operator.mul, spread, l)) >= -l[i] > 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_Li_weight_certificate_on_presets(preset, p):
    _assert_weight_certificate(support_from_preset(preset), p)


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_Li_weight_certificate_on_drawn_supports(data):
    n = data.draw(st.integers(1, 2))
    d = data.draw(st.integers(n + 1, n + 3))
    raw = data.draw(st.lists(st.sampled_from(monomials(d, n + 1)), min_size=1,
                             max_size=8, unique=True))
    u = data.draw(st.sampled_from(enumerate_interior(d, n)))
    support = SupportSet.build(n, d, raw + [u] * (u not in raw))
    _assert_weight_certificate(support, data.draw(st.sampled_from([2, 3, 5, 7])))


# -- Markov moves ------------------------------------------------------------------

DWORK_K3_RAW = [(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4), (1, 1, 1, 1)]


def _degree(l):
    return sum(x for x in l if x > 0)


def test_box_relations_hesse():
    s = SupportSet.build(2, 3, HESSE_RAW)
    assert enumerate_box_relations(s.lifted) == [(3, -1, -1, -1)]


def test_box_relations_fermat_empty():
    assert enumerate_box_relations(lift(FERMAT_RAW)) == []


@pytest.mark.parametrize("preset,moves", [("quartic", 75), ("quintic", 165)])
def test_box_relations_full_presets_are_quadrics(preset, moves, request):
    # a Veronese ideal is generated by quadrics, and the moves touch every
    # column
    s = request.getfixturevalue(preset)
    rels = enumerate_box_relations(s.lifted)
    assert len(rels) == moves
    assert {_degree(l) for l in rels} == {2}
    assert all(any(l[k] for l in rels) for k in range(s.N))


def test_box_relations_are_relations(hesse, quartic, quintic):
    for s in (hesse, quartic, quintic):
        rels = enumerate_box_relations(s.lifted)
        assert rels
        for l in rels:
            assert is_relation(s.lifted, l)
            assert next(x for x in l if x) > 0  # sign-normalised
        assert len(set(rels)) == len(rels)


def test_box_relations_deterministic(quartic):
    a = enumerate_box_relations(quartic.lifted)
    b = enumerate_box_relations(tuple(quartic.lifted))
    assert a == b


def _compositions(t, N):
    if N == 1:
        yield (t,)
        return
    for first in range(t + 1):
        for rest in _compositions(t - first, N - 1):
            yield (first,) + rest


def _fiber_points(lifted, t):
    """Every e in N^N with |e| = t, grouped by sum_k e_k * lifted[k]."""
    fibers = {}
    for e in _compositions(t, len(lifted)):
        image = tuple(
            sum(ek * v[i] for ek, v in zip(e, lifted)) for i in range(len(lifted[0]))
        )
        fibers.setdefault(image, set()).add(e)
    return fibers.values()


def _reach(start, moves):
    # breadth-first search over the nonnegative points, by +l and -l
    seen = {start}
    queue = [start]
    for e in queue:
        for l in moves:
            for sign in (1, -1):
                f = tuple(a + sign * b for a, b in zip(e, l))
                if min(f) >= 0 and f not in seen:
                    seen.add(f)
                    queue.append(f)
    return seen


def _lifted(preset, request):
    if preset == "dwork-k3":
        return lift(DWORK_K3_RAW)
    return request.getfixturevalue(preset).lifted


@pytest.mark.parametrize("preset", ["hesse", "quartic", "quintic", "dwork-k3"])
def test_box_relations_connect_every_fiber(preset, request):
    # the moves join every fiber of every degree up to the largest move's
    lifted = _lifted(preset, request)
    rels = enumerate_box_relations(lifted)
    for t in range(1, max(map(_degree, rels)) + 1):
        for points in _fiber_points(lifted, t):
            assert _reach(min(points), rels) == points


@pytest.mark.parametrize("preset", ["hesse", "quartic", "quintic", "dwork-k3"])
def test_box_relations_generate_the_lattice(preset, request):
    lifted = _lifted(preset, request)
    rels = enumerate_box_relations(lifted)
    for b in kernel_basis(lifted):
        assert _in_span_Z(rels, b)


# -- the relation check --------------------------------------------------------------


def _is_relation_reference(lifted, l):
    return len(l) == len(lifted) and all(
        sum(lk * v[i] for lk, v in zip(l, lifted)) == 0 for i in range(len(lifted[0]))
    )


def test_is_relation_matches_reference():
    rng = random.Random(29)
    for trial in range(300):
        n = rng.randint(1, 4)
        top = rng.choice([3, 10, 10**6, 2**70])
        lifted = [
            tuple(rng.randint(0, top) for _ in range(n)) + (1,)
            for _ in range(rng.randint(n + 2, n + 6))
        ]
        basis = kernel_basis(lifted)
        scale = rng.choice([1, 5, 10**9, 2**80])
        rel = [0] * len(lifted)
        for b in basis:
            c = rng.randint(-scale, scale)
            rel = [x + c * y for x, y in zip(rel, b)]
        candidates = [rel, [rng.randint(-scale, scale) for _ in lifted]]
        for k in range(len(lifted)):
            for delta in (1, -1):  # near misses
                near = list(rel)
                near[k] += delta
                candidates.append(near)
        for l in candidates:
            assert is_relation(lifted, l) == _is_relation_reference(lifted, l)
        assert is_relation(lifted, rel)


def test_is_relation_no_carry_between_fields():
    # (2^k, -1) against the columns (1, 0), (0, 1): the coordinate sums
    # (2^k, -1) would cancel in fields only k bits wide
    lifted = [(1, 0), (0, 1)]
    for k in range(1, 90):
        assert not is_relation(lifted, (2**k, -1))
        assert not is_relation(lifted, (-(2**k), 1))
    assert is_relation(lifted, (0, 0))


def test_is_relation_rejects_wrong_length():
    s = SupportSet.build(2, 3, HESSE_RAW)
    assert is_relation(s.lifted, (3, -1, -1, -1))
    assert not is_relation(s.lifted, (3, -1, -1))
    assert not is_relation(s.lifted, (3, -1, -1, -1, 0))
