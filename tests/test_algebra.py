import itertools
import math
import operator
import random
import struct
import types
from fractions import Fraction

import pytest

from hassewitt import algebra
from hassewitt.algebra import (
    FIELD_BOUND,
    ExtensionField,
    SparseLaurentPoly,
    det_leibniz,
    evaluate_laurent,
    factorial_table,
    find_irreducible,
    inverse_factorial_table,
    is_prime,
    specialize,
)

from conftest import const, det_cofactor, mono, multinomial_mod_p, plus, unpacked, zero

P = SparseLaurentPoly


# -- multinomial -------------------------------------------------------------


def test_multinomial_examples():
    assert multinomial_mod_p((1, 1, 1, 1), 5) == 4  # 24 mod 5
    assert multinomial_mod_p((4, 0, 0, 0), 5) == 1
    assert multinomial_mod_p((1, 1), 3) == 2


def test_multinomial_rejects_wrong_sum():
    with pytest.raises(ValueError):
        multinomial_mod_p((1, 1), 5)
    with pytest.raises(ValueError):
        multinomial_mod_p((-1, 5), 5)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_multinomial_matches_factorials(p):
    for n in range(1, 5):
        for e in itertools.product(range(p), repeat=n):
            if sum(e) != p - 1:
                continue
            exact = math.factorial(p - 1) // math.prod(math.factorial(x) for x in e)
            assert multinomial_mod_p(e, p) == exact % p


def test_inverse_factorial_table():
    for p in (2, 3, 5, 7, 11, 97):
        pairs = zip(factorial_table(p), inverse_factorial_table(p))
        assert all(f * g % p == 1 for f, g in pairs)
    with pytest.raises(ValueError):
        inverse_factorial_table(4)


def test_wilson():
    for p in (2, 3, 5, 7, 11, 13, 97):
        assert factorial_table(p)[p - 1] == (p - 1) % p


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (3, 3), (5, 2), (5, 3)])
def test_multinomial_completeness(p, n):
    # sum of multinomial(e) * L^e over all e with sum e = p-1 equals
    # (L1 + ... + Ln)^(p-1), term for term
    lin = P(n, p, {tuple(int(k == i) for k in range(n)): 1 for i in range(n)})
    power = const(n, 1, p)
    for _ in range(p - 1):
        power = power * lin
    direct = {}
    for e in itertools.product(range(p), repeat=n):
        if sum(e) == p - 1:
            direct[e] = multinomial_mod_p(e, p)
    assert power == P(n, p, direct)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


# -- polynomial arithmetic ----------------------------------------------------


def test_difference_of_squares_mod5():
    l1_plus_l2 = P(2, 5, {(1, 0): 1, (0, 1): 1})
    l1_minus_l2 = P(2, 5, {(1, 0): 1, (0, 1): -1})
    assert l1_plus_l2 * l1_minus_l2 == P(2, 5, {(2, 0): 1, (0, 2): 4})


def test_freshman_dream_mod2():
    l1_plus_l2 = P(2, 2, {(1, 0): 1, (0, 1): 1})
    assert l1_plus_l2 * l1_plus_l2 == P(2, 2, {(2, 0): 1, (0, 2): 1})


def test_laurent_inverse_monomial():
    assert mono((-1,)) * mono((1,)) == const(1, 1)


def test_mismatched_operands_rejected():
    with pytest.raises(ValueError):
        mono((1, 0), p=5) * mono((1,), p=5)
    with pytest.raises(ValueError):
        mono((1, 0), p=5) * mono((1, 0), p=3)


def random_poly(rng, nvars, p, nterms=3):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(-3, 3) for _ in range(nvars))
        terms[exp] = rng.randint(0, p - 1)
    return P(nvars, p, terms)


def test_ring_axioms_random():
    rng = random.Random(20260823)
    for _ in range(1000):
        p = rng.choice([2, 3, 5, 7])
        f, g, h = (random_poly(rng, 3, p) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * plus(g, h) == plus(f * g, f * h)


def test_constant_term():
    f = P(4, 5, {(0, 0, 0, 0): 1, (1, 1, 1, -3): 4})
    assert f.constant_term() == 1
    assert mono((0, 0, 0, -1), p=5).constant_term() == 0
    assert zero(4, 5).constant_term() == 0


def test_canonical_str_deterministic():
    f = P(2, 5, {(0, 1): 2, (1, 0): 3})
    assert f.canonical_str() == "2*L1^0*L2^1 + 3*L1^1*L2^0"
    assert zero(2, 5).canonical_str() == "0"


def texts(pieces):
    return ["".join(t) for t in zip(*pieces)]


def test_canonical_pieces_match_shift():
    rng = random.Random(20261018)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        nvars = rng.randint(1, 4)
        f = random_poly(rng, nvars, p, nterms=rng.randint(0, 6))
        shifts = [
            [rng.choice((0, rng.randint(-4, 4))) for _ in range(nvars)]
            for _ in range(rng.randint(1, 3))
        ]
        pieces = list(det_leibniz([[f]]).pieces(shifts))
        assert all(len(piece) == len(shifts) for piece in pieces)
        assert texts(pieces) == [f.shift(s).canonical_str() for s in shifts]
    half = P(2, None, {(1, -2): Fraction(1, 2), (0, 3): Fraction(-7, 3), (2, 2): 4})
    assert texts(det_leibniz([[half]]).pieces([(3, -1), (0, 0)])) == [
        half.shift((3, -1)).canonical_str(),
        half.canonical_str(),
    ]
    assert texts(det_leibniz([[half]]).pieces([(3, -1)])) == [
        "-7/3*L1^3*L2^2 + 1/2*L1^4*L2^-3 + 4*L1^5*L2^1"
    ]
    assert list(det_leibniz([[zero(3, 5)]]).pieces([(1, 2, 3), (0, 0, 0)])) == [("0", "0")]


def test_canonical_pieces_one_piece_per_head():
    # only coordinate 0 moves, so each first exponent is a run of its own
    f = P(3, 5, {(0, 1, 2): 1, (0, 2, 0): 2, (1, 0, 0): 3, (4, 4, 4): 4, (4, 5, 0): 1})
    pieces = list(det_leibniz([[f]]).pieces([(0, 0, 0), (-1, 0, 0)]))
    assert len(pieces) == 3
    assert texts(pieces) == [f.canonical_str(), f.shift((-1, 0, 0)).canonical_str()]
    # no coordinate moves: one run
    assert len(list(det_leibniz([[f]]).pieces([(0, 0, 0)]))) == 1


def test_canonical_pieces_reject_a_shift_of_the_wrong_length():
    f = mono((1, 2), 3, p=5)
    for delta in [(1,), (1, 2, 3), ()]:
        with pytest.raises(ValueError):
            det_leibniz([[f]]).pieces([delta])
        with pytest.raises(ValueError):
            det_leibniz([[f]]).pieces([(0, 0), delta])
        with pytest.raises(ValueError):
            f.shift(delta)
    with pytest.raises(ValueError):
        det_leibniz([[zero(2, 5)]]).pieces([(1,)])


# -- determinants -------------------------------------------------------------


def test_det_identity_and_diag():
    one, nil = const(2, 1, 5), zero(2, 5)
    assert unpacked(det_leibniz([[one, nil], [nil, one]])) == one
    l1, l2 = mono((1, 0), p=5), mono((0, 1), p=5)
    assert unpacked(det_leibniz([[l1, nil], [nil, l2]])) == l1 * l2


def test_det_2x2_example():
    one, l2 = const(2, 1, 5), mono((0, 1), p=5)
    mat = [[P(2, 5, {(0, 0): 1, (1, 0): 1}), l2], [l2, one]]
    expected = P(2, 5, {(0, 0): 1, (1, 0): 1, (0, 2): 4})
    assert unpacked(det_leibniz(mat)) == expected


def test_det_3x3_matches_cofactor():
    rng = random.Random(7)
    for _ in range(25):
        p = rng.choice([3, 5, 7])
        mat = [[random_poly(rng, 2, p, 2) for _ in range(3)] for _ in range(3)]
        assert unpacked(det_leibniz(mat)) == det_cofactor(mat)


def test_det_bound():
    one = const(1, 1, 5)
    mat = [[one] * 9 for _ in range(9)]
    with pytest.raises(ValueError):
        det_leibniz(mat)


def test_det_work_bound(monkeypatch):
    # rows of 1 + 2 terms: the Leibniz products number at most 3 * 3 = 9
    one, l1 = const(1, 1, 5), mono((1,), p=5)
    mat = [[l1, plus(one, l1)], [plus(one, l1), l1]]
    monkeypatch.setattr(algebra, "DET_WORK_BOUND", 9)
    assert unpacked(det_leibniz(mat)) == det_cofactor(mat)
    monkeypatch.setattr(algebra, "DET_WORK_BOUND", 8)
    with pytest.raises(algebra.DeterminantBoundError, match="DET_WORK_BOUND"):
        det_leibniz(mat)


def test_det_shape_errors():
    one = const(1, 1, 5)
    with pytest.raises(ValueError, match="not square"):
        det_leibniz([[one, one], [one]])
    with pytest.raises(ValueError, match="not square"):
        det_leibniz([[one, one]])
    with pytest.raises(ValueError, match="empty"):
        det_leibniz([])
    with pytest.raises(ValueError):
        det_leibniz([[one, one], [one, const(1, 1, 3)]])


def random_entry(rng, nvars, modulus, span=3):
    """A Laurent polynomial with exponents of both signs; a quarter of the
    entries are zero."""
    if rng.random() < 0.25:
        return zero(nvars, modulus)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = tuple(rng.randint(-span, span) for _ in range(nvars))
        terms[exp] = rng.randint(1, modulus - 1) if modulus else rng.randint(-9, 9)
    return P(nvars, modulus, terms)


@pytest.mark.parametrize("modulus", [None, 2, 3, 5, 7])
def test_det_matches_cofactor_random(modulus):
    rng = random.Random(f"det-{modulus}")
    for m in range(1, 6):
        for nvars in (1, 2, 3):
            for _ in range(3 if m < 5 else 1):
                mat = [[random_entry(rng, nvars, modulus) for _ in range(m)] for _ in range(m)]
                d = unpacked(det_leibniz(mat))
                assert d == det_cofactor(mat)
                assert list(d.terms) == sorted(d.terms)


@pytest.mark.parametrize("modulus", [None, 5])
@pytest.mark.parametrize("hi", [3, 2**70], ids=["narrow", "wide"])
def test_det_nonnegative_exponents_matches_cofactor(modulus, hi):
    # every least exponent is 0, as in the Hasse-Witt matrix, so the packed
    # keys unpack with no offset; hi = 2**70 packs wider than 64 bits
    rng = random.Random(f"nonnegative-{modulus}-{hi}")
    for m in (1, 2, 3, 4):
        mat = [
            [
                P(3, modulus, {
                    tuple(rng.choice((0, 1, hi)) for _ in range(3)): rng.randint(1, 4)
                    for _ in range(3)
                })
                for _ in range(m)
            ]
            for _ in range(m)
        ]
        mat[0][0] = plus(mat[0][0], const(3, 1, modulus))
        d = unpacked(det_leibniz(mat))
        assert d == det_cofactor(mat)
        assert list(d.terms) == sorted(d.terms)


@pytest.mark.parametrize("modulus", [None, 3])
def test_det_zero_row_and_cancellation(modulus):
    rng = random.Random(11)
    for m in (2, 3, 4):
        mat = [[random_entry(rng, 2, modulus) for _ in range(m)] for _ in range(m)]
        mat[rng.randrange(m)] = [zero(2, modulus)] * m
        assert unpacked(det_leibniz(mat)) == zero(2, modulus)
        # two equal rows: swapping them pairs up the permutations with
        # opposite signs, so every term cancels
        mat = [[random_entry(rng, 2, modulus) for _ in range(m)] for _ in range(m - 1)]
        mat.append(list(mat[0]))
        assert unpacked(det_leibniz(mat)) == zero(2, modulus) == det_cofactor(mat)


@pytest.mark.parametrize(
    "lo,hi",
    [
        (-(2**40), 2**40),  # far from 0, both signs
        (0, 2**7),  # 2 * span = 2**8: just needs a 16-bit field
        (-1, 2**7 - 1),
        (5, 2**7 + 4),
        (0, 2**15),  # 2 * span = 2**16: a 32-bit field
        (-(2**31), 0),  # 2 * span = 2**32: a 64-bit field
        (2**40, 2**63 + 2**40),  # 2 * span = 2**64: wider than 64 bits
    ],
)
def test_det_wide_exponents(lo, hi):
    # exponents at both ends of [lo, hi] in every coordinate, so that the
    # products of m extreme terms fill each packed field to m * (hi - lo)
    rng = random.Random(lo ^ hi)
    for m in (2, 3):
        mat = [
            [
                P(3, None, {
                    tuple(rng.choice((lo, hi)) for _ in range(3)): rng.randint(-5, 5) or 1
                    for _ in range(3)
                })
                for _ in range(m)
            ]
            for _ in range(m)
        ]
        d = unpacked(det_leibniz(mat))
        assert d == det_cofactor(mat)
        assert list(d.terms) == sorted(d.terms)
    top, bottom = mono((hi, lo)), mono((lo, hi))
    d = unpacked(det_leibniz([[top, bottom], [bottom, top]]))
    assert d == P(2, None, {(2 * hi, 2 * lo): 1, (2 * lo, 2 * hi): -1})
    assert list(d.terms) == sorted(d.terms)


def assert_pieces_match_cofactor(mat, shift):
    """det_leibniz(mat).pieces([0, shift]) joins to the cofactor texts, and
    coefficient reads every term of the cofactor expansion."""
    d, ref = det_leibniz(mat), det_cofactor(mat)
    nvars = len(shift)
    assert texts(d.pieces([(0,) * nvars, shift])) == [
        ref.canonical_str(),
        ref.shift(shift).canonical_str(),
    ]
    assert bool(d.terms) == (not ref.is_zero)
    for exp, c in ref.terms.items():
        assert d.coefficient(exp) == c
    return d


@pytest.mark.parametrize("modulus", [None, 2, 3, 5, 7])
def test_det_pieces_match_cofactor_random(modulus):
    rng = random.Random(f"pieces-{modulus}")
    offsets = set()
    for m in range(1, 5):
        for nvars in (1, 2, 3):
            for _ in range(3):
                mat = [[random_entry(rng, nvars, modulus) for _ in range(m)] for _ in range(m)]
                shift = tuple(rng.choice((0, rng.randint(-4, 4))) for _ in range(nvars))
                offsets.update(assert_pieces_match_cofactor(mat, shift).offsets)
    assert min(offsets) < 0  # negative exponents, read through nonzero offsets


@pytest.mark.parametrize("modulus", [None, 3])
def test_det_pieces_of_a_zero_determinant(modulus):
    rng = random.Random(f"zero-pieces-{modulus}")
    for m in (1, 2, 3):
        mat = [[random_entry(rng, 2, modulus) for _ in range(m)] for _ in range(m - 1)]
        mat.append(list(mat[0]) if mat else [zero(2, modulus)])
        d = det_leibniz(mat)
        assert not d.terms
        assert list(d.pieces([(0, 0), (1, -1)])) == [("0", "0")]
        assert d.coefficient((0, 0)) == 0


@pytest.mark.parametrize(
    "lo,hi,width",
    [
        (-3, 3, 8),
        (0, 2**7, 16),
        (-1, 2**15 - 1, 32),
        (-(2**31), 0, 64),
        (2**40, 2**63 + 2**40, 65),
    ],
)
def test_det_pieces_at_every_width(lo, hi, width):
    # exponents at both ends of [lo, hi], so that the field holds m * (hi - lo)
    rng = random.Random(f"width-{lo}-{hi}")
    for m in (2, 3):
        mat = [
            [
                P(3, None, {
                    tuple(rng.choice((lo, hi)) for _ in range(3)): rng.randint(-5, 5) or 1
                    for _ in range(3)
                })
                for _ in range(m)
            ]
            for _ in range(m)
        ]
        shift = (rng.randint(-9, 9), 0, rng.randint(-9, 9))
        d = assert_pieces_match_cofactor(mat, shift)
        assert d.width == width


@pytest.mark.parametrize("lo,hi,width", [(-3, 3, 8), (2**40, 2**63 + 2**40, 65)])
@pytest.mark.parametrize(
    "nvars,moved",
    [
        (3, 3),  # every coordinate moves: an empty tail
        (3, 2),  # a tail of one field
        (4, 1),  # three fields: halves of one and two
        (6, 2),  # four fields: two halves of two
        (5, 1),  # four fields, after a head of one
    ],
)
def test_det_pieces_split_every_tail(lo, hi, width, nvars, moved):
    # the shift moves coordinates 0..moved-1, so the tail is the other
    # nvars - moved fields, split at their middle; two exponent values per
    # coordinate make many terms share each half
    rng = random.Random(f"tail-{lo}-{nvars}-{moved}")
    for m in (2, 3):
        mat = [
            [
                P(nvars, None, {
                    tuple(rng.choice((lo, hi)) for _ in range(nvars)): rng.randint(-5, 5) or 1
                    for _ in range(3)
                })
                for _ in range(m)
            ]
            for _ in range(m)
        ]
        shift = tuple(rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(moved))
        d = assert_pieces_match_cofactor(mat, shift + (0,) * (nvars - moved))
        assert d.width == width


def test_det_coefficient_outside_the_packed_range():
    f = P(2, 5, {(-2, 3): 1, (1, 0): 4, (0, 7): 2})
    d = det_leibniz([[f]])
    assert d.offsets == (-2, 0) and d.width == 8
    assert [d.coefficient(e) for e in [(-2, 3), (1, 0), (0, 7)]] == [1, 4, 2]
    for exp in [(-3, 3), (1, -1), (-2 + 2**8, 3), (1, 2**8), (2**70, 0), (0, 0)]:
        assert d.coefficient(exp) == 0
    with pytest.raises(ValueError):
        d.coefficient((1,))


# -- specialization ------------------------------------------------------------


def naive_evaluate(f, point, field):
    """Reference: substitute every variable term by term, x**e per factor."""
    acc = field.zero()
    for exp, c in f.terms.items():
        val = field.from_int(c)
        for x, e in zip(point, exp):
            val = val * x**e
        acc = acc + val
    return acc


def test_specialize_then_horner_matches_evaluate_random():
    rng = random.Random(20261018)
    raised = 0
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        F = ExtensionField(p, rng.choice([1, 2, 3] if p < 5 else [1, 2]))
        pool = list(F.elements())
        nvars = rng.randint(1, 4)
        f = random_poly(rng, nvars, p, nterms=rng.randint(0, 8))
        point = tuple(rng.choice(pool) for _ in range(nvars))
        try:
            expected = naive_evaluate(f, point, F)
        except ZeroDivisionError:
            raised += 1
            with pytest.raises(ZeroDivisionError):
                f.evaluate(point, F)
            for k in range(nvars):
                with pytest.raises(ZeroDivisionError):
                    evaluate_laurent(specialize(f, point, k, F), point[k], F)
            continue
        assert f.evaluate(point, F) == expected
        for k in range(nvars):
            coeffs = specialize(f, point, k, F)
            assert {e[k] for e in f.terms} == set(coeffs)
            assert evaluate_laurent(coeffs, point[k], F) == expected
    assert raised > 0


def test_specialize_zero_into_negative_exponent_raises():
    F = ExtensionField(3, 2)
    zero, one = F.zero(), F.one()
    f = P(3, 3, {(-1, 1, 0): 1, (-1, 0, 1): 2})  # x0^-1 (x1 - x2)
    # the fixed coordinate x0 is 0
    with pytest.raises(ZeroDivisionError):
        specialize(f, (zero, one, one), 1, F)
    # x_k = 0 where its coefficient at x_k^-1 cancels to zero: still refused
    coeffs = specialize(f, (zero, one, one), 0, F)
    assert coeffs == {-1: zero}
    with pytest.raises(ZeroDivisionError):
        evaluate_laurent(coeffs, zero, F)
    with pytest.raises(ZeroDivisionError):
        f.evaluate((zero, one, one), F)


def test_specialize_rejects_bad_arguments():
    F = ExtensionField(5, 1)
    f = mono((1, 2), p=5)
    point = (F.one(), F.one())
    with pytest.raises(ValueError):
        specialize(f, point[:1], 0, F)
    with pytest.raises(ValueError):
        specialize(f, point, 2, F)
    with pytest.raises(ValueError):
        specialize(f, (ExtensionField(3, 1).one(),) * 2, 0, ExtensionField(3, 1))


def test_specialize_reduces_integer_coefficients():
    # coefficients negative, >= p and = 0 mod p; each coordinate of a term
    # whose coefficient is 0 mod p also occurs in a term whose coefficient
    # is not, so the reduction keeps every x_k exponent of the support
    rng = random.Random(20261020)
    for p in (3, 5):
        f = P(3, None, {
            (2, 0, -1): -1, (0, 1, 1): p + 2, (1, 1, 0): -2 * p - 1,
            (1, 0, 0): 3 * p + 1, (2, 1, 1): p, (0, 0, -1): -p,
        })
        reduced = f.reduce_mod(p)
        assert len(reduced.terms) == len(f.terms) - 2
        for F in (ExtensionField(p, 1), ExtensionField(p, 2)):
            pool = list(F.elements())
            raised = 0
            for _ in range(40):
                point = tuple(rng.choice(pool) for _ in range(3))
                for k in range(3):
                    try:
                        expected = specialize(reduced, point, k, F)
                    except ZeroDivisionError:
                        raised += 1
                        with pytest.raises(ZeroDivisionError):
                            specialize(f, point, k, F)
                        continue
                    assert specialize(f, point, k, F) == expected
                    assert set(expected) == {e[k] for e in f.terms}
            assert raised > 0


def test_specialize_and_horner_refuse_elements_of_another_field():
    F, G = ExtensionField(3, 2), ExtensionField(3, 1)
    f = P(3, 3, {(1, 2, 0): 1, (0, 1, 0): 2})  # x2 has exponent 0 throughout
    coeffs = specialize(f, (F.one(), F.one(), G.one()), 0, F)
    assert evaluate_laurent(coeffs, F.one(), F) == F.zero()
    with pytest.raises(ValueError):
        specialize(f, (F.one(), G.one(), F.one()), 0, F)
    with pytest.raises(ValueError):
        specialize(f, (F.one(), 1, F.one()), 0, F)
    with pytest.raises(ValueError):
        evaluate_laurent(coeffs, G.one(), F)
    with pytest.raises(ValueError):
        evaluate_laurent({0: G.one(), 1: F.one()}, F.one(), F)


# -- extension fields ---------------------------------------------------------


def test_gf4_arithmetic():
    F = ExtensionField(2, 2)
    assert F.modulus == (1, 1, 1)  # t^2 + t + 1
    t = F.element([0, 1])
    one = F.one()
    assert t * (t + one) == one
    assert t.inverse() == t + one


def test_degenerate_extension_matches_prime_field():
    F = ExtensionField(5, 1)
    three = F.from_int(3)
    assert (three * three).canonical_str() == "4"
    assert (three + F.from_int(4)).canonical_str() == "2"


def test_fields_built_separately_combine():
    F, G = ExtensionField(5, 2), ExtensionField(5, 2)
    assert F is not G and F == G
    x, y = F.element([2, 3]), G.element([4, 1])
    assert (x * y).canonical_str() == (x * F.element([4, 1])).canonical_str()
    assert (x + y).canonical_str() == "1,4"
    assert (x - y).canonical_str() == "3,2"
    assert x * y == y * x


def test_elements_of_different_fields_rejected():
    for F, G in [((5, 2), (5, 1)), ((5, 1), (7, 1))]:
        x, y = ExtensionField(*F).one(), ExtensionField(*G).one()
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="different fields"):
                op(x, y)
            with pytest.raises(ValueError, match="different fields"):
                op(y, x)


def test_prime_field_errors():
    with pytest.raises(ValueError):
        ExtensionField(6, 1)
    with pytest.raises(ZeroDivisionError):
        ExtensionField(5, 1).zero().inverse()


def test_irreducible_search_deterministic():
    assert find_irreducible(2, 1) == (0, 1)
    assert find_irreducible(3, 2) == (1, 0, 1)  # t^2 + 1 over GF(3)


@pytest.mark.parametrize(
    "p,a",
    [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
     (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2), (61, 1)],
)
def test_multiplicative_order_exhaustive(p, a):
    F = ExtensionField(p, a)
    one = F.one()
    for x in F.elements():
        if x:
            assert x ** (F.q - 1) == one


def test_extension_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        ExtensionField(3, 2).zero().inverse()


def test_extension_inverse_random():
    rng = random.Random(3)
    F = ExtensionField(7, 2)
    pool = [x for x in F.elements() if x]
    for _ in range(50):
        x = rng.choice(pool)
        assert x * x.inverse() == F.one()


# -- GF(q) against schoolbook polynomial arithmetic -----------------------------
#
# Elements are discrete logs looked up in per-field tables, so identities such
# as x * x.inverse() == 1 hold by construction.  This reference shares no code
# with those tables: it multiplies coefficient tuples by hand and reduces mod
# the field's monic modulus.


def school_mul(f, g, modulus, p):
    a = len(modulus) - 1
    prod = [0] * (2 * a - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                prod[i + j] += x * y
    for top in range(len(prod) - 1, a - 1, -1):
        c = prod[top] % p
        if c:
            for i, m in enumerate(modulus):
                prod[top - a + i] -= c * m
    return tuple(x % p for x in prod[:a])


def schoolbook_mismatches(F):
    """Every disagreement of F's *, +, -, unary -, inverse() and x**e
    (e in -3..q) with schoolbook arithmetic, as (operation, operands)."""
    p, a, mod = F.p, F.a, F.modulus
    tuples = list(itertools.product(range(p), repeat=a))
    one, zero = (1,) + (0,) * (a - 1), (0,) * a

    def text(c):
        return ",".join(map(str, c))

    bad = []
    for x in tuples:
        ex = F.element(x)
        if ex.canonical_str() != text(x) or bool(ex) != (x != zero):
            bad.append(("element", x))
        if (-ex).canonical_str() != text(tuple(-c % p for c in x)):
            bad.append(("neg", x))
        for y in tuples:
            ey = F.element(y)
            if (ex * ey).canonical_str() != text(school_mul(x, y, mod, p)):
                bad.append(("mul", x, y))
            if (ex + ey).canonical_str() != text(tuple((c + d) % p for c, d in zip(x, y))):
                bad.append(("add", x, y))
            if (ex - ey).canonical_str() != text(tuple((c - d) % p for c, d in zip(x, y))):
                bad.append(("sub", x, y))
        if x == zero:
            with pytest.raises(ZeroDivisionError):
                ex.inverse()
            for e in (-3, -2, -1):
                with pytest.raises(ZeroDivisionError):
                    ex**e
            expected = {0: one, **{e: zero for e in range(1, F.q + 1)}}
        else:
            inv = next(y for y in tuples if school_mul(x, y, mod, p) == one)
            if ex.inverse().canonical_str() != text(inv):
                bad.append(("inverse", x))
            expected, up, down = {}, one, one
            for e in range(F.q + 1):
                expected[e] = up
                up = school_mul(up, x, mod, p)
            for e in (-1, -2, -3):
                down = school_mul(down, inv, mod, p)
                expected[e] = down
        for e, want in expected.items():
            if (ex**e).canonical_str() != text(want):
                bad.append(("pow", x, e))
    return bad


GF_SIZES = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)]


@pytest.mark.parametrize("p,a", GF_SIZES, ids=[f"GF{p**a}" for p, a in GF_SIZES])
def test_field_matches_schoolbook_arithmetic(p, a):
    assert schoolbook_mismatches(ExtensionField(p, a)) == []


@pytest.mark.parametrize("p,a", [(2, 3), (3, 2), (5, 2)])
@pytest.mark.parametrize("table", ["_zech", "_coeffs"])
def test_schoolbook_check_catches_one_corrupted_table_entry(p, a, table):
    rng = random.Random(p * 100 + a)
    for _ in range(3):
        F = ExtensionField(p, a)
        entries = list(getattr(F, table))
        k = rng.randrange(len(entries))
        entries[k] = rng.choice([v for v in entries if v != entries[k]])
        setattr(F, table, tuple(entries))  # this instance only: the cache is intact
        assert schoolbook_mismatches(F)
    assert schoolbook_mismatches(ExtensionField(p, a)) == []


def test_field_bound():
    assert FIELD_BOUND == 2**16
    for p, a in [(5, 40), (2, 17), (65537, 1), (2, 10**12)]:
        with pytest.raises(ValueError, match="FIELD_BOUND"):
            ExtensionField(p, a)


def test_field_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr(algebra, "FIELD_BOUND", 9)
    assert ExtensionField(3, 2).q == 9
    with pytest.raises(ValueError, match="FIELD_BOUND = 9"):
        ExtensionField(2, 4)


def reference_log_tables(p, a):
    """The log tables by the generator walk over lex-ordered candidates,
    stepping each power with school_mul; shares no code with _log_tables."""
    modulus = algebra.find_irreducible(p, a)
    one = (1,) + (0,) * (a - 1)
    for g in itertools.product(range(p), repeat=a):
        if not any(g):
            continue
        powers, x = [one], g
        while x != one:
            powers.append(x)
            x = school_mul(x, g, modulus, p)
        if len(powers) == p**a - 1:
            break
    coeffs = tuple(powers) + ((0,) * a,)
    log = {c: k for k, c in enumerate(coeffs)}
    zech = tuple(log[((c[0] + 1) % p,) + c[1:]] for c in powers)
    return coeffs, log, zech


@pytest.mark.parametrize("p,a", [(7, 2), (2, 16)])
def test_log_tables_walk_only_the_generator(monkeypatch, p, a):
    # each step of the walk is one struct unpack: the generator's cycle has
    # q - 1 elements, reached in q - 2 steps from g, and no candidate before
    # the generator is walked
    steps = []

    class CountingStruct(struct.Struct):
        def unpack(self, buffer):
            steps.append(buffer)
            return super().unpack(buffer)

    monkeypatch.setattr(algebra, "struct", types.SimpleNamespace(Struct=CountingStruct))
    tables = algebra._log_tables.__wrapped__(p, a)
    assert len(steps) == p**a - 2
    assert tables == reference_log_tables(p, a)


@pytest.mark.parametrize("p,a", [(2, 16), (3, 8), (5, 3), (7, 2)])
def test_log_tables_match_reference_walk(p, a):
    assert algebra._log_tables(p, a) == reference_log_tables(p, a)
