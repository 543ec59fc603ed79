"""Box and Euler operators, the logarithmic-derivative series attached to
each interior monomial, the mod-p truncation operator, and the verification
routines tying the series to the Hasse-Witt matrix entries.

Series are represented as depth-limited SparseLaurentPoly values with exact
coefficients: G_i's are rational, and the derivative series built from it
are integral.  The depth bounds -l_i for the lattice parameters that
generate the terms, which (together with the sign pattern of L_i) bounds
every exponent coordinate.  The mod-p windows of Lemma 3.7 are built
directly from Lucas's theorem, with no series (lucas_windows).
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import lru_cache

from .algebra import SparseLaurentPoly
from .geometry import SupportSet, enumerate_Li, is_relation, representation_blocks
from .hasse_witt import symbolic_entry
from .reports import VerificationReport


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------


def _falling(s, m):
    """s(s-1)...(s-m+1) over the integers; valid for negative s."""
    if s >= 0:
        return math.perm(s, m)
    return (-1) ** m * math.perm(m - 1 - s, m)


class _FallingTable(dict):
    """{s: s(s-1)...(s-m+1)} for one order m, exact when p is None and
    reduced mod p otherwise, filled on first use.  The product is a
    polynomial in s with integer coefficients, so mod p it depends only on
    s mod p, and each entry is computed from s mod p."""

    __slots__ = ("m", "p")

    def __init__(self, p, m):
        super().__init__()
        self.p = p
        self.m = m

    def __missing__(self, s):
        p = self.p
        x = self[s] = _falling(s, self.m) if p is None else _falling(s % p, self.m) % p
        return x


@lru_cache(maxsize=None)
def _falling_table(p, m):
    return _FallingTable(p, m)


@lru_cache(maxsize=None)
def _box_sides(l, modulus):
    """The two monomial derivative operators of the relation l, d^{l+} and
    d^{l-}, as (sign, factors, shift): the (k, falling-factorial table of
    order m) pairs of the side's (k, m), and the exponent vector it lowers
    each term by."""
    sides = []
    for sign, orders in ((1, l), (-1, tuple(-x for x in l))):
        shift = tuple(max(x, 0) for x in orders)
        factors = tuple((k, _falling_table(modulus, m)) for k, m in enumerate(shift) if m)
        sides.append((sign, factors, shift))
    return tuple(sides)


def box_apply(l, f: SparseLaurentPoly) -> SparseLaurentPoly:
    """Difference of the two monomial derivative operators of the relation
    l, d^{l+} f - d^{l-} f, by falling factorials on exponents read from
    one table per order, accumulated into one term dict.  A term stops at
    its first factor 0, after one lookup."""
    out = {}
    get = out.get
    for sign, factors, shift in _box_sides(tuple(l), f.modulus):
        for exp, c in f.terms.items():
            for k, table in factors:
                x = table[exp[k]]
                if not x:
                    break
                c *= x
            else:
                exp = tuple(map(operator.sub, exp, shift))
                out[exp] = get(exp, 0) + sign * c
    return SparseLaurentPoly(f.nvars, f.modulus, out)


def euler_apply(lifted, coord, beta, f: SparseLaurentPoly) -> SparseLaurentPoly:
    """Apply the homogeneity operator for one coordinate: each monomial L^s
    is scaled by sum_k lifted[k][coord]*s_k - beta[coord].  A monomial is
    killed by all coordinates iff sum_k s_k*lifted[k] = beta.
    """
    out = {}
    for exp, c in f.terms.items():
        factor = sum(v[coord] * s for v, s in zip(lifted, exp)) - beta[coord]
        if factor:
            out[exp] = c * factor
    return SparseLaurentPoly(f.nvars, f.modulus, out)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


class TruncatedSeries(namedtuple("TruncatedSeries", "poly i j depth")):
    """A series to ``depth``: ``poly`` has exact coefficients, an int or a
    Fraction where not integral, and ``j`` equals ``i`` for the underlying
    logarithmic series itself."""

    __slots__ = ()


def series_Gi(support: SupportSet, i, depth) -> TruncatedSeries:
    """The series paired with log(L_i): sum over nonzero l in L_i of
    (-1)^{-l_i-1} * (-l_i-1)! / prod_{k != i} l_k! * L^l, to the given depth.
    A coefficient is an int where it is integral and a Fraction elsewhere.
    """
    if not 0 <= i < support.m:
        raise ValueError(f"index {i} is not an interior-monomial index")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    # on L_i, l_i < 0 <= l_k for k != i and sum_k l_k = 0, so the positive
    # coordinates are the denominator's and none exceeds -l_i <= depth
    fact = [1]
    for x in range(1, depth + 1):
        fact.append(fact[-1] * x)
    terms = {}
    for l in enumerate_Li(support.lifted, i, depth):
        t = -l[i]
        if t == 0:
            continue
        num = (-1) ** (t - 1) * fact[t - 1]
        den = math.prod(fact[x] for x in l if x > 0)
        q, r = divmod(num, den)
        if r:
            # imported here: at module level it would slow every command's start-up
            from fractions import Fraction

            terms[l] = Fraction(num, den)
        else:
            terms[l] = q
    return TruncatedSeries(
        poly=SparseLaurentPoly(support.N, None, terms), i=i, j=i, depth=depth
    )


def derivative_series(gi: TruncatedSeries, j) -> TruncatedSeries:
    """d/dL_j of (log L_i + G_i), term by term from the series G_i.

    A term c*L^l with l_j != 0 becomes l_j*c*L^(l - e_j), and j = i adds
    L_i^{-1}, the derivative of the logarithm.  Every coefficient is an
    integer (Prop 3.4); one that is not raises ArithmeticError.
    """
    poly = gi.poly
    if gi.j != gi.i:
        raise ValueError("derivative_series differentiates G_i, not a derivative series")
    if not 0 <= j < poly.nvars:
        raise ValueError(f"derivative index {j} addresses no variable")
    terms = {}
    if j == gi.i:
        terms[rho_window(poly.nvars, j)] = 1  # L_i^{-1}: exponent -e_i
    for l, c in poly.terms.items():
        lj = l[j]
        if lj:
            coef, r = divmod(c.numerator * lj, c.denominator)
            if r:
                raise ArithmeticError(
                    f"non-integer series coefficient {c.numerator * lj}/{c.denominator}"
                )
            terms[l[:j] + (lj - 1,) + l[j + 1 :]] = coef
    return TruncatedSeries(
        poly=SparseLaurentPoly(poly.nvars, None, terms), i=gi.i, j=j, depth=gi.depth
    )


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def rho_window(N, i):
    """The window vector with -1 in coordinate i and 0 elsewhere."""
    r = [0] * N
    r[i] = -1
    return tuple(r)


def lucas_windows(support: SupportSet, i, j, p):
    """{r: the truncation mod p of d/dL_j(log L_i + G_i) over the window
    p*r <= s < p*(r + 1)} over the windows with r_i >= -2 that hold a term,
    built window by window from Lucas's theorem, with no series.

    The series' coefficient of L^s is (-1)^S * S! / prod_{k != i} s_k!,
    S = sum_{k != i} s_k, over the s with s_k >= 0 for k != i,
    s_i = -1 - S and sum_k s_k * lifted[k] = -lifted[j].  Write
    s_k = p*r_k + d_k with 0 <= d_k < p.  By Lucas's theorem the
    multinomial is 0 mod p unless the digits d_k (k != i) sum to some
    sigma < p, and then it is sigma! / prod d_k! times the multinomial of
    the r_k.  So S = p*R + sigma with R = sum_{k != i} r_k, and
    s_i = -1 - p*R - sigma lies in the window r_i = -1 - R: r_i >= -2
    leaves the window -e_i (R = 0) and the windows e_k - 2*e_i, k != i
    (R = 1), whose multinomial of the r_k is 1.  For each window and sigma
    the digits d are the representations, over the columns k != i, of
    -lifted[j] - s_i * lifted[i] - p * sum_{k != i} r_k * lifted[k], whose
    last coordinate is sigma, and each term's coefficient is
    (-1)^(R + sigma) * sigma! / prod d_k! mod p: (-1)^(p*R) = (-1)^R for
    odd p, and mod 2 the sign does not matter.
    """
    if not (0 <= i < support.m and 0 <= j < support.m):
        raise ValueError(f"({i}, {j}) are not interior-monomial indices")
    lifted = support.lifted
    N = support.N
    others = [k for k in range(N) if k != i]
    columns = [lifted[k] for k in others]
    rho = rho_window(N, i)
    windows = [(rho, (0,) * len(lifted[i]))]  # (r, p * sum_{k != i} r_k * lifted[k])
    for k in others:
        r = list(rho)
        r[i], r[k] = -2, 1
        windows.append((tuple(r), tuple(p * x for x in lifted[k])))
    out = {}
    for r, image in windows:
        R = -1 - r[i]
        high = [p * r[k] for k in others]  # s_k = high[c] + d_k, k = others[c]

        def letter(c, d, high=high):
            # with no column (N = 1) _walk still reads the label type here
            return (high[c] + d,) if high else ()

        terms = {}
        for sigma in range(p):
            s_i = -1 - p * R - sigma
            target = [-a - s_i * b - h for a, b, h in zip(lifted[j], lifted[i], image)]
            if min(target) < 0:
                continue  # the columns are nonnegative: no representation
            sign = -1 if (R + sigma) % 2 else 1
            for head, c, tails in representation_blocks(columns, target, p, letter):
                c *= sign
                for tail, w in tails:
                    label = head + tail
                    terms[label[:i] + (s_i,) + label[i:]] = c * w % p
        if terms:
            out[r] = SparseLaurentPoly(N, p, terms)
    return out


def trunc(r, f: SparseLaurentPoly, p) -> SparseLaurentPoly:
    """Keep the terms whose k-th exponent lies in [p*r_k, p*(r_k+1)) for
    every k."""
    r = tuple(r)
    if len(r) != f.nvars:
        raise ValueError("window vector has wrong length")
    kept = {
        exp: c
        for exp, c in f.terms.items()
        if all(p * rk <= s < p * (rk + 1) for rk, s in zip(r, exp))
    }
    return SparseLaurentPoly(f.nvars, f.modulus, kept)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_hypergeometric_solution(
    f: SparseLaurentPoly,
    beta,
    relations,
    lifted,
    mode="mod-p",
    *,
    floor=None,
):
    """Check that f is annihilated by all homogeneity operators with the
    given parameter and by the box operator of every supplied relation.

    mode "mod-p": f carries a prime modulus and every box result must vanish
    identically.  mode "exact-integer": f has integer coefficients and is a
    truncation of an infinite series, and ``floor=(i, lo)`` (required in
    this mode only) says that f holds every term of the series whose i-th
    exponent is >= lo; for the derivative series of G_i at depth D,
    lo = -(D + [i = j]).  A box residual term at exponent m is a failure iff
    m_i >= lo: one of l_plus_i, l_minus_i is 0, so both source exponents
    m+l_plus and m+l_minus have i-th coordinate >= m_i and lie where f equals
    the series.  Residuals below the floor are truncation artifacts.  Integer
    mode also records that all coefficients are exact integers.

    Every relation is validated, once per (lifted, relations) pair, applied
    and counted.  Returns (passed, witnesses).
    """
    if mode not in ("mod-p", "exact-integer"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "mod-p" and f.modulus is None:
        raise ValueError("mod-p mode needs a polynomial with a prime modulus")
    if mode == "exact-integer" and f.modulus is not None:
        raise ValueError("exact-integer mode needs integer coefficients")
    if (mode == "exact-integer") != (floor is not None):
        raise ValueError("exact-integer mode, and only it, takes a floor")
    _check_relations(tuple(map(tuple, lifted)), tuple(map(tuple, relations)))

    euler_bad = [
        coord for coord in range(len(lifted[0]))
        if not euler_apply(lifted, coord, beta, f).is_zero
    ]
    box_bad = []
    for l in relations:
        res = box_apply(l, f)
        if res.is_zero:
            continue
        if mode == "mod-p":
            box_bad.append(tuple(l))
            continue
        i, lo = floor
        for mexp in res.terms:
            if mexp[i] >= lo:
                box_bad.append((tuple(l), mexp))
                break
    passed = not euler_bad and not box_bad
    witnesses = {
        "mode": mode,
        "beta": list(beta),
        "relations_checked": len(relations),
        "euler_failures": euler_bad,
        "box_failures": [list(map(list, b)) if mode != "mod-p" else list(b) for b in box_bad],
    }
    if mode == "exact-integer":
        witnesses["integer_coefficients"] = all(
            isinstance(c, int) for c in f.terms.values()
        )
        passed = passed and witnesses["integer_coefficients"]
    return passed, witnesses


@lru_cache(maxsize=1)
def _check_relations(lifted, relations):
    """Raise ValueError unless every relation is a lattice relation.  The
    suites hand each call the same relation tuple, so it is checked once per
    (lifted, relations) pair; a failed check is not cached, and raises again
    on every call."""
    for l in relations:
        if not is_relation(lifted, l):
            raise ValueError(f"{l} is not a lattice relation")


def rho_truncation(gi: TruncatedSeries, j, p) -> SparseLaurentPoly:
    """The truncation mod p of d/dL_j(log L_i + G_i), gi = G_i, over the
    window rho_window(N, i).  The window holds series terms with -l_i up to
    p, so a G_i of depth below p would drop some of them; it raises
    ValueError."""
    if gi.depth < p:
        raise ValueError(f"depth {gi.depth} < p = {p} truncates the rho window")
    series = derivative_series(gi, j)
    return trunc(rho_window(gi.poly.nvars, gi.i), series.poly.reduce_mod(p), p)


def verify_truncation_identity(support: SupportSet, i, j, p, truncated) -> VerificationReport:
    """Compare the Hasse-Witt entry A_ij mod p with +/- L_i^p times
    ``truncated``, the rho_truncation of d/dL_j(log L_i + G_i).

    Both signs are tried and the matching one(s) recorded; the sign is data,
    not an assumption (for p = 2 the two candidates coincide).
    """
    if not (0 <= i < support.m and 0 <= j < support.m):
        raise ValueError(f"({i}, {j}) are not interior-monomial indices")
    u = support.exponents[i]
    v = support.exponents[j]
    lhs = symbolic_entry(support, u, v, p)
    shift = [0] * support.N
    shift[i] = p
    rhs = truncated.shift(shift)
    signs = []
    if lhs == rhs:
        signs.append("+")
    if lhs == -rhs:
        signs.append("-")
    return VerificationReport(
        statement="prop-3.8",
        passed=bool(signs),
        witnesses={
            "i": i + 1,
            "j": j + 1,
            "p": p,
            "signs": signs,
            "entry": lhs.canonical_str(),
            "rhs_unsigned": rhs.canonical_str(),
        },
    )
