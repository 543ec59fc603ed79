"""The symbolic Hasse-Witt matrix of a sparse hypersurface family, its
row/column rescaling with unit constant terms on the diagonal, generic
invertibility of the determinant, evaluation at points over GF(q), rank
sweeps along one coordinate, and an independent dense-expansion oracle.

Entry (u, v) is the coefficient of x^{p*u - v} in f^{p-1}, where f is the
family with one indeterminate coefficient per support monomial; it is
computed by enumerating the constrained representations of the lifted target
p*u+ - v+, each with its multinomial coefficient mod p, rather than by
expanding f^{p-1} symbolically.
"""

from __future__ import annotations

import operator
from collections import namedtuple

from .algebra import (
    ExtensionField,
    SparseLaurentPoly,
    det_leibniz,
    evaluate_laurent,
    power_format,
    specialize,
)
from .geometry import (
    SupportSet,
    representation_blocks,
    representation_coefficients,
)
from .reports import Text, VerificationReport


class HypothesisViolation(Exception):
    """Raised when an operation requires the interior monomial set to be
    contained in the support and it is not."""


def _require_interior(support: SupportSet, what):
    if not support.u_contained:
        raise HypothesisViolation(
            f"{what} requires every interior monomial to appear in the "
            f"support (only {support.m} of "
            f"{len(support.interior_set())} present)"
        )


def symbolic_entry(support: SupportSet, u, v, p) -> SparseLaurentPoly:
    """Coefficient of x^{p*u - v} in f^{p-1}, as a polynomial mod p in the
    indeterminate coefficients.  Defined for any u, v in the interior set,
    whether or not they belong to the support.
    """
    return SparseLaurentPoly(
        support.N, p, representation_coefficients(support.lifted, _target(u, v, p), p)
    )


def symbolic_entry_text(support: SupportSet, u, v, p) -> Text:
    """symbolic_entry(support, u, v, p).canonical_str() as a Text, with no
    polynomial: the representation walk runs as the Text is read, each
    term's text is its coefficient and its walk label, and the terms of one
    block of the walk (one prefix at its cut) make one piece.
    """
    return Text(_entry_pieces(support.lifted, _target(u, v, p), p))


def _entry_pieces(lifted, target, p):
    separator = ""
    for head, c, tails in representation_blocks(lifted, target, p, _power_text):
        yield separator + " + ".join([f"{c * w % p}{head}{tail}" for tail, w in tails])
        separator = " + "
    if not separator:
        yield "0"


def _power_text(k, e):
    return power_format(k) % e


def _target(u, v, p):
    """The lifted target p*u+ - v+ of entry (u, v)."""
    return tuple(p * a - b for a, b in zip((*u, 1), (*v, 1)))


class HWMatrixSymbolic(namedtuple("HWMatrixSymbolic", "support p labels entries")):
    """The symbolic matrix of ``support`` at ``p``: ``labels`` are the
    interior vectors indexing rows and columns, ``entries`` a tuple of tuples
    of SparseLaurentPoly."""

    __slots__ = ()


def symbolic_matrix(support: SupportSet, p) -> HWMatrixSymbolic:
    """The full matrix over U x U, U = interior set in lex order."""
    labels = tuple(support.interior_set())
    entries = tuple(
        tuple(symbolic_entry(support, u, v, p) for v in labels) for u in labels
    )
    return HWMatrixSymbolic(support=support, p=p, labels=labels, entries=entries)


def scaled_matrix(A: HWMatrixSymbolic) -> HWMatrixSymbolic:
    """Rescale row i by L_i^{-p} and column j by L_j.  By Lemmas 2.7 and 2.8
    the result has every monomial exponent in L_i and constant term
    delta_ij; suites 2.7 and 2.8 check both.
    """
    support = A.support
    _require_interior(support, "the rescaled matrix")
    p = A.p
    entries = []
    for i, row in enumerate(A.entries):
        scaled = []
        for j, poly in enumerate(row):
            delta = [0] * support.N
            delta[i] -= p
            delta[j] += 1
            scaled.append(poly.shift(delta))
        entries.append(tuple(scaled))
    return A._replace(entries=tuple(entries))


def generic_det(support: SupportSet, p):
    """Generic invertibility by expansion: (ct, text_A, text_B), where ct is
    the constant term of det B, the determinant of the rescaled matrix B,
    and the Texts of det A and det B come from one walk over the packed
    determinant (algebra.PackedPoly.pieces): text_A reads it and keeps det
    B's pieces, so it is read first.  ct = 1 is Prop 2.11, and it makes det
    A a nonzero polynomial (Thm 2.3).  generic_det_check decides the same
    statement with no expansion; this is its independent reference.

    Only det A is expanded, and no polynomial for det A or det B is built.
    B is A with row i multiplied by L_i^{-p} and column j by L_j, so by
    multilinearity of the determinant det B = det A * L^delta exactly, with
    delta 1 - p on the m interior coordinates and 0 elsewhere: ct is det A's
    coefficient at L^{-delta}, and det B's text is det A's shifted by delta.
    """
    _require_interior(support, "the generic determinant check")
    det_A = det_leibniz(symbolic_matrix(support, p).entries)
    delta = tuple(1 - p if k < support.m else 0 for k in range(support.N))
    ct = det_A.coefficient(tuple(-x for x in delta))
    pieces = det_A.pieces([(0,) * len(delta), delta])
    kept = []  # text_B iterates over the list once text_A has filled it

    def pieces_A():
        for piece_A, piece_B in pieces:
            kept.append(piece_B)
            yield piece_A

    return ct, Text(pieces_A()), Text(kept)


def generic_det_check(B: HWMatrixSymbolic) -> VerificationReport:
    """Prop 2.11 by the paper's proof, with no determinant expanded, for
    the rescaled matrix B = scaled_matrix(A).  By Lemma 2.7 every term of
    row i of B has its exponent in L_i, and with the weights w_k = |a_k|^2
    every nonzero l in L_i has w.l > 0 (suite 2.9).  A product
    B_{0,s(0)} ... B_{m-1,s(m-1)} then reaches exponent 0 only through the
    constant terms of its factors, so ct(det B) = det(ct B), which Lemma
    2.8 (ct B = I) makes 1.

    The report checks on B itself the two facts the argument uses: every
    nonzero exponent l of every B_ij has w.l > 0 (``light_terms`` lists each
    (i, j, l) that has not, 0-based), and det(ct B) = 1 mod p.  With no
    light term, det(ct B) != 0 makes det B, and with it det A = det B *
    L^-delta, nonzero (Thm 2.3).
    """
    support, p, rows = B.support, B.p, B.entries
    weights = support.weights
    light = [
        (i, j, l)
        for i, row in enumerate(rows)
        for j, poly in enumerate(row)
        for l in poly.terms
        if any(l) and sum(map(operator.mul, weights, l)) <= 0
    ]
    ct = _det_mod_p([[poly.constant_term() for poly in row] for row in rows], p)
    return VerificationReport(
        statement="prop-2.11",
        passed=not light and ct == 1,
        witnesses={
            "p": p,
            "matrix_size": support.m,
            "det_B_constant_term": ct,
            "det_A_nonzero": not light and ct != 0,
            "terms_checked": sum(len(poly.terms) for row in rows for poly in row),
            "light_terms": light,
        },
    )


def _det_mod_p(rows, p):
    """The determinant mod p of a square matrix of ints, by Gaussian
    elimination."""
    rows = [[x % p for x in row] for row in rows]
    det = 1
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col] % p
        inverse = pow(rows[col][col], -1, p)
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] * inverse % p
            if factor:
                rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], rows[col])]
    return det


def matrix_rank(rows):
    """Rank over GF(q) by Gaussian elimination with first-nonzero pivoting."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def evaluate_matrix(A: HWMatrixSymbolic, point, field: ExtensionField):
    """The rows of A with the specialization point substituted into every
    entry: a tuple of tuples of elements of ``field``.  A point of the wrong
    length or a field of the wrong characteristic raises ValueError
    (algebra.specialize)."""
    return tuple(tuple(poly.evaluate(point, field) for poly in row) for row in A.entries)


def sweep_ranks(A: HWMatrixSymbolic, point, k, field: ExtensionField):
    """Ranks of A at ``point`` with coordinate k replaced by each element of
    ``field``, in the order of ``field.elements()``.

    Every entry is specialized once to a Laurent polynomial in x_k, then
    evaluated by Horner's rule at each element, both on discrete logs (see
    algebra.specialize): one log dot product and one Zech lookup per term,
    and one log addition and at most one Zech lookup per Horner step, below
    q*m^2*p steps in all.  The ranks are taken by matrix_rank on element
    objects, whose few products need no log kernel.  As a witness, the
    specialized entries at the base value point[k] must equal
    evaluate_matrix at ``point``, which leaves coordinate 0 free instead of
    k; a mismatch raises, since it would mean the substitution is broken.
    The witness runs the same per-term kernel, so a fault in that kernel
    shows only against oracle_dense_coefficient.
    A point of the wrong length or a field of the wrong characteristic
    raises ValueError, as in evaluate_matrix.
    """
    special = [[specialize(poly, point, k, field) for poly in row] for row in A.entries]
    at_base = tuple(
        tuple(evaluate_laurent(c, point[k], field) for c in row) for row in special
    )
    if at_base != evaluate_matrix(A, point, field):
        raise RuntimeError("specialized entries disagree with evaluate_matrix")
    return [
        matrix_rank([[evaluate_laurent(c, x, field) for c in row] for row in special])
        for x in field.elements()
    ]


def oracle_dense_coefficient(support: SupportSet, point, p, u, v, field):
    """Independent oracle: expand f^{p-1} by p-2 successive sparse
    multiplications in the x-variables over GF(q) and read off the
    coefficient of x^{p*u - v}.  Shares no code with symbolic_entry.
    """
    if field.p != p:
        raise ValueError("field characteristic mismatch")
    f = {}
    for a, lam in zip(support.exponents, point):
        if lam:
            f[a] = lam
    power = dict(f)
    for _ in range(p - 2):
        power = _dense_mul(power, f, field)
    key = tuple(p * x - y for x, y in zip(u, v))
    return power.get(key, field.zero())


def _dense_mul(f, g, field):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            prev = out.get(key)
            out[key] = c1 * c2 if prev is None else prev + c1 * c2
    return {k: c for k, c in out.items() if c}
