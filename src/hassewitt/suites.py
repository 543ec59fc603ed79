"""Named verification suites over a single support/prime configuration.

Each suite checks one statement family and returns a VerificationReport
whose ``statement`` id matches the CLI ``--suite`` vocabulary.  The suites
of one run_suites call share one _Run, which builds each input they read
once.  Suites are deterministic given (support, p, depth); only the oracle
draws a seeded point.
"""

from __future__ import annotations

import functools
import operator
import random

from .algebra import ExtensionField
from .geometry import (
    SupportSet,
    enumerate_Li,
    enumerate_box_relations,
    in_Li,
)
from .hasse_witt import (
    HypothesisViolation,
    evaluate_matrix,
    generic_det_check,
    oracle_dense_coefficient,
    scaled_matrix,
    symbolic_matrix,
)
from .hypergeometric import (
    derivative_series,
    lucas_windows,
    rho_truncation,
    series_Gi,
    verify_hypergeometric_solution,
    verify_truncation_identity,
)
from .reports import VerificationReport, timed


class _Run:
    """The inputs that the suites of one run share, each built on first use:
    the Hasse-Witt matrix A (suite 3.11), its rescaling B (suites 2.7, 2.8
    and 2.11), the Markov moves (suites 3.4, 3.7 and 3.11) and the series
    G_i per (i, depth) (suites 3.4 and 3.8).  ``depth`` is that of suites
    2.9 and 3.4, p unless given; suite 3.8 reads G_i at depth p."""

    def __init__(self, support: SupportSet, p, depth=None):
        self.support = support
        self.p = p
        self.depth = p if depth is None else depth
        self._series = {}

    @functools.cached_property
    def A(self):
        return symbolic_matrix(self.support, self.p)

    @functools.cached_property
    def B(self):
        return scaled_matrix(self.A)

    @functools.cached_property
    def relations(self):
        return tuple(enumerate_box_relations(self.support.lifted))

    def series(self, i, depth):
        if (i, depth) not in self._series:
            self._series[i, depth] = series_Gi(self.support, i, depth)
        return self._series[i, depth]


def _relation_coverage(relations, N, p):
    """The degree the moves are complete up to, their number, the columns
    they touch, and how many are non-vacuous mod p: a box operator vanishes
    mod p when both l+ and l- have a coordinate >= p."""
    return {
        "degree": max((sum(x for x in l if x > 0) for l in relations), default=0),
        "moves": len(relations),
        "columns_touched": sum(any(l[k] for l in relations) for k in range(N)),
        "nonvacuous_mod_p": sum(max(l) < p or -min(l) < p for l in relations),
    }


def _require_interior_monomial(support: SupportSet, statement):
    # a suite that checks one set or series per interior monomial checks
    # nothing when the support holds none
    if not support.m:
        raise HypothesisViolation(f"{statement} needs an interior monomial in the support")


def suite_2_7(run: _Run):
    B = run.B
    lifted = run.support.lifted
    bad = [
        (i, j, l)
        for i, row in enumerate(B.entries)
        for j, poly in enumerate(row)
        for l in poly.terms
        if not in_Li(lifted, i, l)
    ]
    monomials = sum(len(poly.terms) for row in B.entries for poly in row)
    return VerificationReport(
        statement="lemma-2.7",
        passed=not bad,
        witnesses={"p": run.p, "monomials_checked": monomials, "violations": bad},
    )


def suite_2_8(run: _Run):
    B = run.B
    bad = [
        (i, j, ct)
        for i, row in enumerate(B.entries)
        for j, poly in enumerate(row)
        if (ct := poly.constant_term()) != (1 if i == j else 0)
    ]
    return VerificationReport(
        statement="lemma-2.8",
        passed=not bad,
        witnesses={"p": run.p, "entries_checked": len(B.entries) ** 2, "violations": bad},
    )


def suite_2_9(run: _Run):
    """Prop 2.9 on the depth-bounded sets: elements of L_1, ..., L_M sum to
    zero only when every summand is zero.  Every nonzero enumerated l is
    checked to be in L_i: l_i < 0 <= l_k (k != i) and
    sum_k l_k * lifted[k] = 0, which says that lifted[i] is the convex
    combination of the other lifted columns with weights -l_k/l_i.

    The statement is checked by a weight certificate.  With w_k = |a_k|^2
    for the support exponents a_k, every l in L_i has
    w.l = sum_k l_k * |a_k - a_i|^2 >= -l_i, since sum_k l_k * a_k = 0,
    sum_k l_k = 0 and the a_k are distinct lattice points; so w.l > 0
    unless l = 0.  A tuple that sums to zero has weight 0, the sum of its
    summands' weights, so once every nonzero enumerated l has w.l > 0 no
    tuple of the whole product is a counterexample.  ``counterexamples``
    names each nonzero l with w.l <= 0: every nonzero tuple with zero sum
    holds one.
    """
    support, depth = run.support, run.depth
    _require_interior_monomial(support, "prop-2.9")
    lifted = support.lifted
    weights = support.weights
    sets = [enumerate_Li(lifted, i, depth) for i in range(support.m)]
    nonzero = [(i, l) for i, elems in enumerate(sets) for l in elems if any(l)]
    cert_bad = [(i, l) for i, l in nonzero if not in_Li(lifted, i, l)]
    light = [(i, l) for i, l in nonzero if sum(map(operator.mul, weights, l)) <= 0]
    return VerificationReport(
        statement="prop-2.9",
        passed=not light and not cert_bad,
        witnesses={
            "p": run.p,
            "depth": depth,
            "set_sizes": [len(s) for s in sets],
            "counterexamples": light,
            "certificate_failures": cert_bad,
        },
    )


def suite_2_11(run: _Run):
    return generic_det_check(run.B)


def suite_3_4(run: _Run):
    """Derivative series to the run's depth: integer coefficients, exact
    annihilation by the homogeneity operators with the negated lifted
    column as parameter, and box checks at every exponent on or above the
    truncation floor (see verify_hypergeometric_solution).
    """
    support, p, depth = run.support, run.p, run.depth
    _require_interior_monomial(support, "prop-3.4")
    lifted = support.lifted
    relations = run.relations
    failures = []
    for i in range(support.m):
        gi = run.series(i, depth)
        for j in range(support.m):
            series = derivative_series(gi, j)
            beta = tuple(-x for x in lifted[j])
            passed, detail = verify_hypergeometric_solution(
                series.poly,
                beta,
                relations,
                lifted,
                mode="exact-integer",
                floor=(i, -(depth + (i == j))),
            )
            if not passed:
                failures.append({"i": i + 1, "j": j + 1, "detail": detail})
    return VerificationReport(
        statement="prop-3.4",
        passed=not failures,
        witnesses={
            "p": p,
            "depth": depth,
            "relations_checked": len(relations),
            "relation_coverage": _relation_coverage(relations, support.N, p),
            "failures": failures,
        },
    )


def suite_3_7(run: _Run):
    """The truncation mod p of d/dL_j(log L_i + G_i) over each window
    p*r <= s < p*(r + 1) that holds a term, with r_i >= -2, is a mod-p
    solution.  Each window is built on its own from Lucas's theorem
    (hypergeometric.lucas_windows): -e_i and the e_k - 2*e_i, k != i.
    """
    support, p = run.support, run.p
    _require_interior_monomial(support, "lemma-3.7")
    lifted = support.lifted
    relations = run.relations
    failures = []
    windows_checked = 0
    for i in range(support.m):
        for j in range(support.m):
            windows = lucas_windows(support, i, j, p)
            beta = tuple(-x for x in lifted[j])
            for r in sorted(windows):
                passed, detail = verify_hypergeometric_solution(
                    windows[r], beta, relations, lifted, mode="mod-p"
                )
                if not passed:
                    failures.append(
                        {"i": i + 1, "j": j + 1, "window": list(r), "detail": detail}
                    )
            windows_checked += len(windows)
    return VerificationReport(
        statement="lemma-3.7",
        passed=not failures,
        witnesses={
            "p": p,
            "windows_checked": windows_checked,
            "relations_checked": len(relations),
            "relation_coverage": _relation_coverage(relations, support.N, p),
            "failures": failures,
        },
    )


def suite_3_8(run: _Run):
    """Entrywise comparison of A_ij with the signed, shifted truncation of
    the derivative series; passes when every entry matches and one common
    sign works for all of them.  G_i is read at depth p, the depth the
    truncation needs, whatever the run's depth."""
    support, p = run.support, run.p
    _require_interior_monomial(support, "prop-3.8")
    per_entry = []
    common = {"+", "-"}
    all_match = True
    for i in range(support.m):
        gi = run.series(i, p)
        for j in range(support.m):
            rep = verify_truncation_identity(support, i, j, p, rho_truncation(gi, j, p))
            per_entry.append(rep.witnesses)
            all_match = all_match and rep.passed
            if rep.passed:
                common &= set(rep.witnesses["signs"])
    passed = all_match and bool(common)
    sign = "+" if "+" in common else ("-" if common else None)
    return VerificationReport(
        statement="prop-3.8",
        passed=passed,
        witnesses={"p": p, "sign": sign, "entries": per_entry},
    )


def suite_3_11(run: _Run):
    """Every Hasse-Witt entry mod p is annihilated by the box operators of
    the Markov moves and by the homogeneity operators with the exact
    parameter p*u+ - v+ (congruent to the negated lifted column mod p)."""
    support, p = run.support, run.p
    lifted = support.lifted
    relations = run.relations
    A = run.A
    failures = []
    for i, u in enumerate(A.labels):
        for j, v in enumerate(A.labels):
            up = tuple(u) + (1,)
            vp = tuple(v) + (1,)
            beta = tuple(p * a - b for a, b in zip(up, vp))
            passed, detail = verify_hypergeometric_solution(
                A.entries[i][j], beta, relations, lifted, mode="mod-p"
            )
            if not passed:
                failures.append({"i": i + 1, "j": j + 1, "detail": detail})
    return VerificationReport(
        statement="cor-3.11",
        passed=not failures,
        witnesses={
            "p": p,
            "entries_checked": len(A.labels) ** 2,
            "relations_checked": len(relations),
            "relation_coverage": _relation_coverage(relations, support.N, p),
            "failures": failures,
        },
    )


def oracle_equivalence(support: SupportSet, p, a=1, point=None, seed=0):
    """Cross-check symbolic evaluation against the dense-expansion oracle at
    one specialization point (random when not supplied)."""
    field = ExtensionField(p, a)
    rng = random.Random(seed)
    if point is None:
        pool = list(field.elements())
        point = tuple(rng.choice(pool) for _ in range(support.N))
    A = symbolic_matrix(support, p)
    rows = evaluate_matrix(A, point, field)
    mism = []
    for i, u in enumerate(A.labels):
        for j, v in enumerate(A.labels):
            expected = oracle_dense_coefficient(support, point, p, u, v, field)
            if rows[i][j] != expected:
                mism.append((i, j))
    return VerificationReport(
        statement="oracle-eq-2.2",
        passed=not mism,
        witnesses={
            "p": p,
            "a": a,
            "point": [x.canonical_str() for x in point],
            "entries_checked": len(A.labels) ** 2,
            "mismatches": mism,
        },
    )


_SUITES = {
    "2.7": suite_2_7,
    "2.8": suite_2_8,
    "2.9": suite_2_9,
    "2.11": suite_2_11,
    "3.4": suite_3_4,
    "3.7": suite_3_7,
    "3.8": suite_3_8,
    "3.11": suite_3_11,
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(support: SupportSet, p, which="all", depth=None):
    """Run one suite or all of them, in canonical id order, each timed by
    reports.timed.  The suites share one _Run; ``depth`` is that of suites
    2.9 and 3.4, p when None."""
    names = SUITE_NAMES if which == "all" else (which,)
    unknown = [nm for nm in names if nm not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {unknown}")
    run = _Run(support, p, depth)
    return [timed(_SUITES[nm], run) for nm in names]
