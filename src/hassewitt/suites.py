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
    entry_target,
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
    the Hasse-Witt matrix A (suites 3.8 and 3.11), its rescaling B (suites
    2.7, 2.8 and 2.11), the Markov moves and their coverage (suites 3.4,
    3.7 and 3.11) and the series G_i per (i, depth) (suites 3.4 and 3.8).
    ``depth`` is that of suites 2.9 and 3.4, p unless given; suite 3.8
    reads G_i at depth p."""

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

    @functools.cached_property
    def relation_coverage(self):
        """The degree the moves are complete up to, their number, the
        columns they touch, and how many are non-vacuous mod p: a box
        operator vanishes mod p when both l+ and l- have a coordinate >= p."""
        relations, p = self.relations, self.p
        return {
            "degree": max((sum(x for x in l if x > 0) for l in relations), default=0),
            "moves": len(relations),
            "columns_touched": sum(map(any, zip(*relations))),
            "nonvacuous_mod_p": sum(max(l) < p or -min(l) < p for l in relations),
        }

    def series(self, i, depth):
        if (i, depth) not in self._series:
            self._series[i, depth] = series_Gi(self.support, i, depth)
        return self._series[i, depth]


_MOD_P = {"mode": "mod-p"}


def _negated(column):
    return tuple(-x for x in column)


def _check_solutions(run: _Run, statement, cases, own):
    """The report of a suite that checks each of its cases against the
    homogeneity operators and the box operators of the run's moves.  A case
    is (failure label, f, beta, the keyword options of
    verify_hypergeometric_solution).  ``own`` holds the suite's own
    witnesses; it is read after the last case, so a count that the cases
    keep in it is complete."""
    relations, lifted = run.relations, run.support.lifted
    failures = []
    for label, f, beta, options in cases:
        passed, detail = verify_hypergeometric_solution(
            f, beta, relations, lifted, **options
        )
        if not passed:
            failures.append({**label, "detail": detail})
    return VerificationReport(
        statement=statement,
        passed=not failures,
        witnesses={
            **own,
            "p": run.p,
            "relations_checked": len(relations),
            "relation_coverage": run.relation_coverage,
            "failures": failures,
        },
    )


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
    support, depth = run.support, run.depth
    _require_interior_monomial(support, "prop-3.4")
    cases = (
        (
            {"i": i + 1, "j": j + 1},
            derivative_series(run.series(i, depth), j).poly,
            _negated(support.lifted[j]),
            {"mode": "exact-integer", "floor": (i, -(depth + (i == j)))},
        )
        for i in range(support.m)
        for j in range(support.m)
    )
    return _check_solutions(run, "prop-3.4", cases, {"depth": depth})


def suite_3_7(run: _Run):
    """The truncation mod p of d/dL_j(log L_i + G_i) over each window
    p*r <= s < p*(r + 1) that holds a term, with r_i >= -2, is a mod-p
    solution.  Each window is built on its own from Lucas's theorem
    (hypergeometric.lucas_windows): -e_i and the e_k - 2*e_i, k != i.
    """
    support, p = run.support, run.p
    _require_interior_monomial(support, "lemma-3.7")
    own = {"windows_checked": 0}

    def cases():
        for i in range(support.m):
            for j in range(support.m):
                windows = lucas_windows(support, i, j, p)
                own["windows_checked"] += len(windows)
                beta = _negated(support.lifted[j])
                for r in sorted(windows):
                    label = {"i": i + 1, "j": j + 1, "window": list(r)}
                    yield label, windows[r], beta, _MOD_P

    return _check_solutions(run, "lemma-3.7", cases(), own)


def suite_3_8(run: _Run):
    """Entrywise comparison of the run's A_ij with the signed, shifted
    truncation of the derivative series; passes when every entry matches
    and one common sign works for all of them.  Each record states the
    sizes it compared, not the texts.  G_i is read at depth p, the depth
    the truncation needs, whatever the run's depth."""
    support, p = run.support, run.p
    _require_interior_monomial(support, "prop-3.8")
    A = run.A
    # A's rows run over the whole interior set, the support's over exponents[:m]
    rows = [A.labels.index(u) for u in support.exponents[: support.m]]
    per_entry = []
    common = {"+", "-"}
    all_match = True
    for i, row in enumerate(rows):
        gi = run.series(i, p)
        for j, col in enumerate(rows):
            truncated = rho_truncation(gi, j, p)
            rep = verify_truncation_identity(support, i, j, p, A.entries[row][col], truncated)
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
    A, p = run.A, run.p
    cases = (
        ({"i": i + 1, "j": j + 1}, A.entries[i][j], entry_target(u, v, p), _MOD_P)
        for i, u in enumerate(A.labels)
        for j, v in enumerate(A.labels)
    )
    own = {"entries_checked": len(A.labels) ** 2}
    return _check_solutions(run, "cor-3.11", cases, own)


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
