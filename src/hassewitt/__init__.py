"""Exact-arithmetic toolkit for symbolic Hasse-Witt matrices of sparse
projective hypersurface families and the hypergeometric series attached to
their interior monomials."""

from .algebra import (
    ExtensionField,
    ExtensionFieldElement,
    SparseLaurentPoly,
    det_leibniz,
)
from .geometry import (
    SupportSet,
    enumerate_interior,
    enumerate_Li,
    enumerate_representations,
    kernel_basis,
    representation_coefficients,
)
from .hasse_witt import (
    HypothesisViolation,
    evaluate_matrix,
    generic_det_check,
    oracle_dense_coefficient,
    scaled_matrix,
    symbolic_entry,
    symbolic_entry_text,
    symbolic_matrix,
)
from .hypergeometric import (
    box_apply,
    derivative_series,
    euler_failures,
    lucas_windows,
    rho_truncation,
    series_Gi,
    trunc,
    verify_hypergeometric_solution,
    verify_truncation_identity,
)
from .reports import VerificationReport
from .suites import run_suites

__all__ = [
    "ExtensionField",
    "ExtensionFieldElement",
    "SparseLaurentPoly",
    "SupportSet",
    "HypothesisViolation",
    "VerificationReport",
    "box_apply",
    "derivative_series",
    "det_leibniz",
    "enumerate_interior",
    "enumerate_Li",
    "enumerate_representations",
    "euler_failures",
    "evaluate_matrix",
    "generic_det_check",
    "kernel_basis",
    "lucas_windows",
    "oracle_dense_coefficient",
    "representation_coefficients",
    "rho_truncation",
    "run_suites",
    "scaled_matrix",
    "series_Gi",
    "symbolic_entry",
    "symbolic_entry_text",
    "symbolic_matrix",
    "trunc",
    "verify_hypergeometric_solution",
    "verify_truncation_identity",
]
