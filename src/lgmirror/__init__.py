"""Exact genus-zero mirror-symmetry checks for invertible polynomials."""

from .amodel import four_point_report
from .bmodel import good_basis_check, perturbative_expand, sg_four_point
from .jacobi import JacobiRing
from .mirror import admissible_target
from .poly import (
    AtomicSummand,
    InvertiblePolynomial,
    NotInvertibleShape,
    PolynomialSyntaxError,
)

__all__ = [
    "AtomicSummand",
    "InvertiblePolynomial",
    "JacobiRing",
    "NotInvertibleShape",
    "PolynomialSyntaxError",
    "admissible_target",
    "four_point_report",
    "good_basis_check",
    "perturbative_expand",
    "sg_four_point",
]

__version__ = "0.1.0"
