from .scalars import DiscriminantMismatch, QuadScalar, Rational, parse_quad
from .exppoly import ExpPolynomial, NotClosedFormError
from .series import GWSeries
from .linalg import (
    ExactMatrix,
    SingularMatrixError,
    eigen_small,
    exact_solve,
    sort_spectrum,
)

__all__ = [
    "DiscriminantMismatch",
    "QuadScalar",
    "Rational",
    "parse_quad",
    "ExpPolynomial",
    "NotClosedFormError",
    "GWSeries",
    "ExactMatrix",
    "SingularMatrixError",
    "eigen_small",
    "exact_solve",
    "sort_spectrum",
]
