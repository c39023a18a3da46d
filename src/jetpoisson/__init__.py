"""Exact verification of Poisson-Lie structures on truncated jet groups,
their Lie-bialgebra / r-matrix counterparts, the induced brackets on
weight-lambda densities, and the quantum semigroups deforming them.

Everything is checked as an exact identity of rational Laurent polynomials;
no floating point anywhere.  The one arithmetic kernel is pure Python and
lives in ``jetpoisson.coeffpoly``; ``BACKEND`` names it.
"""

from .coeffpoly import LaurentPoly, Variable, VarKind, param

__all__ = [
    "BACKEND",
    "LaurentPoly",
    "Variable",
    "VarKind",
    "param",
]

BACKEND = "python"
