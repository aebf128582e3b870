"""Univariate integer polynomial factorization into irreducibles."""

from .capelli import compose_irreducible, quadratic_chain
from .zassenhaus import FactorReport, factor_over_Q, factor_over_Z

__all__ = ["FactorReport", "compose_irreducible", "factor_over_Q", "factor_over_Z",
           "quadratic_chain"]
