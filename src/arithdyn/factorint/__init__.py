"""Univariate integer polynomial factorization into irreducibles."""

from .capelli import chain
from .zassenhaus import FactorReport, factor_over_Q, factor_over_Z

__all__ = ["FactorReport", "chain", "factor_over_Q", "factor_over_Z"]
