"""Univariate integer polynomial factorization into irreducibles."""

from .zassenhaus import FactorReport, factor_over_Q, factor_over_Z

__all__ = ["FactorReport", "factor_over_Q", "factor_over_Z"]
