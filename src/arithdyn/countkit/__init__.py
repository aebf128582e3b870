"""Counting toolkit: coverings, zero bounds, interpolation thresholds,
extremal partition combinatorics, bound-shape evaluators, rigorous modular
values, and the bounded-height rational census."""

from .census import (
    CENSUS_FUNCTIONS,
    CensusRecord,
    CensusResult,
    census_records,
    enumerate_rationals,
    make_evaluator,
)
from .cover import cover_count_bound_holds, disk_cover
from .jensen import jensen_zero_bound
from .masser import BivarIntPoly, masser_T_threshold, vanishing_polynomial
from .modular import ModularValue, delta_eval, lambda_eval, modular_eval
from .powerlemma import (
    ExtremalConstruction,
    OracleResult,
    admissible,
    power_lemma_min_X,
    power_lemma_oracle,
)
from .shapes import SHAPE_TAGS, bound_shape

__all__ = [
    "BivarIntPoly",
    "CENSUS_FUNCTIONS",
    "CensusRecord",
    "CensusResult",
    "ExtremalConstruction",
    "ModularValue",
    "OracleResult",
    "SHAPE_TAGS",
    "admissible",
    "bound_shape",
    "census_records",
    "cover_count_bound_holds",
    "delta_eval",
    "disk_cover",
    "enumerate_rationals",
    "jensen_zero_bound",
    "lambda_eval",
    "make_evaluator",
    "masser_T_threshold",
    "modular_eval",
    "power_lemma_min_X",
    "power_lemma_oracle",
    "vanishing_polynomial",
]
