"""Symmetric and non-symmetric information divergences with certified
power-family sandwich bounds and a randomized verification harness."""

from .simplex import Distribution, RatioRange, normalize, ratio_range, smooth
from .generators import (
    CATALOG_IDS,
    Generator,
    Rational,
    catalog,
    check_generator,
    eval_csiszar,
    get_generator,
    phi_generator,
)
from .measures import MEASURE_IDS, SYMMETRIC_IDS, divergence, phi_s
from .type_s_bounds import TypeSBoundSet, bound_set
from .csiszar_bounds import (
    BoundReport,
    DifferenceReport,
    GlobalExtremum,
    MMBounds,
    a_cf,
    b_cf,
    bound_interval,
    difference_bounds,
    e_cf,
    g_eval,
    global_extrema,
    mm_closed,
    mm_exact,
    mm_numeric,
)
from .estimators import EstimatorId, all_estimators, estimate
from .harness import PairTable, SuiteReport, TrialConfig, random_pair, run_all, run_suite, suite_ids
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Distribution",
    "RatioRange",
    "normalize",
    "smooth",
    "ratio_range",
    "Generator",
    "Rational",
    "CATALOG_IDS",
    "catalog",
    "get_generator",
    "phi_generator",
    "eval_csiszar",
    "check_generator",
    "MEASURE_IDS",
    "SYMMETRIC_IDS",
    "divergence",
    "phi_s",
    "TypeSBoundSet",
    "bound_set",
    "MMBounds",
    "BoundReport",
    "DifferenceReport",
    "GlobalExtremum",
    "g_eval",
    "mm_numeric",
    "mm_closed",
    "mm_exact",
    "global_extrema",
    "e_cf",
    "a_cf",
    "b_cf",
    "bound_interval",
    "difference_bounds",
    "EstimatorId",
    "estimate",
    "all_estimators",
    "TrialConfig",
    "PairTable",
    "SuiteReport",
    "random_pair",
    "run_suite",
    "run_all",
    "suite_ids",
    "errors",
]
