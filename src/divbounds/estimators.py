"""Ratio-range estimators built from divergence ratios.

Each estimator is a ratio of divergence values that provably lies inside
the coordinate-ratio range [r, R] of the pair.  Two families are provided:
XI (t = 1..8, from the non-symmetric measure bounds) and ZETA (t = 1..4,
from the symmetric ones).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, InvalidArgument, VanishingDenominator
from .measures import divergence
from .simplex import Distribution, memoized, pair_vector

_DENOM_FLOOR = 1e-300


@dataclass(frozen=True)
class EstimatorId:
    family: str  # "XI" | "ZETA"
    t: int

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in _FORMULAS:
            raise InvalidArgument(f"unknown family {self.family!r}")
        try:
            in_range = not isinstance(self.t, bool) and 1 <= operator.index(self.t) <= len(_FORMULAS[self.family])
        except TypeError:  # an index that is not an integer
            in_range = False
        if not in_range:
            raise InvalidArgument(f"{self.family} index must be in 1..{len(_FORMULAS[self.family])}")

    def __str__(self) -> str:
        return f"{self.family.lower()}{self.t}"


def _ratio(num, den):
    """num / den; on arrays, nan where the scalar form raises."""
    if isinstance(den, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(np.abs(den) > _DENOM_FLOOR, num / den, np.nan)
    if abs(den) <= _DENOM_FLOOR:
        raise VanishingDenominator(f"denominator {den!r} underflowed")
    return num / den


def _sqrt(v):
    """The square root of a divergence; on arrays, nan where the scalar form
    raises (np.sqrt is correctly rounded, as math.sqrt is)."""
    if isinstance(v, np.ndarray):
        with np.errstate(invalid="ignore"):
            return np.sqrt(v)
    if v < 0.0:
        raise DegeneratePair(f"divergence {v!r} rounded below zero: the pair is too close to P = Q")
    return math.sqrt(v)


#: Each family's formulas, xi_t or zeta_t at index t - 1, from d(measure),
#: a pair's divergence values; the family sizes are their counts.
_FORMULAS = {
    "XI": (
        lambda d: _ratio(_sqrt(2 * d("F1")), _sqrt(d("CHI2_ADJ")) - _sqrt(2 * d("F1"))),
        lambda d: _ratio(_sqrt(d("KL")) - _sqrt(d("F1")), _sqrt(d("F1"))),
        lambda d: _ratio(_sqrt(d("F2")), _sqrt(d("KL_ADJ")) - _sqrt(d("F2"))),
        lambda d: _ratio(_sqrt(d("CHI2")) - _sqrt(2 * d("F2")), _sqrt(2 * d("F2"))),
        lambda d: _ratio(4 * d("G1"), d("CHI2_ADJ") - 4 * d("G1")),
        lambda d: _ratio(d("KL_ADJ") - 2 * d("G1"), 2 * d("G1")),
        lambda d: _ratio(2 * d("G2"), d("KL") - 2 * d("G2")),
        lambda d: _ratio(d("CHI2") - 4 * d("G2"), 4 * d("G2")),
    ),
    "ZETA": (
        lambda d: _ratio(d("J") - d("KL_ADJ"), d("KL_ADJ")),
        lambda d: _ratio(d("KL"), d("J") - d("KL")),
        lambda d: _ratio(2 * d("I"), d("KL_ADJ") - 2 * d("I")),
        lambda d: _ratio(d("KL") - 2 * d("I"), 2 * d("I")),
    ),
}


def estimate(est: EstimatorId, P: Distribution, Q: Distribution) -> float:
    """Evaluate one estimator.

    Raises InvalidArgument where est is not an EstimatorId, and
    DegeneratePair on a coordinatewise-equal pair, and on a pair so close
    to it that a divergence under a square root rounds below zero.  The
    coincide test on d = p - q, as each divergence, is memoized.
    """
    if not isinstance(est, EstimatorId):
        raise InvalidArgument(f"not an EstimatorId: {est!r}")
    if len(P) == len(Q) and memoized(P, Q, coincide, lambda: bool(coincide(pair_vector(P, Q, "d")))):
        raise DegeneratePair("estimators are 0/0 at P = Q")
    return estimate_from(est, functools.cache(lambda measure: divergence(measure, P, Q)))


def coincide(d):
    """Whether p and q agree coordinatewise to 1e-14 (estimators are 0/0
    there), from d = p - q; on (k, n) blocks, row by row."""
    return np.all(np.abs(d) <= 1e-14, axis=-1)


def estimate_from(est: EstimatorId, d):
    """:func:`estimate` of a pair that does not coincide, from d(measure),
    the pair's divergence values.  d may give arrays of pairs instead: the
    estimates are then an array, each entry bit for bit its float value,
    and nan where the float form raises."""
    return _FORMULAS[est.family][est.t - 1](d)


def all_estimators() -> tuple:
    """Every EstimatorId in both families, in (family, t) order."""
    return tuple(EstimatorId(family, t) for family, formulas in _FORMULAS.items() for t in range(1, len(formulas) + 1))
