"""Ratio-range estimators built from divergence ratios.

Each estimator is a ratio of divergence values that provably lies inside
the coordinate-ratio range [r, R] of the pair.  Two families are provided:
XI (t = 1..8, from the non-symmetric measure bounds) and ZETA (t = 1..4,
from the symmetric ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, InvalidArgument, VanishingDenominator
from .measures import divergence
from .simplex import Distribution

_DENOM_FLOOR = 1e-300

#: Each estimator family and its size: indices t run over 1..size.
_FAMILY_SIZES = {"XI": 8, "ZETA": 4}


@dataclass(frozen=True)
class EstimatorId:
    family: str  # "XI" | "ZETA"
    t: int

    def __post_init__(self):
        if self.family not in _FAMILY_SIZES:
            raise InvalidArgument(f"unknown family {self.family!r}")
        if not 1 <= self.t <= _FAMILY_SIZES[self.family]:
            raise InvalidArgument(f"{self.family} index must be in 1..{_FAMILY_SIZES[self.family]}")

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


def _xi(t: int, d) -> float:
    sqrt = _sqrt
    if t == 1:
        return _ratio(sqrt(2 * d("F1")), sqrt(d("CHI2_ADJ")) - sqrt(2 * d("F1")))
    if t == 2:
        return _ratio(sqrt(d("KL")) - sqrt(d("F1")), sqrt(d("F1")))
    if t == 3:
        return _ratio(sqrt(d("F2")), sqrt(d("KL_ADJ")) - sqrt(d("F2")))
    if t == 4:
        return _ratio(sqrt(d("CHI2")) - sqrt(2 * d("F2")), sqrt(2 * d("F2")))
    if t == 5:
        return _ratio(4 * d("G1"), d("CHI2_ADJ") - 4 * d("G1"))
    if t == 6:
        return _ratio(d("KL_ADJ") - 2 * d("G1"), 2 * d("G1"))
    if t == 7:
        return _ratio(2 * d("G2"), d("KL") - 2 * d("G2"))
    return _ratio(d("CHI2") - 4 * d("G2"), 4 * d("G2"))


def _zeta(t: int, d) -> float:
    if t == 1:
        return _ratio(d("J") - d("KL_ADJ"), d("KL_ADJ"))
    if t == 2:
        return _ratio(d("KL"), d("J") - d("KL"))
    if t == 3:
        return _ratio(2 * d("I"), d("KL_ADJ") - 2 * d("I"))
    return _ratio(d("KL") - 2 * d("I"), 2 * d("I"))


def estimate(est: EstimatorId, P: Distribution, Q: Distribution) -> float:
    """Evaluate one estimator.

    Raises DegeneratePair on a coordinatewise-equal pair, and on a pair so
    close to it that a divergence under a square root rounds below zero.
    """
    if len(P) == len(Q) and coincide(P.probs, Q.probs):
        raise DegeneratePair("estimators are 0/0 at P = Q")

    cache = {}

    def d(measure: str) -> float:
        if measure not in cache:
            cache[measure] = divergence(measure, P, Q)
        return cache[measure]

    return estimate_from(est, d)


def coincide(p, q):
    """Whether p and q agree coordinatewise to 1e-14 (estimators are 0/0
    there); on (k, n) blocks, row by row."""
    return np.all(np.abs(p - q) <= 1e-14, axis=-1)


def estimate_from(est: EstimatorId, d):
    """:func:`estimate` of a pair that does not coincide, from d(measure),
    the pair's divergence values.  d may give arrays of pairs instead: the
    estimates are then an array, each entry bit for bit its float value,
    and nan where the float form raises."""
    if est.family == "XI":
        return _xi(est.t, d)
    return _zeta(est.t, d)


def all_estimators() -> tuple:
    """Every EstimatorId in both families, in (family, t) order."""
    return tuple(EstimatorId(family, t) for family, size in _FAMILY_SIZES.items() for t in range(1, size + 1))
