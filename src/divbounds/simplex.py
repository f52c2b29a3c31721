"""Validated probability distributions and coordinate-ratio ranges.

A :class:`Distribution` is a strictly positive, normalized point on the
probability simplex with n >= 2 entries.  Every bound downstream is
parameterized by the :class:`RatioRange` (r, R) of the coordinate ratios
p_i / q_i of a pair of distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyOrTooShort,
    InvalidRange,
    LengthMismatch,
    NegativeEntry,
    NonFinite,
    NonPositiveAlpha,
    NotNormalized,
    ZeroEntry,
    require_finite,
)

#: Acceptance tolerance on |sum - 1|.  Inputs are used as given; no internal
#: renormalization is performed, so results are reproducible bit-for-bit.
SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Distribution:
    """Immutable point on the simplex: all entries > 0, summing to 1."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise EmptyOrTooShort(f"need a 1-d vector of length >= 2, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFinite("distribution entries must be finite")
        if np.any(arr < 0.0):
            raise NegativeEntry("distribution entries must be nonnegative")
        if np.any(arr == 0.0):
            raise ZeroEntry("the simplex excludes zero probabilities")
        if abs(arr.sum() - 1.0) > SUM_TOL:
            raise NotNormalized(f"entries sum to {arr.sum()!r}, not 1 within {SUM_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __len__(self) -> int:
        return self.probs.size

    def __iter__(self):
        return iter(self.probs)


@dataclass(frozen=True, slots=True)
class RatioRange:
    """Attained extremes (r, R) of the coordinate ratios p_i / q_i.

    Because both distributions sum to one, 0 < r <= 1 <= R, with
    r = R = 1 exactly when the distributions coincide.  Any range with
    0 < r <= R < inf can be built; others raise InvalidRange, or NonFinite
    for an infinite R.
    """

    r: float
    R: float

    def __post_init__(self):
        if not 0.0 < self.r <= self.R:
            raise InvalidRange(f"need 0 < r <= R, got {self}")
        if self.R == math.inf:
            raise NonFinite(f"need finite r and R, got {self}")

    @property
    def degenerate(self) -> bool:
        return self.r == self.R

    def swapped(self) -> "RatioRange":
        """Range of q_i / p_i, i.e. (1/R, 1/r)."""
        return RatioRange(1.0 / self.R, 1.0 / self.r)


def normalize(raw) -> Distribution:
    """Scale a nonnegative weight vector onto the simplex.

    Zeros are a hard error: every generator is evaluated at x = p/q and
    several second derivatives diverge at 0.  Use :func:`smooth` for
    empirical count vectors.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise EmptyOrTooShort(f"need at least 2 entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite("weights must be finite")
    if np.any(arr < 0.0):
        raise NegativeEntry("weights must be nonnegative")
    total = arr.sum()
    if not total > 0.0:
        raise ZeroEntry("weights sum to zero")
    probs = arr / total
    if np.any(probs == 0.0):
        raise ZeroEntry("zero weight present; the simplex requires p_i > 0")
    return Distribution(probs)


def smooth(raw, alpha: float) -> Distribution:
    """Additive smoothing: normalize(raw_i + alpha).  Admits zeros in raw."""
    if not np.isfinite(alpha):
        raise NonFinite("alpha must be finite")
    if alpha <= 0.0:
        raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise EmptyOrTooShort(f"need at least 2 entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite("weights must be finite")
    if np.any(arr < 0.0):
        raise NegativeEntry("weights must be nonnegative")
    return normalize(arr + alpha)


@np.errstate(over="ignore")  # NumericOverflow is the only signal
def ratio_range(P: Distribution, Q: Distribution) -> RatioRange:
    """Tight, attained bounds r = min p_i/q_i and R = max p_i/q_i.

    Raises NumericOverflow where R leaves the float range (a q_i near the
    smallest subnormal); r >= min p_i > 0 cannot underflow, since q_i <= 1.
    """
    return pair_range(P, Q)


def pair_range(P: Distribution, Q: Distribution) -> RatioRange:
    """:func:`ratio_range` without its np.errstate, for a caller that has
    entered its own."""
    if len(P) != len(Q):
        raise LengthMismatch(f"lengths differ: {len(P)} vs {len(Q)}")
    r, R = ratio_extremes(P.probs, Q.probs)
    return RatioRange(float(r), require_finite(float(R), "R = max p_i/q_i"))


def ratio_extremes(p, q) -> tuple:
    """(min, max) of p_i / q_i for probability vectors p, q, or row by row
    on (k, n) blocks."""
    ratios = p / q
    return np.minimum.reduce(ratios, axis=-1), np.maximum.reduce(ratios, axis=-1)
