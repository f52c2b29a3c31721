"""Exception hierarchy shared by all divbounds modules."""

import math

import numpy as np


class DivBoundsError(Exception):
    """Base class for all errors raised by this package."""


class EmptyOrTooShort(DivBoundsError):
    """Input vector has fewer than two entries."""


class NegativeEntry(DivBoundsError):
    """Input vector contains a negative weight."""


class ZeroEntry(DivBoundsError):
    """Normalized distribution would contain an exact zero."""


class NonFinite(DivBoundsError):
    """A NaN or infinity appeared where a finite real is required."""


class NotNormalized(DivBoundsError):
    """Distribution entries do not sum to 1 within tolerance."""


class NonPositiveAlpha(DivBoundsError):
    """Smoothing constant must be strictly positive."""


class LengthMismatch(DivBoundsError):
    """The two distributions have different support sizes."""


class InvalidRange(DivBoundsError):
    """Ratio range violates 0 < r <= R (or the bound's extra hypotheses)."""


class UnknownMeasure(DivBoundsError):
    """Measure identifier not recognized."""


class NonPositiveX(DivBoundsError):
    """Generator argument must lie in (0, inf)."""


class NotTabulated(DivBoundsError):
    """No tabulated global extremum for this (measure, s) pair."""


class DegeneratePair(DivBoundsError):
    """P equals Q coordinatewise; ratio estimators are 0/0 there."""


class VanishingDenominator(DivBoundsError):
    """An estimator denominator underflowed to (near) zero."""


class UnknownSuite(DivBoundsError):
    """Verification suite identifier not recognized."""


class InvalidArgument(DivBoundsError, ValueError):
    """An argument lies outside its allowed values (a config field, an
    estimator family or index)."""


class NumericOverflow(DivBoundsError, OverflowError):
    """A float result overflowed where a finite value is required."""


def require_finite(value, what: str, *args):
    """`value` (a float or an array) unchanged, or NumericOverflow when any
    entry is inf or nan: a bound built on it would compare as nan.  The
    message names `what`, formatted with args (``str.format``) only when
    it is raised."""
    ok = math.isfinite(value) if isinstance(value, float) else bool(np.isfinite(value).all())
    if not ok:
        raise NumericOverflow(f"{what.format(*args) if args else what} leaves the float range")
    return value


def real_array(values, what: str, convert=np.asarray) -> np.ndarray:
    """convert(values, dtype=np.float64), or InvalidArgument (a ValueError)
    where an entry is not a real number; convert=np.array always copies."""
    try:
        return convert(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidArgument(f"{what} must be real numbers ({exc})") from None


def require_finite_s(s):
    """The power-family parameter s unchanged, NonFinite when it is nan or
    infinite, or InvalidArgument when it is not a real number."""
    try:
        finite = math.isfinite(s)
    except TypeError:
        raise InvalidArgument(f"s must be a real number, got {s!r}") from None
    if not finite:
        raise NonFinite(f"s must be finite, got {s}")
    return s
