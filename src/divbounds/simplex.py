"""Validated probability distributions, coordinate-ratio ranges, and the
memo of the latest pair.

A :class:`Distribution` is a strictly positive, normalized point on the
probability simplex with n >= 2 entries; its entries are its own: a
read-only float64 array that owns its data, as :func:`normalize` makes, is
adopted, and anything else copied.  Every bound downstream is
parameterized by the :class:`RatioRange` (r, R) of the coordinate ratios
p_i / q_i of a pair of distributions.

The public per-pair functions (:func:`ratio_range`, ``divergence``,
``phi_s``, ``eval_csiszar`` and ``estimate``'s coincide test) keep what
they compute on the latest pair (P, Q) in one slot (:func:`memoized`), so
each of a pair's sums is computed once however often it is asked for.
``bound_interval`` reads the range and phi_s from the slot too, but sums
its C_f on every call, for the reason its docstring gives.  The slot
holds the pair through weak references, matched by identity, its Python
scalars, and the pair's two vectors (:func:`pair_vector`): the ratios
x = p / q and the difference d = p - q, each formed at most once and
read-only, from which every per-pair sum is built.  It keeps no pair alive,
and is dropped with its pair, so no vector outlives the pair.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyOrTooShort,
    InvalidArgument,
    InvalidRange,
    LengthMismatch,
    NegativeEntry,
    NonFinite,
    NonPositiveAlpha,
    NotNormalized,
    ZeroEntry,
    real_array,
    require_finite,
)

#: Acceptance tolerance on |sum - 1|.  Inputs are used as given; no internal
#: renormalization is performed, so results are reproducible bit-for-bit.
SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Distribution:
    """Immutable point on the simplex: all entries > 0, summing to 1.

    ``probs`` is the given array itself when it is a read-only float64
    ndarray that owns its data, and a read-only copy of anything else (a
    writable array, a view, a list), so writing to the caller's array
    changes neither the distribution nor a value memoized on it."""

    probs: np.ndarray

    def __post_init__(self):
        arr = self.probs
        if not (type(arr) is np.ndarray and arr.dtype == np.float64 and arr.flags.owndata and not arr.flags.writeable):
            arr = real_array(arr, "distribution entries", np.array)
        if arr.ndim != 1 or arr.size < 2:
            raise EmptyOrTooShort(f"need a 1-d vector of length >= 2, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFinite("distribution entries must be finite")
        if np.any(arr < 0.0):
            raise NegativeEntry("distribution entries must be nonnegative")
        if np.any(arr == 0.0):
            raise ZeroEntry("the simplex excludes zero probabilities")
        if abs(arr.sum() - 1.0) > SUM_TOL:
            raise NotNormalized(f"entries sum to {float(arr.sum())!r}, not 1 within {SUM_TOL}")
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
    r = R = 1 exactly when the distributions coincide; but they sum to one
    only to rounding, so a pair can give r <= R < 1 or 1 < r <= R.  Any
    range with 0 < r <= R < inf can be built; others raise InvalidRange,
    or NonFinite for an infinite R.
    """

    r: float
    R: float

    def __post_init__(self):
        try:
            ordered = 0.0 < self.r <= self.R
        except TypeError:  # r or R is not a number
            ordered = False
        if not ordered:
            raise InvalidRange(f"need 0 < r <= R, got {self}")
        if self.R == math.inf:
            raise NonFinite(f"need finite r and R, got {self}")

    @property
    def degenerate(self) -> bool:
        return self.r == self.R

    def swapped(self) -> "RatioRange":
        """Range of q_i / p_i, i.e. (1/R, 1/r)."""
        return RatioRange(1.0 / self.R, 1.0 / self.r)


def _weights(raw) -> np.ndarray:
    """raw as a float64 array, checked as a weight vector: 1-d with at
    least 2 entries, finite and nonnegative."""
    arr = real_array(raw, "weights")
    if arr.ndim != 1 or arr.size < 2:
        raise EmptyOrTooShort(f"need at least 2 entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite("weights must be finite")
    if np.any(arr < 0.0):
        raise NegativeEntry("weights must be nonnegative")
    return arr


def normalize(raw) -> Distribution:
    """Scale a nonnegative weight vector onto the simplex.

    Zeros are a hard error: every generator is evaluated at x = p/q and
    several second derivatives diverge at 0.  Use :func:`smooth` for
    empirical count vectors.  The quotient is made read-only here, so the
    Distribution adopts it without a copy.  Finite weights whose sum
    overflows raise NonFinite.
    """
    arr = _weights(raw)
    with np.errstate(over="ignore"):  # NonFinite is the only signal
        total = arr.sum()
    if not math.isfinite(total):
        raise NonFinite("weights must sum to a finite value")
    if not total > 0.0:
        raise ZeroEntry("weights sum to zero")
    probs = arr / total
    if np.any(probs == 0.0):
        raise ZeroEntry("zero weight present; the simplex requires p_i > 0")
    probs.setflags(write=False)
    return Distribution(probs)


def smooth(raw, alpha: float) -> Distribution:
    """Additive smoothing: normalize(raw_i + alpha).  Admits zeros in raw.

    raw is checked before alpha is added, since alpha can lift a negative
    weight; normalize checks the sum again, which can overflow to inf.
    Raises InvalidArgument where alpha is not a real number."""
    try:
        finite = math.isfinite(alpha)
    except TypeError:
        raise InvalidArgument(f"alpha must be a real number, got {alpha!r}") from None
    if not finite:
        raise NonFinite("alpha must be finite")
    if alpha <= 0.0:
        raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")
    with np.errstate(over="ignore"):  # an inf here is normalize's NonFinite
        lifted = _weights(raw) + alpha
    return normalize(lifted)


def ratio_range(P: Distribution, Q: Distribution) -> RatioRange:
    """Tight, attained bounds r = min p_i/q_i and R = max p_i/q_i.

    Raises NumericOverflow where R leaves the float range (a q_i near the
    smallest subnormal); r >= min p_i > 0 cannot underflow, since q_i <= 1.
    Reduced once from x = p / q (:func:`pair_vector`) for the latest pair.
    """
    x = pair_vector(P, Q, "x")

    def reduce():
        r, R = ratio_extremes(x)
        return RatioRange(float(r), require_finite(float(R), "R = max p_i/q_i"))

    return memoized(P, Q, ratio_range, reduce)


def _require_pair(P, Q):
    """InvalidArgument unless P and Q are both Distributions."""
    if not (isinstance(P, Distribution) and isinstance(Q, Distribution)):
        raise InvalidArgument(f"P and Q must be Distributions, got {type(P).__name__} and {type(Q).__name__}")


def pair_probs(P: Distribution, Q: Distribution) -> tuple:
    """(p, q), the probability vectors of a pair; raises InvalidArgument
    where P or Q is not a Distribution, and LengthMismatch where their
    lengths differ."""
    _require_pair(P, Q)
    p, q = P.probs, Q.probs
    if p.size != q.size:
        raise LengthMismatch(f"lengths differ: {p.size} vs {q.size}")
    return p, q


def ratio_extremes(x) -> tuple:
    """(min, max) of a ratio vector x = p / q, or row by row on (k, n) blocks."""
    return np.minimum.reduce(x, axis=-1), np.maximum.reduce(x, axis=-1)


class _LatestPair:
    """What is computed on one pair, held through weak references to it:
    scalars in values, and the vectors x and d once formed (else None)."""

    __slots__ = ("p", "q", "values", "x", "d")

    def __init__(self, P: Distribution, Q: Distribution):
        self.p = weakref.ref(P, _drop)
        self.q = weakref.ref(Q, _drop)
        self.values = {}
        self.x = self.d = None


_latest = None


def _drop(ref):
    """Weak-reference callback: the slot goes when its P or its Q dies."""
    global _latest
    memo = _latest
    if memo is not None and (memo.p is ref or memo.q is ref):
        _latest = None


def _slot(P: Distribution, Q: Distribution) -> _LatestPair:
    """The slot of the pair (P, Q), a new one if it is not the latest;
    InvalidArgument where P or Q is not a Distribution."""
    global _latest
    memo = _latest
    if memo is None or memo.p() is not P or memo.q() is not Q:
        _require_pair(P, Q)
        memo = _latest = _LatestPair(P, Q)
    return memo


def memoized(P: Distribution, Q: Distribution, key, compute):
    """compute(), or the value it gave for key on this very pair (P, Q).

    One slot holds the latest pair, matched by identity through weak
    references: it keeps no pair alive, and a dead pair never matches a new
    object at its address; a callback drops the slot when P or Q dies.  A
    new pair replaces it.  The slot is read once a call, so threads that
    interleave pairs only miss it.  compute() must give a Python scalar (a
    float, bool or RatioRange; the slot's arrays are :func:`pair_vector`'s)
    and do every check of its inputs: a value is stored only when it
    returned, so a call that raises raises the same way on every call.
    """
    memo = _slot(P, Q)
    value = memo.values.get(key)
    if value is None:
        value = memo.values[key] = compute()
    return value


#: How each vector of the slot is formed from (p, q).
_VECTORS = {"x": np.divide, "d": np.subtract}


def pair_vector(P: Distribution, Q: Distribution, name: str) -> np.ndarray:
    """The pair's ratio vector x = p / q (name "x") or its difference
    d = p - q (name "d"), a read-only array formed at most once while
    (P, Q) is the latest pair (:func:`memoized`'s slot).

    Raises LengthMismatch, before any arithmetic, where the lengths differ.
    An x_i that overflows is inf, with no numpy warning: its caller's
    NumericOverflow is the only signal.
    """
    p, q = pair_probs(P, Q)
    memo = _slot(P, Q)
    vector = getattr(memo, name)
    if vector is None:
        with np.errstate(over="ignore"):
            vector = _VECTORS[name](p, q)
        vector.setflags(write=False)
        setattr(memo, name, vector)
    return vector
