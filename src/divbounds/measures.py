"""Closed-form evaluation of the concrete divergence measures.

All values are in nats.  The "adjoint" of a measure is the same formula with
the arguments swapped; adjoints are separate named entries (D1/D2, F1/F2,
G1/G2) because the bound tables are indexed by these names.

Each formula sums over the last axis, so it takes one pair of probability
vectors or a (k, n) block of k pairs (one value per row); the public
functions here and the harness's batched pair table share it.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch, UnknownMeasure, require_finite, require_finite_s
from .generators import S_POLE_TOL
from .simplex import Distribution


def _kl(p, q):
    return np.add.reduce(p * np.log(p / q), axis=-1)


def _j(p, q):
    return np.add.reduce((p - q) * np.log(p / q), axis=-1)


def _d1(p, q):
    return np.add.reduce((p - q) * np.log((p + q) / (2 * q)), axis=-1)


def _f1(p, q):
    return np.add.reduce(p * np.log(2 * p / (p + q)), axis=-1)


def _g1(p, q):
    m = (p + q) / 2
    return np.add.reduce(m * np.log(m / p), axis=-1)


def _i(p, q):
    m = (p + q) / 2
    return np.add.reduce(p * np.log(p / m) + q * np.log(q / m), axis=-1) / 2


def _t(p, q):
    m = (p + q) / 2
    return np.add.reduce(m * np.log(m / np.sqrt(p * q)), axis=-1)


def _b(p, q):
    return np.add.reduce(np.sqrt(p * q), axis=-1)


def _h(p, q):
    return np.add.reduce((np.sqrt(p) - np.sqrt(q)) ** 2, axis=-1) / 2


def _chi2(p, q):
    return np.add.reduce((p - q) ** 2 / q, axis=-1)


_DISPATCH = {
    "KL": _kl,
    "KL_ADJ": lambda p, q: _kl(q, p),
    "J": _j,
    "D1": _d1,
    "D2": lambda p, q: _d1(q, p),
    "F1": _f1,
    "F2": lambda p, q: _f1(q, p),
    "G1": _g1,
    "G2": lambda p, q: _g1(q, p),
    "I": _i,
    "T": _t,
    "BHATTACHARYYA": _b,
    "HELLINGER": _h,
    "CHI2": _chi2,
    "CHI2_ADJ": lambda p, q: _chi2(q, p),
}

#: All named measures accepted by :func:`divergence`.
MEASURE_IDS = tuple(_DISPATCH)

#: Measures invariant under swapping P and Q.
SYMMETRIC_IDS = ("J", "I", "T", "HELLINGER", "BHATTACHARYYA")


def divergence_sums(measure: str, p, q):
    """A named measure on probability vectors p, q, or row by row on
    (k, n) blocks (an array of k values)."""
    try:
        fn = _DISPATCH[measure]
    except KeyError:
        raise UnknownMeasure(f"unknown measure {measure!r}") from None
    return fn(p, q)


def divergence(measure: str, P: Distribution, Q: Distribution) -> float:
    """Closed-form value of a named measure, in nats."""
    if len(P) != len(Q):
        raise LengthMismatch(f"lengths differ: {len(P)} vs {len(Q)}")
    return float(divergence_sums(measure, P.probs, Q.probs))


def phi_sums(s: float, p, q):
    """phi_s on probability vectors p, q, or row by row on (k, n) blocks."""
    if abs(s) <= S_POLE_TOL:
        return _kl(q, p)
    if abs(s - 1.0) <= S_POLE_TOL:
        return _kl(p, q)
    return (np.add.reduce(p**s * q ** (1.0 - s), axis=-1) - 1.0) / (s * (s - 1.0))


def finite_phi(s: float, value):
    """phi_s values (a float or an array of trials) unchanged, or
    NumericOverflow when one is inf or nan."""
    return require_finite(value, f"phi_s at s={s!r}")


@np.errstate(over="ignore", invalid="ignore")  # NumericOverflow is the only signal
def phi_s(s: float, P: Distribution, Q: Distribution) -> float:
    """Power-divergence family: [s(s-1)]^-1 [sum p_i^s q_i^(1-s) - 1].

    The s = 0 and s = 1 poles dispatch to KL(Q||P) and KL(P||Q); the
    threshold matches the generator-level dispatch so both routes agree.
    Raises NumericOverflow when a power leaves the float range (an extreme
    ratio at a large |s|), where the sum would be inf or nan.
    """
    require_finite_s(s)
    if len(P) != len(Q):
        raise LengthMismatch(f"lengths differ: {len(P)} vs {len(Q)}")
    return finite_phi(s, float(phi_sums(s, P.probs, Q.probs)))
