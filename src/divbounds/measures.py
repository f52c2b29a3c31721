"""Closed-form evaluation of the concrete divergence measures.

All values are in nats.  The "adjoint" of a measure is the same formula with
the arguments swapped; adjoints are separate named entries (D1/D2, F1/F2,
G1/G2) because the bound tables are indexed by these names.

Each formula sums over the last axis, so it takes one pair of probability
vectors or a (k, n) block of k pairs (one value per row); the public
functions here and the harness's batched pair table share it.  The power
family phi_s has no formula of its own: it is the Csiszar sum of
:func:`phi_generator` (s).
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch, UnknownMeasure, require_finite
from .generators import csiszar_sums, phi_generator
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


def finite_phi(s: float, value):
    """phi_s values (a float or an array of trials) unchanged, or
    NumericOverflow when one is inf or nan."""
    return require_finite(value, f"phi_s at s={s!r}")


@np.errstate(over="ignore", invalid="ignore")  # NumericOverflow is the only signal
def phi_s(s: float, P: Distribution, Q: Distribution) -> float:
    """Power-divergence family: [s(s-1)]^-1 [sum p_i^s q_i^(1-s) - 1], the
    Csiszar sum of :func:`phi_generator` (s), which is KL(Q||P) and
    KL(P||Q) at the poles s = 0 and s = 1.

    Raises NonFinite for a nan or infinite s, and NumericOverflow where a
    ratio p_i/q_i or its power leaves the float range.
    """
    gen = phi_generator(s)
    if len(P) != len(Q):
        raise LengthMismatch(f"lengths differ: {len(P)} vs {len(Q)}")
    return finite_phi(s, float(csiszar_sums(gen, P.probs, Q.probs)))
