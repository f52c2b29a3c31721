"""Divergence values of the 15 named measures.

All values are in nats.  The "adjoint" of a measure is the same formula with
the arguments swapped; adjoints are separate named entries (KL_ADJ, D2, F2,
G2, CHI2_ADJ) because the bound tables index D1/D2, F1/F2 and G1/G2 by name.

This module holds no formula.  Each measure is the sum of its term t(p, q),
written once in :data:`generators.TERMS`, over the last axis, so it takes
one pair of probability vectors, a (k, n) block of k pairs (one value per
row) or the harness pair table's layout of blocks, which shares it with
the public functions here.  The power family phi_s is the Csiszar sum of :func:`phi_generator` (s).
How a pair is summed, and a long one leaf by leaf, is decided in
:mod:`generators` alone (:data:`generators.TERM_SUMS`).

:func:`divergence` and :func:`phi_s` keep each raw sum, before its finite
check, in the latest-pair memo (:func:`simplex.memoized`): a Python float
per measure or generator, held while (P, Q), matched by identity through
weak references, stays the latest pair.  phi_s(s),
``eval_csiszar(phi_generator(s))`` and ``bound_interval`` at s share one
entry, so a sweep of the measures' bounds at one s sums phi_s once;
``bound_interval`` still sums C_f on every call, as a faster sweep would
keep more of the benchmark's latency samples and break its RSS bound until
the benchmark bounds them (ROADMAP item 1b).  phi_s reads the
pair's ratio vector x = p / q from the same slot (:func:`simplex.pair_vector`),
formed once for every s; the divergences sum their (p, q) terms, which
take blocks as well.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownMeasure, require_finite
from .generators import TERM_SUMS, TERMS, csiszar_value, phi_generator
from .simplex import Distribution, memoized, pair_probs

_DISPATCH = dict(TERM_SUMS)

#: All named measures accepted by :func:`divergence`.
MEASURE_IDS = tuple(TERMS)

#: Measures invariant under swapping P and Q.
SYMMETRIC_IDS = ("J", "I", "T", "HELLINGER", "BHATTACHARYYA")


def divergence_sums(measure: str, p, q, views=None):
    """A named measure on probability vectors p, q, or row by row on
    (k, n) blocks or a layout of blocks (:func:`generators.term_sum`)."""
    return _measure_fn(measure)(p, q, views)


def _measure_fn(measure: str):
    try:
        return _DISPATCH[measure]
    except (KeyError, TypeError):
        raise UnknownMeasure(f"unknown measure {measure!r}") from None


@np.errstate(all="ignore")  # NumericOverflow is the only signal
def divergence(measure: str, P: Distribution, Q: Distribution) -> float:
    """Value of a named measure, in nats, memoized for the latest pair.

    Raises NumericOverflow where it leaves the float range, as a ratio
    p_i/q_i does when q_i is near the smallest subnormal.
    """
    p, q = pair_probs(P, Q)
    fn = _measure_fn(measure)
    value = memoized(P, Q, measure, lambda: float(fn(p, q)))
    return require_finite(value, "divergence {}", measure)


def finite_phi(s: float, value):
    """phi_s values (a float or an array of trials) unchanged, or
    NumericOverflow when one is inf or nan."""
    return require_finite(value, "phi_s at s={!r}", s)


@np.errstate(over="ignore", invalid="ignore")  # NumericOverflow is the only signal
def phi_s(s: float, P: Distribution, Q: Distribution) -> float:
    """Power-divergence family: [s(s-1)]^-1 [sum p_i^s q_i^(1-s) - 1], the
    Csiszar sum of :func:`phi_generator` (s), which is KL(Q||P) and
    KL(P||Q) at the poles s = 0 and s = 1; memoized for the latest pair.

    Raises NonFinite for a nan or infinite s, and NumericOverflow where a
    ratio p_i/q_i or its power leaves the float range.
    """
    gen = phi_generator(s)
    pair_probs(P, Q)
    return finite_phi(s, csiszar_value(gen, P, Q))
