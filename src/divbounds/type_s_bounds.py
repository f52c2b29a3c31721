"""Theorem 3.1's chain for the power-divergence family.

phi_s(P||Q) is the Csiszar sum of :func:`phi_generator` (s), and its three
bounds are the generic functionals of :mod:`csiszar_bounds` on that
generator: the data-dependent e_cf and the range-only a_cf and b_cf.  They
satisfy the chain

    0 <= phi_s <= E <= A,     phi_s <= B <= A,     B - phi_s <= A,

with B defined only under r <= 1 <= R, r != R.  :func:`bound_set` evaluates
the chain on one pair, and :func:`chain_checks` gives its slacks, on floats
or on the harness's arrays of trials.  Every bound raises NonFinite for a
nan or infinite s, and NumericOverflow where it leaves the float range,
instead of returning a bound that compares as inf or nan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .csiszar_bounds import a_cf, b_cf, b_defined, e_cf
from .generators import all_hold, phi_generator
from .measures import phi_s
from .simplex import Distribution, RatioRange, ratio_range


@dataclass(frozen=True)
class TypeSBoundSet:
    """phi_s with its three bounds and the inequality-check verdicts.

    ``checks`` maps an inequality label to its slack (bound minus bounded
    quantity); every slack is nonnegative up to rounding when the chain
    holds.  ``b_bound`` is None, with no B checks, where B's hypothesis
    r <= 1 <= R, r != R fails: on a degenerate range (r = R), and on a
    range that misses 1 by rounding, as P and Q sum to 1 only to rounding.
    """

    s: float
    range: RatioRange
    phi: float
    e_bound: float
    a_bound: float
    b_bound: Optional[float]
    checks: dict

    @property
    def holds(self) -> bool:
        return all_hold(self.checks.values())


def bound_set(s: float, P: Distribution, Q: Distribution) -> TypeSBoundSet:
    """Evaluate phi_s, its E/A/B bounds, and the full inequality chain."""
    rng = ratio_range(P, Q)
    phi = phi_s(s, P, Q)
    gen = phi_generator(s)
    e, a = e_cf(gen, P, Q), a_cf(gen, rng)
    b = b_cf(gen, rng) if b_defined(rng.r, rng.R) else None
    return TypeSBoundSet(s=s, range=rng, phi=phi, e_bound=e, a_bound=a, b_bound=b, checks=chain_checks(phi, e, a, b))


def chain_checks(phi, e, a, b=None) -> dict:
    """The chain's slacks from phi_s and its E, A and B bounds (b None where
    B is not defined: no B checks); on floats or elementwise on arrays."""
    checks = {
        "phi_nonneg": phi,
        "phi_le_e": e - phi,
        "phi_le_a": a - phi,
        "e_le_a": a - e,
    }
    if b is not None:
        checks["phi_le_b"] = b - phi
        checks["b_le_a"] = a - b
        checks["b_minus_phi_le_a"] = a - (b - phi)
    return checks
