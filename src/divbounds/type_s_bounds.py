"""Upper-bound functionals for the power-divergence family.

Three bounds on phi_s(P||Q) are provided: a data-dependent one (e_phi_s),
and two that depend only on the ratio range [r, R] (a_phi_s and b_phi_s).
Each is the generic functional of :mod:`csiszar_bounds` (e_cf, a_cf and
b_cf) applied to :func:`phi_generator` (s), as phi_s is its Csiszar sum;
only the name in their error messages is their own.  They satisfy the chain

    0 <= phi_s <= e_phi_s <= a_phi_s,     phi_s <= b_phi_s <= a_phi_s,
    b_phi_s - phi_s <= a_phi_s,

with b_phi_s defined only under r <= 1 <= R, r != R.  Every functional
raises NonFinite for a nan or infinite s, and NumericOverflow where it
leaves the float range, instead of returning a bound that compares as inf
or nan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .csiszar_bounds import a_cf_values, b_cf_values, e_cf_sums
from .errors import InvalidRange, LengthMismatch, require_finite
from .generators import VIOLATION_TOL, phi_generator
from .measures import phi_s
from .simplex import Distribution, RatioRange, ratio_range


@np.errstate(over="ignore", invalid="ignore")  # NumericOverflow is the only signal
def e_phi_s(s: float, P: Distribution, Q: Distribution) -> float:
    """Data-dependent bound (s-1)^-1 sum (p_i - q_i)(p_i/q_i)^(s-1): e_cf
    of the power generator, sum (p_i - q_i) ln(p_i/q_i) at s = 1."""
    if len(P) != len(Q):
        raise LengthMismatch(f"lengths differ: {len(P)} vs {len(Q)}")
    return require_finite(float(e_cf_sums(phi_generator(s), P.probs, Q.probs)), f"e_phi_s at s={s!r}")


@np.errstate(all="ignore")  # NumericOverflow is the only signal
def a_phi_s(s: float, rng: RatioRange) -> float:
    """Range-only bound (R-r)/4 * (R^(s-1) - r^(s-1)) / (s-1): a_cf of the
    power generator, (R-r)/4 * ln(R/r) at s = 1."""
    r, R = rng.r, rng.R
    if r == R:
        return 0.0
    return require_finite(a_cf_values(phi_generator(s), r, R), f"a_phi_s at s={s!r}")


@np.errstate(all="ignore")  # NumericOverflow is the only signal
def b_phi_s(s: float, rng: RatioRange) -> float:
    """Chord bound [(R-1)f(r) + (1-r)f(R)] / (R-r): b_cf of the power
    generator f, which it interpolates through x = 1; requires
    r <= 1 <= R, r != R."""
    r, R = rng.r, rng.R
    if not (0.0 < r <= 1.0 <= R) or r == R:
        raise InvalidRange(f"need 0 < r <= 1 <= R with r != R, got {rng}")
    return require_finite(b_cf_values(phi_generator(s), r, R), f"b_phi_s at s={s!r}")


@dataclass(frozen=True)
class TypeSBoundSet:
    """phi_s with its three bounds and the inequality-check verdicts.

    ``checks`` maps an inequality label to its slack (bound minus bounded
    quantity); every slack is nonnegative up to rounding when the chain
    holds.  ``b_bound`` is None on a degenerate range (r = R).
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
        return all(slack >= VIOLATION_TOL for slack in self.checks.values())


def bound_set(s: float, P: Distribution, Q: Distribution) -> TypeSBoundSet:
    """Evaluate phi_s, e/a/b bounds, and the full inequality chain."""
    rng = ratio_range(P, Q)
    phi, e = phi_s(s, P, Q), e_phi_s(s, P, Q)
    a = a_phi_s(s, rng)
    b = None if rng.degenerate else b_phi_s(s, rng)
    return TypeSBoundSet(s=s, range=rng, phi=phi, e_bound=e, a_bound=a, b_bound=b, checks=chain_checks(phi, e, a, b))


def chain_checks(phi, e, a, b=None) -> dict:
    """The chain's slacks from phi_s and its E, A and B bounds (b None on a
    degenerate range: no B checks); on floats or elementwise on arrays."""
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
