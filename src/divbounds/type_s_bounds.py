"""Upper-bound functionals for the power-divergence family.

Three bounds on phi_s(P||Q) are provided: a data-dependent one (e_phi_s),
and two that depend only on the ratio range [r, R] (a_phi_s and b_phi_s).
They satisfy the chain

    0 <= phi_s <= e_phi_s <= a_phi_s,     phi_s <= b_phi_s <= a_phi_s,
    b_phi_s - phi_s <= a_phi_s,

with b_phi_s defined only under r <= 1 <= R, r != R.  Every functional
raises NumericOverflow where a power leaves the float range, instead of
returning a bound that compares as inf or nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidRange, LengthMismatch, require_finite
from .generators import S_POLE_TOL, VIOLATION_TOL, float_log, float_pow
from .measures import phi_s
from .simplex import Distribution, RatioRange, ratio_range


def e_phi_sums(s: float, p, q):
    """e_phi_s on probability vectors p, q, or row by row on (k, n) blocks."""
    x = p / q
    if abs(s - 1.0) <= S_POLE_TOL:
        return np.add.reduce((p - q) * np.log(x), axis=-1)
    return np.add.reduce((p - q) * x ** (s - 1.0), axis=-1) / (s - 1.0)


@np.errstate(over="ignore", invalid="ignore")  # NumericOverflow is the only signal
def e_phi_s(s: float, P: Distribution, Q: Distribution) -> float:
    """Data-dependent bound (s-1)^-1 sum (p_i - q_i)(p_i/q_i)^(s-1)."""
    if len(P) != len(Q):
        raise LengthMismatch(f"lengths differ: {len(P)} vs {len(Q)}")
    return require_finite(float(e_phi_sums(s, P.probs, Q.probs)), f"e_phi_s at s={s!r}")


def a_phi_s(s: float, rng: RatioRange) -> float:
    """Range-only bound (R-r)^2/4 * (R^(s-1) - r^(s-1)) / ((R-r)(s-1))."""
    r, R = rng.r, rng.R
    if r == R:
        return 0.0
    try:
        value = a_phi_values(s, r, R)
    except ZeroDivisionError:  # (R - r)(s - 1) underflowed to 0
        value = math.nan
    return require_finite(value, f"a_phi_s at s={s!r}")


def a_phi_values(s: float, r, R):
    """a_phi_s on 0 < r < R: floats, or arrays of ranges, each entry bit for
    bit its float value; inf or nan where a power overflows."""
    if abs(s - 1.0) <= S_POLE_TOL:
        factor = (float_log(R) - float_log(r)) / (R - r)
    else:
        factor = (float_pow(R, s - 1.0) - float_pow(r, s - 1.0)) / ((R - r) * (s - 1.0))
    return 0.25 * float_pow(R - r, 2.0) * factor


def b_phi_s(s: float, rng: RatioRange) -> float:
    """Chord bound [(R-1)f(r) + (1-r)f(R)] / (R-r) for the power generator.

    Interpolates the generator through x = 1; requires r <= 1 <= R, r != R.
    """
    r, R = rng.r, rng.R
    if not (0.0 < r <= 1.0 <= R) or r == R:
        raise InvalidRange(f"need 0 < r <= 1 <= R with r != R, got {rng}")
    return require_finite(b_phi_values(s, r, R), f"b_phi_s at s={s!r}")


def b_phi_values(s: float, r, R):
    """b_phi_s on 0 < r <= 1 <= R, r != R, as :func:`a_phi_values`."""
    if abs(s) <= S_POLE_TOL:
        num = (R - 1.0) * float_log(1.0 / r) + (1.0 - r) * float_log(1.0 / R)
        return num / (R - r)
    if abs(s - 1.0) <= S_POLE_TOL:
        num = (R - 1.0) * r * float_log(r) + (1.0 - r) * R * float_log(R)
        return num / (R - r)
    num = (R - 1.0) * (float_pow(r, s) - 1.0) + (1.0 - r) * (float_pow(R, s) - 1.0)
    return num / ((R - r) * s * (s - 1.0))


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
