"""An independent reference for the power family phi_s off its poles.

f, f' and the range-only bound functionals A and B of phi_generator(s),
s != 0, 1, written again from the paper's formulas in decimal at 60
significant digits, with x^e computed as exp(e * ln x).  Every float
argument converts exactly, so each value is the formula's exact value at
those floats, to far more digits than a float64 holds.  Nothing here calls
the library or numpy.

A float evaluation of A or B can lose every digit to cancellation as r and
R close in on 1, so its error is judged against a scale, not against |A|
or |B|: the same formula with every term taken by its magnitude (a running
error bound), where f'(x) = x^(s-1) / (s-1) also carries |(s-1) ln x| for
the rounding of the exponent s - 1 to a float.
"""

from __future__ import annotations

import functools
from decimal import Context, Decimal

CTX = Context(prec=60)

#: The unit roundoff of float64, 2^-53.
U = Decimal(2) ** -53


@functools.cache  # each x's logarithm serves f, f' and both scales
def _ln(x: float) -> Decimal:
    return CTX.ln(Decimal(x))


def _pow(x: float, e: Decimal) -> Decimal:
    return CTX.exp(CTX.multiply(e, _ln(x)))


def phi_f(s: float, x: float) -> Decimal:
    """f(x) = (x^s - 1) / (s(s-1))."""
    s_ = Decimal(s)
    return CTX.divide(CTX.subtract(_pow(x, s_), 1), CTX.multiply(s_, CTX.subtract(s_, 1)))


def phi_f_prime(s: float, x: float) -> Decimal:
    """f'(x) = x^(s-1) / (s-1)."""
    e = CTX.subtract(Decimal(s), 1)
    return CTX.divide(_pow(x, e), e)


def phi_a(s: float, r: float, R: float) -> Decimal:
    """A = (R - r)/4 * (f'(R) - f'(r))."""
    return CTX.multiply(_quarter_width(r, R), CTX.subtract(phi_f_prime(s, R), phi_f_prime(s, r)))


def phi_b(s: float, r: float, R: float) -> Decimal:
    """B = [(R - 1) f(r) + (1 - r) f(R)] / (R - r), on r <= 1 <= R, r != R."""
    return _chord(r, R, phi_f(s, r), phi_f(s, R))


def phi_a_scale(s: float, r: float, R: float) -> Decimal:
    """(R - r)/4 * (|f'(R)| (1 + |(s-1) ln R|) + |f'(r)| (1 + |(s-1) ln r|))."""

    def term(x):
        e = CTX.subtract(Decimal(s), 1)
        return CTX.multiply(abs(phi_f_prime(s, x)), CTX.add(1, abs(CTX.multiply(e, _ln(x)))))

    return CTX.multiply(_quarter_width(r, R), CTX.add(term(R), term(r)))


def phi_b_scale(s: float, r: float, R: float) -> Decimal:
    """B with f(x) taken as (x^s + 1) / |s(s-1)|."""

    def term(x):
        s_ = Decimal(s)
        return CTX.divide(CTX.add(_pow(x, s_), 1), abs(CTX.multiply(s_, CTX.subtract(s_, 1))))

    return _chord(r, R, term(r), term(R))


def _quarter_width(r: float, R: float) -> Decimal:
    return CTX.divide(CTX.subtract(Decimal(R), Decimal(r)), 4)


def _chord(r: float, R: float, f_r: Decimal, f_R: Decimal) -> Decimal:
    r, R = Decimal(r), Decimal(R)
    chord = CTX.add(CTX.multiply(CTX.subtract(R, 1), f_r), CTX.multiply(CTX.subtract(1, r), f_R))
    return CTX.divide(chord, CTX.subtract(R, r))


def error_in_scale(value: float, exact: Decimal, scale: Decimal) -> float:
    """|value - exact| in units of u * scale."""
    return float(CTX.divide(abs(CTX.subtract(Decimal(value), exact)), CTX.multiply(U, scale)))
