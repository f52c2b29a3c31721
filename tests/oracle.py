"""An independent reference for the power family phi_s off its poles and
for the nine catalog measures.

f, f' and the range-only bound functionals A and B of phi_generator(s),
s != 0, 1, and the catalog's f and C_f, written again from the paper's
formulas in decimal at 60 significant digits, with x^e computed as
exp(e * ln x).  Every float argument converts exactly, so each value is the
formula's exact value at those floats, to far more digits than a float64
holds.  Nothing here calls the library or numpy.

A float evaluation of A or B can lose every digit to cancellation as r and
R close in on 1, so its error is judged against a scale, not against |A|
or |B|: the same formula with every term taken by its magnitude (a running
error bound), where f'(x) = x^(s-1) / (s-1) also carries |(s-1) ln x| for
the rounding of the exponent s - 1 to a float.  C_f of a catalog measure is
judged the same way, on :class:`Running` values.
"""

from __future__ import annotations

import functools
from decimal import Context, Decimal

CTX = Context(prec=60)

#: The unit roundoff of float64, 2^-53.
U = Decimal(2) ** -53


@functools.cache  # each x's logarithm serves f, f' and both scales
def _ln(x) -> Decimal:
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


class Running:
    """A value with its running-error scale: the same expression with every
    operand taken by its magnitude, so a sum or difference adds scales and
    a product or quotient multiplies or divides them.  A float evaluation
    of the expression is within a few units of u * scale of the value."""

    def __init__(self, value, scale=None):
        self.value = Decimal(value)
        self.scale = abs(self.value) if scale is None else scale

    def _op(self, other, op, scale_op):
        other = other if isinstance(other, Running) else Running(other)
        return Running(op(self.value, other.value), scale_op(self.scale, other.scale))

    def __add__(self, other):
        return self._op(other, CTX.add, CTX.add)

    def __sub__(self, other):
        return self._op(other, CTX.subtract, CTX.add)

    def __rsub__(self, other):
        return Running(other) - self

    def __mul__(self, other):
        return self._op(other, CTX.multiply, CTX.multiply)

    def __truediv__(self, other):
        return self._op(other, CTX.divide, CTX.divide)

    __radd__, __rmul__ = __add__, __mul__


def _run_ln(y: Running) -> Running:
    """ln y, whose scale |ln y| + 1 carries the rounding of y."""
    v = _ln(y.value)
    return Running(v, CTX.add(abs(v), 1))


def _run_sqrt(y: Running) -> Running:
    return Running(CTX.sqrt(y.value), CTX.sqrt(y.scale))


#: f of each catalog measure, from the paper's definitions (the f_text each
#: generator prints), on :class:`Running` values.
CATALOG_F = {
    "D1": lambda x: (x - 1) * _run_ln((x + 1) / 2),
    "D2": lambda x: (1 - x) * _run_ln((x + 1) / (2 * x)),
    "F1": lambda x: (1 - x) / 2 - x * _run_ln((x + 1) / (2 * x)),
    "F2": lambda x: (x - 1) / 2 - _run_ln((x + 1) / 2),
    "G1": lambda x: (x - 1) / 2 + (x + 1) / 2 * _run_ln((x + 1) / (2 * x)),
    "G2": lambda x: (1 - x) / 2 + (x + 1) / 2 * _run_ln((x + 1) / 2),
    "J": lambda x: (x - 1) * _run_ln(x),
    "I": lambda x: x / 2 * _run_ln(x) - (x + 1) / 2 * _run_ln((x + 1) / 2),
    "T": lambda x: (x + 1) / 2 * _run_ln((x + 1) / (2 * _run_sqrt(x))),
}


def catalog_cf(measure: str, p, q) -> tuple:
    """(C_f, its scale) of a catalog measure on float vectors p, q: the sum
    of q_i f(x_i) with x_i = p_i / q_i in decimal, and of q_i times f's
    scale at x_i, which carries the rounding of x_i to a float."""
    f = CATALOG_F[measure]
    total = scale = Decimal(0)
    for p_i, q_i in zip(p, q):
        q_ = Decimal(q_i)
        term = f(Running(CTX.divide(Decimal(p_i), q_)))
        total = CTX.add(total, CTX.multiply(q_, term.value))
        scale = CTX.add(scale, CTX.multiply(q_, term.scale))
    return total, scale
