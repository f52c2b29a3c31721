"""Generating functions (f, f', f'') of the divergence catalog.

Each divergence in this package is the Csiszar sum

    C_f(P||Q) = sum_i q_i * f(p_i / q_i)

for a convex generator f on (0, inf) normalized by f(1) = 0.  Every
generator carries an analytic f' and f'' as a :class:`Rational`; finite
differences are relegated to the test oracle.

Each of the 15 named measures is written once, here, as its term t(p, q)
(:data:`TERMS`), and ``divergence`` sums the term.  A catalog generator's
f is its term at q = 1, t(x, 1), plus (1-x)/2 or (x-1)/2 for F1, F2, G1
and G2 to make f'(1) = 0.  The power family phi_s, whose members at
s = 1, 0, 2, -1 and 1/2 are KL, KL_ADJ, CHI2 / 2, CHI2_ADJ / 2 and
4 HELLINGER, keeps its own f (:func:`phi_generator`).

Every pair sum (the 15 measures, C_f and e_cf) is an elementwise term
reduced over the last axis.  A pair longer than :data:`TERM_SLICE` entries
is summed by :func:`term_sum`: the term is written into one array slice by
slice, half the slices in one worker thread, which starts with the first
such pair, and the array is reduced once.  The sum keeps its bits, as an
elementwise loop gives an entry the same value in any slice that starts at
a multiple of 64, and the reduce sees the same array.  Short pairs and
(k, n) blocks take the one-line sum.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgument, UnknownMeasure, require_finite, require_finite_s
from .simplex import Distribution, memoized, pair_probs, pair_vector

#: Identifiers of the nine fixed generators, in catalog order.
CATALOG_IDS = ("D1", "D2", "F1", "F2", "G1", "G2", "J", "I", "T")

#: Dispatch threshold for the s = 0 and s = 1 poles of the power family.
#: Direct evaluation of (x^s - 1)/(s(s-1)) is catastrophically cancellative
#: near the poles; the family is continuous in s, so switching to the limit
#: forms below this distance keeps the error under 1e-9 at moderate ratios.
S_POLE_TOL = 1e-10

#: A check fails when its slack (bound minus bounded quantity) is below this:
#: it separates genuine violations from accumulated rounding in sums of up
#: to 64 entries, where every quantity checked is O(1)-O(100).
VIOLATION_TOL = -1e-9


def horner(coeffs, x):
    """Polynomial with coefficients highest power first (numpy.polyval order)
    at x; scalar or array x."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


# Python's float power on a float, and entry by entry on an array.  g's
# float path (Rational.times_power on a float, about twice a bound_interval
# call) stays off numpy: Python's ``**`` takes 24 ns there against 0.53 us
# for a scalar np.power (2-CPU Xeon, numpy 2.4).  numpy's ``**`` can differ
# from Python's in the last bit, so g's array path, which holds the float
# path's bits, takes this twin.  f and f' are numpy alone: a_cf and b_cf
# pass one range as 0-d arrays, which get the bits of a column's entries.


def float_pow(x, e: float):
    """x ** e in Python floats; inf where it overflows (Python raises)."""
    if not isinstance(x, np.ndarray):
        try:
            return x**e
        except OverflowError:
            return math.inf
    xs = x.tolist()
    try:
        return np.array([v**e for v in xs], dtype=np.float64)
    except OverflowError:
        return np.array([float_pow(v, e) for v in xs], dtype=np.float64)


@dataclass(frozen=True)
class Rational:
    """f''(x) = x^(a-2) num(x) / den(x), integer coefficient tuples highest
    power first and a real a (2 in the catalog, t for phi_t's x^(t-2)),
    evaluated only as x^(a-2+k) n(y) / d(y) with y = x on x <= 1 (low) and
    y = 1/x on x > 1 (high).  Every power of x that num and den carry is in
    k, so n(y), d(y) on (0, 1] cannot under- or overflow: only the power can.
    """

    num: tuple
    den: tuple
    a: float = 2
    low: tuple = field(init=False, repr=False, compare=False)  # (k, n, d)
    high: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, coeffs in (("num", self.num), ("den", self.den)):
            if not any(coeffs):
                raise InvalidArgument(f"Rational {name} needs a nonzero coefficient, got {coeffs!r}")

        def split(coeffs):  # c(x) = x^k c'(x)
            c = list(coeffs)
            while c[-1] == 0:
                c.pop()
            return len(coeffs) - len(c), tuple(c)

        (kn, n), (kd, d) = split(self.num), split(self.den)
        object.__setattr__(self, "low", (kn - kd, n, d))
        # c'(x) = x^deg(c') c'_reversed(1/x)
        object.__setattr__(self, "high", (kn + len(n) - kd - len(d), n[::-1], d[::-1]))

    def __call__(self, x):
        """f''(x); inf where it leaves the float range."""
        try:
            return self.times_power(x, 2.0)
        except OverflowError:
            return math.inf

    def times_power(self, x, s: float):
        """x^(2-s) f''(x) as x^((a-s)+k) * n(y) / d(y), on a float or at
        every entry of an array, bit for bit: the power is Python's, and
        numpy's + * / round as Python's do.  Where the power overflows, a
        float raises OverflowError and an array entry is inf
        (:func:`float_pow`)."""
        if not isinstance(x, np.ndarray):
            k, n, d = self.low if x <= 1.0 else self.high
            y = x if x <= 1.0 else 1.0 / x
            return x ** ((self.a - s) + k) * (horner(n, y) / horner(d, y))
        out = np.empty(x.shape)
        high = x > 1.0
        for (k, n, d), at, y in ((self.low, ~high, x[~high]), (self.high, high, 1.0 / x[high])):
            out[at] = float_pow(x[at], (self.a - s) + k) * (horner(n, y) / horner(d, y))
        return out


@dataclass(frozen=True)
class Generator:
    """A divergence's generating triple on (0, inf), with f(1) = 0.

    f'' is a :class:`Rational`; catalog generators also carry the formula
    text of f and f'' that the catalog command prints.  f and f' must be
    elementwise: an entry's value may depend on that entry alone, as the
    Csiszar sum of a long pair evaluates them slice by slice
    (:func:`term_sum`).
    """

    id: str
    f: Callable
    f_prime: Callable
    f_second: Rational
    f_text: str = ""
    f_second_text: str = ""

    def __post_init__(self):
        if not isinstance(self.f_second, Rational):
            raise InvalidArgument(f"f_second of {self.id} must be a Rational, got {type(self.f_second).__name__}")

    def __str__(self) -> str:
        return self.id  # J, PHI_S(0.5), PHI_S(1) at the pole: messages and test ids name it


#: The term t(p, q) of each of the 15 named measures, elementwise, in the
#: order of ``measures.MEASURE_IDS``: its divergence is the sum of t.
#: KL_ADJ, D2, F2, G2 and CHI2_ADJ are KL, D1, F1, G1 and CHI2 with p and q
#: swapped.  G1, I and T form m = (p + q) / 2 once; I and HELLINGER halve
#: each term.  Each halving is ``* 0.5``: the bits of ``/ 2``, without a
#: division.
TERMS = {
    "KL": lambda p, q: p * np.log(p / q),
    "KL_ADJ": lambda p, q: TERMS["KL"](q, p),
    "J": lambda p, q: (p - q) * np.log(p / q),
    "D1": lambda p, q: (p - q) * np.log((p + q) / (2 * q)),
    "D2": lambda p, q: TERMS["D1"](q, p),
    "F1": lambda p, q: p * np.log(2 * p / (p + q)),
    "F2": lambda p, q: TERMS["F1"](q, p),
    "G1": lambda p, q: (m := (p + q) * 0.5) * np.log(m / p),
    "G2": lambda p, q: TERMS["G1"](q, p),
    "I": lambda p, q: (p * np.log(p / (m := (p + q) * 0.5)) + q * np.log(q / m)) * 0.5,
    "T": lambda p, q: (m := (p + q) * 0.5) * np.log(m / np.sqrt(p * q)),
    "BHATTACHARYYA": lambda p, q: np.sqrt(p * q),
    "HELLINGER": lambda p, q: (np.sqrt(p) - np.sqrt(q)) ** 2 * 0.5,
    "CHI2": lambda p, q: (p - q) ** 2 / q,
    "CHI2_ADJ": lambda p, q: TERMS["CHI2"](q, p),
}


def _make_catalog() -> dict:
    log, sqrt = np.log, np.sqrt
    gens = [
        Generator(
            "D1",
            f=lambda x: TERMS["D1"](x, 1.0),
            f_prime=lambda x: (x - 1) / (x + 1) + log((x + 1) / 2),
            f_second=Rational((1, 3), (1, 2, 1)),
            f_text="(x-1)*ln((x+1)/2)",
            f_second_text="(x+3)/(x+1)^2",
        ),
        Generator(
            "D2",
            f=lambda x: TERMS["D2"](x, 1.0),
            f_prime=lambda x: (x - 1) / (x * (x + 1)) - log((x + 1) / (2 * x)),
            f_second=Rational((3, 1), (1, 2, 1, 0, 0)),
            f_text="(1-x)*ln((x+1)/(2x))",
            f_second_text="(3x+1)/(x^2*(x+1)^2)",
        ),
        Generator(
            "F1",
            f=lambda x: TERMS["F1"](x, 1.0) + (1 - x) / 2,
            f_prime=lambda x: (1 - x) / (2 * (x + 1)) - log((x + 1) / (2 * x)),
            f_second=Rational((1,), (1, 2, 1, 0)),
            f_text="(1-x)/2 - x*ln((x+1)/(2x))",
            f_second_text="1/(x*(x+1)^2)",
        ),
        Generator(
            "F2",
            f=lambda x: TERMS["F2"](x, 1.0) + (x - 1) / 2,
            f_prime=lambda x: (x - 1) / (2 * (x + 1)),
            f_second=Rational((1,), (1, 2, 1)),
            f_text="(x-1)/2 - ln((x+1)/2)",
            f_second_text="1/(x+1)^2",
        ),
        Generator(
            "G1",
            f=lambda x: TERMS["G1"](x, 1.0) + (x - 1) / 2,
            f_prime=lambda x: 0.5 * ((x - 1) / x + log((x + 1) / (2 * x))),
            f_second=Rational((1,), (2, 2, 0, 0)),
            f_text="(x-1)/2 + ((x+1)/2)*ln((x+1)/(2x))",
            f_second_text="1/(2*x^2*(x+1))",
        ),
        Generator(
            "G2",
            f=lambda x: TERMS["G2"](x, 1.0) + (1 - x) / 2,
            f_prime=lambda x: 0.5 * log((x + 1) / 2),
            f_second=Rational((1,), (2, 2)),
            f_text="(1-x)/2 + ((x+1)/2)*ln((x+1)/2)",
            f_second_text="1/(2*(x+1))",
        ),
        Generator(
            "J",
            f=lambda x: TERMS["J"](x, 1.0),
            f_prime=lambda x: 1 - 1 / x + log(x),
            f_second=Rational((1, 1), (1, 0, 0)),
            f_text="(x-1)*ln(x)",
            f_second_text="(x+1)/x^2",
        ),
        Generator(
            "I",
            f=lambda x: TERMS["I"](x, 1.0),
            f_prime=lambda x: -0.5 * log((x + 1) / (2 * x)),
            f_second=Rational((1,), (2, 2, 0)),
            f_text="(x/2)*ln(x) - ((x+1)/2)*ln((x+1)/2)",
            f_second_text="1/(2*x*(x+1))",
        ),
        Generator(
            "T",
            f=lambda x: TERMS["T"](x, 1.0),
            f_prime=lambda x: 0.25 * (1 - 1 / x + 2 * log((x + 1) / (2 * sqrt(x)))),
            f_second=Rational((1, 0, 1), (4, 4, 0, 0)),
            f_text="((x+1)/2)*ln((x+1)/(2*sqrt(x)))",
            f_second_text="(x^2+1)/(4*(x^3+x^2))",
        ),
    ]
    return {g.id: g for g in gens}


_CATALOG = _make_catalog()


def catalog() -> dict:
    """All nine named generators, keyed by measure id."""
    return dict(_CATALOG)


def get_generator(measure) -> Generator:
    """A :class:`Generator` unchanged, or the catalog's generator of an id;
    UnknownMeasure for anything else, unhashable or not."""
    if isinstance(measure, Generator):
        return measure
    try:
        return _CATALOG[measure]
    except (KeyError, TypeError):
        raise UnknownMeasure(f"no generator for measure {measure!r}") from None


def catalog_id(measure):
    """A catalog generator's id, named or passed as itself; None for any other."""
    gen = get_generator(measure)
    return gen.id if _CATALOG.get(gen.id) is gen else None


def phi_generator(s: float) -> Generator:
    """Generator of the power-divergence family member with parameter s.

    f(x) = (x^s - 1) / (s(s-1)), f''(x) = x^(s-2) at every s; the poles of f
    at s = 0 and s = 1 dispatch to the limit forms -ln(x) and x*ln(x).  The
    family is written only here: phi_s and its E/A/B bounds are the Csiszar
    sum and the generic functionals of this generator.  Its id, which their
    error messages name, carries s exactly: PHI_S(0.5), PHI_S(1.0000001);
    PHI_S(0) and PHI_S(1) name the poles' limit forms.
    """
    return _phi_generator(float(require_finite_s(s)))


@functools.lru_cache(maxsize=256)  # asked by every phi_s and bound_interval; one object per s keys PairTable
def _phi_generator(s: float) -> Generator:
    f_second = Rational((1,), (1,), a=s)
    if abs(s) <= S_POLE_TOL:
        return Generator("PHI_S(0)", f=lambda x: -np.log(x), f_prime=lambda x: -1.0 / x, f_second=f_second)
    if abs(s - 1.0) <= S_POLE_TOL:
        return Generator("PHI_S(1)", f=lambda x: x * np.log(x), f_prime=lambda x: np.log(x) + 1.0, f_second=f_second)
    c = 1.0 / (s * (s - 1.0))
    return Generator(
        f"PHI_S({s!r})",
        f=lambda x: (x**s - 1.0) * c,
        f_prime=lambda x: x ** (s - 1.0) / (s - 1.0),
        f_second=f_second,
    )


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # NumericOverflow is the only signal
def eval_csiszar(gen: Generator, P: Distribution, Q: Distribution) -> float:
    """The Csiszar sum sum_i q_i f(p_i/q_i) of a Generator or catalog id;
    nonnegative for normalized convex f.  Memoized for the latest pair.
    Raises NumericOverflow where it leaves the float range, and
    UnknownMeasure for anything but a Generator or catalog id."""
    pair_probs(P, Q)
    gen = get_generator(gen)
    return finite_cf(gen, csiszar_value(gen, P, Q))


def csiszar_value(gen: Generator, P: Distribution, Q: Distribution) -> float:
    """The raw Csiszar sum of gen on a pair of one length, a float that is
    inf or nan where the sum leaves the float range, memoized for the
    latest pair by Generator equality: phi_s(s) and
    eval_csiszar(phi_generator(s)) share an entry, and two generators with
    one id but their own f never do.  Every generator's sum reads the one
    ratio vector x of the pair (:func:`pair_vector`)."""
    return memoized(P, Q, gen, lambda: float(csiszar_sums(gen, Q.probs, pair_vector(P, Q, "x"))))


def csiszar_sums(gen: Generator, q, x):
    """C_f from a probability vector q and the ratio vector x = p / q, or
    row by row on (k, n) blocks; a long pair is summed by :func:`term_sum`."""
    if len(q) > TERM_SLICE:
        return term_sum(lambda q, x: q * gen.f(x), q, x)
    return np.add.reduce(q * gen.f(x), axis=-1)


#: Entries in one slice of a long pair's term vector (:func:`term_sum`): a
#: multiple of 64, so that every slice starts where numpy's SIMD loops
#: start a block on the whole vector.  A slice and its temporaries
#: (256 KiB each) stay in a 2 MiB L2.
TERM_SLICE = 32768

_worker = None  # term_sum's one worker thread (an executor), made on first use
_worker_ident = None  # that thread's id, once it has run a half
_worker_lock = threading.Lock()  # callers in two threads make one worker


def term_sum(term, a, b):
    """``np.add.reduce(term(a, b), axis=-1)``, bit for bit, for an
    elementwise term of two arrays of one shape.

    A 1-D pair longer than :data:`TERM_SLICE` is summed in slices: term
    is written into one array, slice by slice, the upper half of the
    slices by the one worker thread (numpy releases the GIL in its loops)
    and the lower half by the caller, and that array is reduced once.  The bits cannot move: an elementwise loop gives an entry the
    same value wherever its slice starts, slices that start at multiples
    of 64 leave the SIMD tail on the same last entries, and the one reduce
    sees the array that ``term(a, b)`` returns.  The worker runs under the
    caller's numpy error state, and the call returns or raises only once
    the worker is done: the caller's error first, else the worker's.
    Every other input takes the one-line path, as does a call from the
    worker itself (a term that sums a long pair), which would wait on its
    own thread; the callers test the length inline, so a short pair makes
    no extra call.
    """
    if a.ndim != 1 or a.shape[0] <= TERM_SLICE or threading.get_ident() == _worker_ident:
        return np.add.reduce(term(a, b), axis=-1)
    n = a.shape[0]
    split = TERM_SLICE * (-(-n // TERM_SLICE) // 2)
    out = np.empty(n)
    job = _pool().submit(_fill_under, np.geterr(), term, a, b, out, split, n)
    try:
        _fill(term, a, b, out, 0, split)
    finally:
        failed = job.exception()  # waits: out is written only while the call runs
    if failed is not None:
        raise failed
    return np.add.reduce(out, axis=-1)


def _fill(term, a, b, out, lo, hi):
    for i in range(lo, hi, TERM_SLICE):
        j = min(i + TERM_SLICE, hi)
        out[i:j] = term(a[i:j], b[i:j])


def _fill_under(err, *args):
    global _worker_ident
    _worker_ident = threading.get_ident()
    with np.errstate(**err):  # numpy's error state is per context, and a thread starts with the default
        _fill(*args)


def _pool():
    global _worker
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor

            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="divbounds-term")
        return _worker


def _drop_worker():
    global _worker, _worker_ident, _worker_lock
    # A forked child has no worker thread and may hold a copy of a taken lock.
    _worker, _worker_ident, _worker_lock = None, None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_worker)


def finite_cf(gen: Generator, value):
    """C_f values (a float or an array of trials) unchanged, or
    NumericOverflow when one is inf or nan."""
    return require_finite(value, "C_f of {}", gen.id)


@dataclass(frozen=True)
class GeneratorCheck:
    """Numeric certificate for a generator's normalization and convexity."""

    max_abs_f_at_1: float
    min_f_second: float
    max_f_prime_dev: float  # relative, vs centered difference of f
    max_f_second_dev: float  # relative, vs centered difference of f'


def check_generator(gen: Generator, grid) -> GeneratorCheck:
    """Certify f(1) = 0, f'' > 0, and derivative consistency on a grid.

    Derivatives are compared against centered finite differences with
    step 1e-6 * x; deviations are reported relative to 1 + |analytic|.
    """
    x = np.asarray(grid, dtype=np.float64)
    h = 1e-6 * x
    fp = gen.f_prime(x)
    fpp = gen.f_second(x)
    fp_num = (gen.f(x + h) - gen.f(x - h)) / (2 * h)
    fpp_num = (gen.f_prime(x + h) - gen.f_prime(x - h)) / (2 * h)
    return GeneratorCheck(
        max_abs_f_at_1=abs(float(gen.f(1.0))),
        min_f_second=float(fpp.min()),
        max_f_prime_dev=float(np.max(np.abs(fp_num - fp) / (1.0 + np.abs(fp)))),
        max_f_second_dev=float(np.max(np.abs(fpp_num - fpp) / (1.0 + np.abs(fpp)))),
    )
