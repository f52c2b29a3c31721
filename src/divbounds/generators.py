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

Every pair sum is an elementwise term reduced over the last axis, summed
as this module alone decides: a measure's by :data:`TERM_SUMS`, and
C_f = sum q f(x) and E = sum (p - q) f'(x), x = p / q, by the one core
:func:`weighted_sum`.  A pair longer than :data:`TERM_SLICE` entries is
summed by :func:`term_sum`, in the caller's thread, leaf by leaf along
the tree that numpy's pairwise sum follows: the term is evaluated on one
window per leaf, the leaf is reduced at once, and the leaf sums are added
pairwise up the tree, so a sum holds O(TERM_SLICE) memory whatever the
pair's length.  The sum keeps the bits of numpy's reduce of the whole
term vector, as windows that start at multiples of 64 give every entry
its bits and numpy reduces a contiguous vector in one pairwise pass.
Short pairs and (k, n) blocks take the one-line sum; a layout, one row
sum per block view.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EmptyOrTooShort, InvalidArgument, NonFinite, NonPositiveX, NumericOverflow, UnknownMeasure, real_array, require_finite, require_finite_s
from .simplex import Distribution, memoized, pair_probs, pair_vector

#: Identifiers of the nine fixed generators, in catalog order.
CATALOG_IDS = ("D1", "D2", "F1", "F2", "G1", "G2", "J", "I", "T")

#: Dispatch threshold for the s = 0 and s = 1 poles of the power family.
#: Direct evaluation of (x^s - 1)/(s(s-1)) is catastrophically cancellative
#: near the poles, and the limit forms take over only inside this distance,
#: so just outside it phi_s loses 5-6 digits: against tests/oracle.py, on
#: the first 60 pairs of TrialConfig(seed=42), the relative error reaches
#: 6.3e-6 at s = 2e-10 and 3.3e-6 at s = 1 - 2e-10.  ROADMAP.md item 20
#: (phi_s as one alpha-divergence term) removes the dispatch.
S_POLE_TOL = 1e-10

#: A check fails when its slack (bound minus bounded quantity) is below this,
#: an absolute threshold meant for the rounding of sums of up to 64 entries
#: of O(1)-O(100) quantities.  Larger ones occur: at concentration 30 (seed
#: 3, 300 trials) phi_s reaches 5e11 at s = 2 and 1.7e23 at s = 3, where
#: rounding alone exceeds it.  ROADMAP.md item 15 (slack judged against a
#: rounding bound) replaces it with a relative rule.
VIOLATION_TOL = -1e-9


def all_hold(slacks) -> bool:
    """Whether no slack is below :data:`VIOLATION_TOL`; a nan slack fails."""
    return all(slack >= VIOLATION_TOL for slack in slacks)


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
        return SplitPowers(x).times_power(self, s)


class SplitPowers:
    """An array x > 0 split at 1 as :meth:`Rational.times_power` splits it,
    which keeps every part of g it computes: the power x^e of each exponent
    e and the n(y) / d(y) of each (n, d), a column over one side's entries.
    Rationals and s that share an exponent or an (n, d) share its column."""

    __slots__ = ("shape", "sides", "powers", "ratios")

    def __init__(self, x: np.ndarray):
        self.shape = x.shape
        high = x > 1.0
        self.sides = ((~high, x[~high], x[~high]), (high, x[high], 1.0 / x[high]))  # (at, x, y)
        self.powers, self.ratios = {}, {}

    def times_power(self, rational: Rational, s: float) -> np.ndarray:
        """:meth:`Rational.times_power` at every entry of x, bit for bit."""
        out = np.empty(self.shape)
        for side, (at, x, y), (k, n, d) in zip((0, 1), self.sides, (rational.low, rational.high)):
            e = (rational.a - s) + k
            power = self.powers.get((side, e))
            if power is None:
                power = self.powers[side, e] = float_pow(x, e)
            ratio = self.ratios.get((side, n, d))
            if ratio is None:
                ratio = self.ratios[side, n, d] = horner(n, y) / horner(d, y)
            out[at] = power * ratio
        return out


@dataclass(frozen=True)
class Generator:
    """A divergence's generating triple on (0, inf), with f(1) = 0.

    f'' is a :class:`Rational`; catalog generators also carry the formula
    text of f and f'' that the catalog command prints.  f and f' must be
    elementwise: an entry's value may depend on that entry alone, as the
    Csiszar sum of a long pair evaluates them window by window
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
    return memoized(P, Q, gen, lambda: float(weighted_sum(gen.f, Q.probs, pair_vector(P, Q, "x"))))


def weighted_sum(h, w, x, views=None):
    """sum w * h(x) over the last axis, for one pair or row by row on (k, n)
    blocks: C_f with h = f, w = q and E with h = f', w = p - q, x = p / q;
    a layout or a pair longer than :data:`TERM_SLICE` goes to :func:`term_sum`."""
    if views is not None or len(w) > TERM_SLICE:
        return term_sum(lambda w, x: w * h(x), w, x, views)
    return np.add.reduce(w * h(x), axis=-1)


#: Most entries in one leaf of a long pair's sum (:func:`term_sum`), so
#: that a term's temporaries (at most about 256 KiB each) exist for one
#: leaf's window at a time: with x and d formed, a sum of n entries of I
#: or T (divergence, C_f or E) peaks at 2.3 to 3.85 x 8 x TERM_SLICE bytes
#: under tracemalloc at n = 400k and 1M, where the term on the whole pair
#: peaks at 3 to 4 x 8n.  No n-entry vector is written and read back: a
#: window is reduced while it is still in cache.
TERM_SLICE = 32768


def _pairwise_leaves(n: int) -> list:
    """The nodes [i, j) of numpy's pairwise sum of n entries, at the first
    depth where no node holds more than :data:`TERM_SLICE` entries.  numpy
    splits a node of more than 128 entries at half its length, rounded down
    to a multiple of 8, and adds the two halves' sums; every node this
    splits is longer than 128."""
    nodes = [(0, n)]
    while max(j - i for i, j in nodes) > TERM_SLICE:
        halves = []
        for i, j in nodes:
            h = i + (j - i) // 2 // 8 * 8
            halves += [(i, h), (h, j)]
        nodes = halves
    return nodes


def term_sum(term, a, b, views=None):
    """``np.add.reduce(term(a, b), axis=-1)``, bit for bit, for an
    elementwise term of two arrays of one shape; with views, for each
    (k, n) block view that views(t) gives of the 1-D layout t = term(a, b).

    A 1-D pair longer than :data:`TERM_SLICE` is summed leaf by leaf along
    the tree of numpy's pairwise sum (:func:`_pairwise_leaves`), in the
    caller's thread: term is evaluated on one window per leaf, the leaf is
    reduced from its window, and the leaf sums are added pairwise up the
    tree, so no array of n entries is made.  The bits cannot move:

    - every window starts at a multiple of 64 and ends one width later,
      the same multiple of 64 for every leaf, or at n; an elementwise loop
      then gives an entry the bits it has in ``term(a, b)``, as SIMD
      blocks start and the tail falls where they do on the whole vector;
    - numpy reduces a contiguous 1-D float64 array in one pairwise pass
      added to the identity 0.0, so each leaf's reduce is its node's sum
      and each pairwise add a parent node's, up to the sign of a zero,
      which the last reduce, the root's sum added to 0.0, clears.

    Every other input takes the one-line path.  :func:`weighted_sum` tests
    the length inline, so its short pairs make no extra call.
    """
    if views is not None:
        return np.concatenate([np.add.reduce(view, axis=-1) for view in views(term(a, b))])
    if a.ndim != 1 or a.shape[0] <= TERM_SLICE:
        return np.add.reduce(term(a, b), axis=-1)
    n = a.shape[0]
    leaves = _pairwise_leaves(n)
    starts = [i - i % 64 for i, _ in leaves]
    width = (max(j - start for start, (_, j) in zip(starts, leaves)) + 63) // 64 * 64
    sums = np.empty(len(leaves))
    for k, (start, (i, j)) in enumerate(zip(starts, leaves)):
        end = min(start + width, n)
        sums[k] = np.add.reduce(term(a[start:end], b[start:end])[i - start : j - start])
    while sums.shape[0] > 1:
        sums = sums[0::2] + sums[1::2]
    return np.add.reduce(sums)


#: Each named measure's sum over the last axis: :func:`term_sum` of its term.
TERM_SUMS = {mid: functools.partial(term_sum, term) for mid, term in TERMS.items()}


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


@np.errstate(over="raise", invalid="raise", divide="raise")  # raised as NumericOverflow
def check_generator(gen: Generator, grid) -> GeneratorCheck:
    """Certify f(1) = 0, f'' > 0, and derivative consistency on a grid.

    Derivatives are compared against centered finite differences with
    step 1e-6 * x; deviations are reported relative to 1 + |analytic|.
    Raises EmptyOrTooShort for an empty grid and, as ``g_eval`` does,
    NonPositiveX for an entry x <= 0 or nan and NonFinite for an inf;
    NumericOverflow where a value or a step leaves the float range.
    """
    x = real_array(grid, "grid entries")
    if x.size == 0:
        raise EmptyOrTooShort("check_generator needs a nonempty grid")
    if not np.all(x > 0.0):
        raise NonPositiveX(f"grid entries must be > 0, got {x[~(x > 0.0)][0]}")
    if np.isinf(x).any():
        raise NonFinite("grid entries must be finite, got inf")
    try:
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
    except FloatingPointError as exc:
        raise NumericOverflow(f"check_generator of {gen.id} on this grid leaves the float range ({exc})") from None
