"""Sandwich bounds m * phi_s <= C_f <= M * phi_s.

The key object is g(x) = x^(2-s) * f''(x).  If m <= g <= M on the ratio
range [r, R] of a pair (P, Q), then C_f(P||Q) is sandwiched between
m * phi_s(P||Q) and M * phi_s(P||Q).  Every f'' is a Rational x^(a-2) N/D
(a = 2 in the catalog, a = t for phi_t's x^(t-2)), so on x > 0 the sign of
g' is the sign of the stationarity polynomial

    S_s(x) = (a-s) N D + x (N'D - N D'),

of degree at most 3 in the catalog once the factors x and x+1 are divided
out (the constant t - s for phi_t).  (m, M) have one rule, exact for
every s and every generator, catalog or not: the extremes of g over r, R
and the positive roots of S_s, g's stationary points, inside (r, R).
Those roots depend on f'' and s alone, never on the pair: they are found
once per (f'', s) and memoized.  Where S_s has no root inside (r, R), g is
monotone there and the endpoints alone decide.  The paper's monotone
regions (:data:`CLOSED_FORM_REGIONS`) are its claim that S_s has no
positive root there; the tests check them against the roots.  Each
global extremum the paper names is g at the single positive root of S_s.
An independent numeric optimizer (log-spaced scan plus golden-section
refinement), :func:`mm_numeric`, is kept as the test oracle.  g has
one formula, g = x^((a-s)+k) * n(y) / d(y) from the scaled form of f'',
which leaves the float range only where g does; g_eval raises there, and
an array of x follows its float path bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    InvalidArgument,
    InvalidRange,
    NonPositiveX,
    NotTabulated,
    NumericOverflow,
    real_array,
    require_finite,
    require_finite_s,
)
from .generators import (
    Generator,
    SplitPowers,
    all_hold,
    catalog_id,
    csiszar_value,
    eval_csiszar,
    finite_cf,
    get_generator,
    horner,
    phi_generator,
    weighted_sum,
)
from .measures import finite_phi, phi_s
from .simplex import Distribution, RatioRange, pair_ratios, pair_vector, ratio_range

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = _INV_PHI**2

NUMERIC_GRID_POINTS = 4096  # samples of the mm_numeric scan


def g_eval(gen: Generator, s: float, x):
    """x^(2-s) * f''(x); accepts a positive scalar or array.

    The float path defines g: x^((a-s)+k) * n(y) / d(y) in the scaled form
    of the Rational f'' (:meth:`Rational.times_power`), and NumericOverflow
    where it is not finite or is 0 (an infinite g turns m * phi_s into nan,
    a zero g certifies m = 0 or M = 0).  An array of any shape follows it
    entry by entry: the same scaled form on the whole array, and an entry
    where that is not finite or is 0 takes the float path, which raises
    there, in array order.  Raises NonFinite for a nan or infinite s, and
    UnknownMeasure for anything but a Generator or catalog id.
    """
    require_finite_s(s)
    gen = get_generator(gen)
    if isinstance(x, float):
        return _g_float(gen, s, x)
    arr = real_array(x, "x")
    if not np.all(arr > 0.0):
        raise NonPositiveX(f"x must be > 0, got {x}")
    flat = arr.ravel()
    with np.errstate(over="ignore"):  # x^((a-s)+k) near the float max, times n/d
        out = gen.f_second.times_power(flat, s)
    for i in np.flatnonzero(~np.isfinite(out) | (out == 0.0)).tolist():
        out[i] = _g_float(gen, s, flat[i].item())
    return float(out[0]) if np.isscalar(x) or arr.ndim == 0 else out.reshape(arr.shape)


def _g_float(gen: Generator, s: float, x: float) -> float:
    """:func:`g_eval`'s float path, at an s already checked."""
    if not x > 0.0:
        raise NonPositiveX(f"x must be > 0, got {x}")
    try:
        v = gen.f_second.times_power(x, s)
    except (OverflowError, ZeroDivisionError):
        v = math.inf
    if not math.isfinite(v) or v == 0.0:
        raise NumericOverflow(f"g(x) = x^(2-s) f''(x) leaves the float range at x={x!r}, s={s!r}")
    return v


@dataclass(frozen=True, slots=True)
class MMBounds:
    """Extrema of g on [r, R], with provenance of how they were obtained."""

    m: float
    M: float
    method: str  # "closed_form" | "numeric"
    s: float
    range: RatioRange


def _golden_min(fn, a: float, b: float, rel_tol: float = 1e-12) -> float:
    """Minimum value of a unimodal fn on [a, b], bracket shrunk to rel_tol."""
    h = b - a
    tol = rel_tol * max(1.0, abs(a), abs(b))
    if h <= tol:
        return min(fn(a), fn(b))
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = fn(c), fn(d)
    for _ in range(n):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = fn(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = fn(d)
    return min(yc, yd)


def mm_numeric(gen: Generator, s: float, rng: RatioRange) -> MMBounds:
    """Independent oracle for (m, M): scan + golden-section refinement.

    Evaluates g on a log-spaced grid over [r, R], then refines every
    bracketed interior extremum (a sample at least as extreme as both
    neighbours) and, unconditionally, the first and last grid cells, where
    an extremum has only one sampled neighbour and shows no such sample.
    Two stationary points inside one grid cell can still hide each other.
    Raises NonFinite for a nan or infinite s, and UnknownMeasure for
    anything but a Generator or catalog id.
    """
    require_finite_s(s)
    gen = get_generator(gen)
    r, R = _ends(rng)
    if r == R:
        v = g_eval(gen, s, r)
        return MMBounds(v, v, "numeric", s, rng)
    xs = np.exp(np.linspace(math.log(r), math.log(R), NUMERIC_GRID_POINTS))
    xs[0], xs[-1] = r, R
    gs = g_eval(gen, s, xs)
    lo = float(gs.min())
    hi = float(gs.max())
    if hi - lo <= 1e-12 * (1.0 + abs(hi)):
        # Constant up to rounding (e.g. the power generator at its own s);
        # rounding jitter would otherwise fake thousands of local extrema.
        return MMBounds(lo, hi, "numeric", s, rng)
    # Interior samples at least as extreme as both neighbors bracket a
    # stationary point (<= / >= rather than strict comparison: a symmetric
    # extremum can land exactly between two equal-valued samples).
    interior = gs[1:-1]
    min_idx = np.nonzero((interior <= gs[:-2]) & (interior <= gs[2:]))[0]
    max_idx = np.nonzero((interior >= gs[:-2]) & (interior >= gs[2:]))[0]
    end_cells = ((float(xs[0]), float(xs[1])), (float(xs[-2]), float(xs[-1])))

    def refine(indices, sign, best):
        """sign=+1 lowers `best` toward minima, sign=-1 raises it toward maxima."""
        brackets = list(end_cells)
        prev = -2
        for j in indices:
            if j != prev + 1:  # a run of indices is one plateau / extremum
                brackets.append((float(xs[j]), float(xs[min(j + 3, NUMERIC_GRID_POINTS - 1)])))
            prev = j
        for a, b in brackets:
            v = sign * _golden_min(lambda x: sign * g_eval(gen, s, x), a, b)
            best = min(best, v) if sign > 0 else max(best, v)
        return best

    lo = refine(min_idx, 1.0, lo)
    hi = refine(max_idx, -1.0, hi)
    return MMBounds(lo, hi, "numeric", s, rng)


#: The paper's monotone regions (s_low, s_high) per catalog measure: its
#: claim that g is increasing on (0, inf) for s <= s_low and decreasing for
#: s >= s_high, i.e. that S_s has no positive root there (the tests check
#: it against the roots).  No (m, M) is computed from it: it decides only
#: where :func:`mm_closed` returns None, which s the harness's cor and thm
#: sandwich suites take, and the regions that ``catalog`` prints.
CLOSED_FORM_REGIONS = {
    "D1": (0.75, 2.0),
    "D2": (-1.0, 0.25),
    "F1": (-1.0, 1.0),
    "F2": (0.0, 2.0),
    "G1": (-1.0, 0.0),
    "G2": (1.0, 2.0),
    "J": (0.0, 1.0),
    "I": (0.0, 1.0),
    "T": (-1.0, 2.0),
}


def _div_x_plus_1(a: tuple) -> tuple:
    """Quotient of a by x + 1 (synthetic division; the remainder must be 0)."""
    out, acc = [], 0
    for c in a:
        acc = c - acc
        out.append(acc)
    return tuple(out[:-1])


def _polyder(c: np.ndarray) -> np.ndarray:
    """c'; [0] for a constant, where np.polyder is empty and np.convolve rejects it."""
    return np.polyder(c) if c.size > 1 else np.zeros(1, dtype=c.dtype)


def _stationarity(f_second) -> tuple:
    """(A, B), tuples of equal length, with S_s = A + s*B for the Rational f''.

    The powers of x and of x + 1 that A and B share are divided out: every
    catalog denominator is a product of 2, x and x + 1, and both divisors
    are positive on x > 0, so the sign of S_s (and of g') is kept.  S_s
    depends on f'' alone; :func:`_stationary_points` caches its roots.
    """
    n, d = np.array(f_second.num), np.array(f_second.den)
    nd = np.convolve(n, d)
    cross = np.polysub(np.convolve(_polyder(n), d), np.convolve(n, _polyder(d)))
    a = np.polyadd(f_second.a * nd, np.append(cross, 0))
    b = np.polysub(np.zeros_like(a), nd)  # -N D, as long as A
    a, b = tuple(a.tolist()), tuple(b.tolist())  # plain Python numbers, not numpy scalars
    while a[-1] == b[-1] == 0:
        a, b = a[:-1], b[:-1]
    while horner(a, -1) == horner(b, -1) == 0:
        a, b = _div_x_plus_1(a), _div_x_plus_1(b)
    return a, b


def _bracketed_root(c: list, a: float, b: float, neg_a: bool) -> float:
    """Root of the polynomial c in (a, b), where c is monotone and changes
    sign (neg_a: c(a) < 0).

    Safeguarded Newton: a step is taken when it stays inside the shrinking
    bracket and at least halves the step before it, else the bracket is
    bisected geometrically (0 < a, and [a, b] may span many decades).
    """
    x = math.sqrt(a) * math.sqrt(b)
    step = math.inf
    for _ in range(200):
        p = dp = 0.0
        for k in c:
            dp = dp * x + p
            p = p * x + k
        if p == 0.0:
            return x
        if (p < 0.0) == neg_a:
            a = x
        else:
            b = x
        nxt = x - p / dp if dp != 0.0 else a
        if not (a < nxt < b and abs(nxt - x) < 0.5 * step):
            nxt = math.sqrt(a) * math.sqrt(b)
        step = abs(nxt - x)
        if step <= 4e-16 * x:
            return nxt
        x = nxt
    return x


def _real_roots(c: list, lo: float, hi: float) -> list:
    """Real roots inside (lo, hi), 0 < lo, of the polynomial c (highest power first)."""
    while c and c[0] == 0.0:
        c = c[1:]
    n = len(c) - 1
    if n <= 0:
        return []
    if n == 1:
        roots = [-c[1] / c[0]]
    elif n == 2:
        c2, c1, c0 = c
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0.0:
            return []
        q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))  # no cancellation
        roots = [q / c2, c0 / q] if q != 0.0 else []
    else:
        # c is monotone between consecutive roots of c', so each sign change
        # between them brackets exactly one root.
        dc = [(n - i) * k for i, k in enumerate(c[:-1])]
        knots = [lo, *sorted(_real_roots(dc, lo, hi)), hi]
        signs = [horner(c, x) < 0.0 for x in knots]
        roots = [_bracketed_root(c, a, b, sa) for a, b, sa, sb in zip(knots, knots[1:], signs, signs[1:]) if sa != sb]
    return [x for x in roots if lo < x < hi]


def _positive_roots(c: list) -> list:
    """Positive real roots of the polynomial c (highest power first), found
    between Cauchy's bounds on c and on its reversal, roots at 0 divided out."""
    c = np.trim_zeros(np.asarray(c, dtype=np.float64)).tolist()
    if len(c) < 2:
        return []
    hi = 1.0 + max(abs(k / c[0]) for k in c[1:])
    lo = 1.0 / (1.0 + max(abs(k / c[-1]) for k in c[:-1]))
    return _real_roots(c, lo, hi)


def _stationarity_poly(f_second, s: float) -> list:
    """S_s = A + s*B of f'', coefficients highest power first."""
    a, b = _stationarity(f_second)
    return [x + s * y for x, y in zip(a, b)]


@functools.lru_cache(maxsize=256)  # asked by every (m, M)
def _stationary_points(f_second, s: float) -> tuple:
    """The stationary points of g = x^(2-s) f'' at a finite s: the positive
    roots of S_s.  They depend on (f'', s) alone, so they are found once
    and each range keeps those inside (r, R)."""
    return tuple(_positive_roots(_stationarity_poly(f_second, s)))


def mm_closed(measure, s: float, rng: RatioRange) -> Optional[MMBounds]:
    """:func:`mm_exact` where the paper proves g monotone; None in the gap
    that :data:`CLOSED_FORM_REGIONS` leaves a catalog generator
    (:func:`catalog_id`).  Any other generator has no gap: phi_generator(t)'s
    g(x) = x^(t-s) is monotone for every s (m = M = 1 when t = s).  Raises
    NonFinite for a nan or infinite s."""
    lo, hi = CLOSED_FORM_REGIONS.get(catalog_id(measure), (math.inf, -math.inf))
    return None if lo < require_finite_s(s) < hi else mm_exact(measure, s, rng)


def mm_exact(measure, s: float, rng: RatioRange) -> MMBounds:
    """Exact (m, M) for every s and measure: the extremes of g over r, R
    and the stationary points of f'' inside (r, R), found once per (f'', s),
    not per range (:func:`mm_exact_values`).  Raises NonFinite for a nan or
    infinite s."""
    return MMBounds(*mm_exact_values(measure, s, *_ends(rng)), "closed_form", s, rng)


def _ends(rng: RatioRange) -> tuple:
    """(r, R) of a RatioRange, or InvalidArgument for anything else."""
    if not isinstance(rng, RatioRange):
        raise InvalidArgument(f"need a RatioRange, got {type(rng).__name__}")
    return rng.r, rng.R


def mm_exact_values(measure, s: float, r: float, R: float) -> tuple:
    """(m, M) of :func:`mm_exact` on [r, R], 0 < r <= R, as plain floats:
    g's min and max at r, at R and at each memoized stationary point
    (:func:`_stationary_points`) inside (r, R), in that order, the scalar
    form of :func:`mm_exact_arrays`.  s is checked once, and a Generator,
    which a caller has resolved already, is not resolved again."""
    gen = measure if isinstance(measure, Generator) else get_generator(measure)
    require_finite_s(s)
    m, M = _g_float(gen, s, float(r)), _g_float(gen, s, float(R))
    if M < m:
        m, M = M, m
    for x in _stationary_points(gen.f_second, s):
        if r < x < R:
            v = _g_float(gen, s, x)
            m, M = min(m, v), max(M, v)
    return m, M


def mm_exact_arrays(measure, s: float, r: np.ndarray, R: np.ndarray, powers: Optional[SplitPowers] = None) -> tuple:
    """(m, M) arrays of :func:`mm_exact_values` at every (r[i], R[i]), bit
    for bit, by the same rule: the min and max of g at r, at R and, where
    it lies inside (r, R), at each stationary point.

    g at r and R is :meth:`Rational.times_power` on the entries of r then
    R, from the parts of powers, their :class:`SplitPowers`, made afresh
    when not given: a caller that gives one to every cell of an (r, R)
    shares one power per distinct exponent and one n(y) / d(y) per f''
    across the cells, bit for bit.  A stationary point's g is one scalar
    :func:`_g_float`.  m and M are nan at an entry where g at one of its
    candidates is not finite or is 0, which is where the scalar form
    raises.  Raises NonFinite for a nan or infinite s.
    """
    gen = get_generator(measure)
    require_finite_s(s)
    r, R = np.asarray(r, dtype=np.float64), np.asarray(R, dtype=np.float64)
    points = _stationary_points(gen.f_second, s)
    if powers is None:
        powers = SplitPowers(np.concatenate([r.ravel(), R.ravel()]))
    with np.errstate(over="ignore"):  # x^((a-s)+k) near the float max, times n/d
        g = powers.times_power(gen.f_second, s)
    if not (np.isfinite(g).all() and g.all()):
        g[~np.isfinite(g) | (g == 0.0)] = np.nan  # a nan propagates through min and max
    g = [g[: r.size], g[r.size :]]
    for x in points:
        inside = (r < x) & (x < R)
        if inside.any():
            try:
                v = _g_float(gen, s, x)
            except NumericOverflow:
                v = math.nan
            g.append(np.where(inside, v, g[0]))
    # Elementwise over the few candidate rows: numpy's reduction along a
    # short contiguous axis costs about 40 times as much.
    return functools.reduce(np.minimum, g), functools.reduce(np.maximum, g)


@dataclass(frozen=True)
class GlobalExtremum:
    """A global sup or inf of g over (0, inf), and the x attaining it."""

    kind: str  # "sup" | "inf"
    value: float
    x: float


#: The (measure, s) at which the paper names the global extremum of g.
_PAPER_EXTREMA = (
    ("D1", 1.0), ("D2", 0.0), ("F1", 0.0), ("F1", 0.5), ("F2", 0.5), ("F2", 1.0),
    ("J", 0.5), ("I", 0.5), ("T", 0.0), ("T", 0.5), ("T", 1.0),
)


def _global_extremum(measure: str, s: float) -> GlobalExtremum:
    """g's global extremum over (0, inf), at the single positive root of S_s:
    a sup where S_s, the sign of g', is positive to its left, else an inf."""
    gen = get_generator(measure)
    roots = _stationary_points(gen.f_second, s)
    if len(roots) != 1:
        raise RuntimeError(f"S_s of {measure} at s={s} has {len(roots)} positive roots, not 1")
    x = roots[0]
    kind = "sup" if horner(_stationarity_poly(gen.f_second, s), 0.5 * x) > 0.0 else "inf"
    return GlobalExtremum(kind, g_eval(gen, s, x), x)


_GLOBAL = {key: _global_extremum(*key) for key in _PAPER_EXTREMA}


def global_extrema(measure, s: float) -> GlobalExtremum:
    """Global extremum of g over (0, inf) at a (catalog generator, s) the
    paper names (:func:`catalog_id`)."""
    try:
        return _GLOBAL[(catalog_id(measure), float(require_finite_s(s)))]
    except KeyError:
        raise NotTabulated(f"no tabulated global extremum for ({measure}, s={s})") from None


def global_extrema_table() -> dict:
    """The full (measure, s) -> GlobalExtremum table."""
    return dict(_GLOBAL)


@np.errstate(over="ignore", invalid="ignore")  # NumericOverflow is the only signal
def e_cf(gen: Generator, P: Distribution, Q: Distribution) -> float:
    """Data-dependent bound functional sum (p_i - q_i) f'(p_i/q_i) of a
    Generator or catalog id, from the pair's d = p - q and x = p / q
    (:func:`pair_vector`, formed once for the latest pair); raises
    NumericOverflow where it leaves the float range."""
    d, x = pair_vector(P, Q, "d"), pair_vector(P, Q, "x")
    gen = get_generator(gen)
    return require_finite(float(weighted_sum(gen.f_prime, d, x)), f"e_cf of {gen.id}")


@np.errstate(all="ignore")  # NumericOverflow is the only signal
def a_cf(gen: Generator, rng: RatioRange) -> float:
    """Range-only bound functional (R-r)/4 * (f'(R) - f'(r)) of a Generator
    or catalog id; raises NumericOverflow where it leaves the float range."""
    gen = get_generator(gen)
    r, R = _ends(rng)
    if r == R:
        return 0.0
    return require_finite(float(a_cf_values(gen, np.array(r), np.array(R))), f"a_cf of {gen.id}")


def a_cf_values(gen: Generator, r, R):
    """a_cf on 0 < r <= R (0.0 where r == R), on arrays of ranges; a_cf
    passes one range as 0-d arrays, so it takes the same numpy loops and
    holds the bits of its entry in a column.  inf or nan where it leaves
    the float range."""
    return 0.25 * (R - r) * (gen.f_prime(R) - gen.f_prime(r))


@np.errstate(all="ignore")  # NumericOverflow is the only signal
def b_cf(gen: Generator, rng: RatioRange) -> float:
    """Chord bound functional [(R-1)f(r) + (1-r)f(R)] / (R-r) of a
    Generator or catalog id; raises NumericOverflow where it leaves the
    float range."""
    r, R = _ends(rng)
    if not b_defined(r, R):
        raise InvalidRange(f"need 0 < r <= 1 <= R with r != R, got {rng}")
    gen = get_generator(gen)
    return require_finite(float(b_cf_values(gen, np.array(r), np.array(R))), f"b_cf of {gen.id}")


def b_defined(r, R):
    """B's hypothesis r <= 1 <= R, r != R on 0 < r <= R: a bool, or a bool
    array on arrays of ranges.  A normalized pair can miss it by rounding
    (r <= R < 1, say), as P and Q sum to 1 only to rounding; bound_set,
    difference_bounds and the harness omit B there, as on r = R."""
    return (r <= 1.0) & (1.0 <= R) & (r != R)


def b_cf_values(gen: Generator, r, R):
    """b_cf on 0 < r <= 1 <= R, r != R, as :func:`a_cf_values`."""
    return ((R - 1.0) * gen.f(r) + (1.0 - r) * gen.f(R)) / (R - r)


@dataclass(frozen=True, slots=True)
class BoundReport:
    """A certified sandwich lower <= value <= upper for one measure."""

    measure: object
    s: float
    lower: float
    value: float
    upper: float
    mm: MMBounds
    lower_slack: float
    upper_slack: float

    @property
    def holds(self) -> bool:
        return all_hold((self.lower_slack, self.upper_slack))


def bound_interval(measure, s: float, P: Distribution, Q: Distribution) -> BoundReport:
    """Sandwich m * phi_s <= C_f <= M * phi_s for a catalog id or any
    Generator, phi_generator(t) or a user's, with the exact (m, M) of
    :func:`mm_exact` on the pair's own ratio range.  Raises NonFinite for a
    nan or infinite s, and NumericOverflow where R, g, phi_s, C_f or a
    bound leaves the float range.

    One pass under one np.errstate: s is checked first, by
    :func:`phi_generator`, the measure is resolved once, and x = p / q and
    the range are the pair's (:func:`pair_ratios`), each formed once while
    the pair is the latest.  phi_s is the latest-pair memo's entry of
    phi_generator(s) (:func:`csiszar_value`), which :func:`phi_s` and
    eval_csiszar(phi_generator(s)) share, so a sweep of the measures at
    one s sums it once.  C_f is sum q f(x) by :func:`weighted_sum`, the one
    sum core of those functions and :func:`e_cf`, made on every call: a
    memoized C_f runs more calls in the benchmark's fixed time, and the
    latency samples it keeps then exceed its RSS bound (ROADMAP item 1b).
    Every field holds the bits of :func:`ratio_range`, those public
    functions, :func:`mm_exact` and :func:`sandwich`, and every error but
    a bound's is theirs.
    """
    phi_gen = phi_generator(s)
    with np.errstate(over="ignore", invalid="ignore"):  # NumericOverflow is the only signal
        x, rng = pair_ratios(P, Q)
        gen = get_generator(measure)
        mm = mm_exact(gen, s, rng)
        phi = finite_phi(s, csiszar_value(phi_gen, P, Q))
        value = finite_cf(gen, float(weighted_sum(gen.f, Q.probs, x)))
        lower, upper, lower_slack, upper_slack = sandwich(mm.m, mm.M, phi, value)
    require_finite(lower, "m * phi_s")
    require_finite(upper, "M * phi_s")
    return BoundReport(measure, s, lower, value, upper, mm, lower_slack, upper_slack)


def sandwich(m, M, phi, value) -> tuple:
    """(lower, upper, lower slack, upper slack) of m * phi_s <= C_f <= M * phi_s,
    on floats or elementwise on arrays of trials; inf or nan where a value
    leaves the float range."""
    lower, upper = m * phi, M * phi
    return lower, upper, value - lower, upper - value


@dataclass(frozen=True)
class DifferenceReport:
    """Verdicts for the difference-form sandwiches on E/A/B functionals.

    For each form X in {E, A, B}, checks that X_Cf - C_f lies between
    m and M times (X_phi_s - phi_s).  ``checks`` maps a label to its
    slack; the B form is omitted where B is not defined (:func:`b_defined`).
    """

    s: float
    range: RatioRange
    mm: MMBounds
    checks: dict

    @property
    def holds(self) -> bool:
        return all_hold(self.checks.values())


def difference_bounds(gen: Generator, s: float, P: Distribution, Q: Distribution) -> DifferenceReport:
    """Check the three difference sandwiches for a Generator or catalog id,
    with the exact (m, M) of :func:`mm_exact` on the pair's own ratio
    range, which needs only the generator's Rational f''."""
    rng = ratio_range(P, Q)
    gen = get_generator(gen)
    mm = mm_exact(gen, s, rng)
    cf, phi = eval_csiszar(gen, P, Q), phi_s(s, P, Q)
    pair = (phi_generator(s), gen)
    forms = [("e", *(e_cf(g, P, Q) for g in pair)), ("a", *(a_cf(g, rng) for g in pair))]
    if b_defined(rng.r, rng.R):
        forms.append(("b", *(b_cf(g, rng) for g in pair)))
    return DifferenceReport(s=s, range=rng, mm=mm, checks=difference_checks(mm.m, mm.M, phi, cf, forms))


def difference_checks(m, M, phi, cf, forms) -> dict:
    """Slacks of m * (X_phi - phi_s) <= X_Cf - C_f <= M * (X_phi - phi_s)
    for each (tag, X_phi, X_Cf) of forms; on floats or elementwise on arrays."""
    checks = {}
    for tag, phi_form, cf_form in forms:
        d_phi = phi_form - phi
        d_cf = cf_form - cf
        checks[f"{tag}_lower"] = d_cf - m * d_phi
        checks[f"{tag}_upper"] = M * d_phi - d_cf
    return checks
