"""Sandwich bounds m * phi_s <= C_f <= M * phi_s.

The key object is g(x) = x^(2-s) * f''(x).  If m <= g <= M on the ratio
range [r, R] of a pair (P, Q), then C_f(P||Q) is sandwiched between
m * phi_s(P||Q) and M * phi_s(P||Q).  Every f'' is a Rational x^(a-2) N/D
(a = 2 in the catalog, a = t for phi_t's x^(t-2)), so on x > 0 the sign of
g' is the sign of the stationarity polynomial

    S_s(x) = (a-s) N D + x (N'D - N D'),

of degree at most 3 once the factors x and x+1 are divided out (the
constant t - s for phi_t).  (m, M) are therefore exact for every s: the
extremes of g over r, R and the roots of S_s inside (r, R).  In the
monotone regions of s (the paper's; (t, t) for phi_t) the endpoints alone
suffice.  Each global extremum the paper names is g at the single positive
root of S_s.  An independent numeric optimizer (log-spaced scan plus
golden-section refinement) is kept as the test oracle and for generators
outside the catalog.  g has one formula, g = x^((a-s)+k) * n(y) / d(y) from
the scaled form of f'', which leaves the float range only where g does;
g_eval raises there, and an array of x follows its float path bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    InvalidArgument,
    InvalidRange,
    LengthMismatch,
    NonPositiveX,
    NotTabulated,
    NumericOverflow,
    UnknownMeasure,
    require_finite,
    require_finite_s,
)
from .generators import (
    VIOLATION_TOL,
    Generator,
    PhiS,
    catalog,
    csiszar_sums,
    eval_csiszar,
    finite_cf,
    float_each,
    get_generator,
    horner,
    phi_generator,
)
from .measures import finite_phi, phi_s
from .simplex import Distribution, RatioRange, pair_range, ratio_range

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = _INV_PHI**2

NUMERIC_GRID_POINTS = 4096  # samples of the mm_numeric scan


def g_eval(gen: Generator, s: float, x):
    """x^(2-s) * f''(x); accepts a positive scalar or array.

    The float path defines g: x^((a-s)+k) * n(y) / d(y) in the scaled form
    of the Rational f'' (:meth:`Rational.times_power`), and NumericOverflow
    where it is not finite or is 0 (an infinite g turns m * phi_s into nan,
    a zero g certifies m = 0 or M = 0).  An array of any shape follows it
    entry by entry (:func:`_g_array`).
    """
    if isinstance(x, float):
        if not x > 0.0:
            raise NonPositiveX(f"x must be > 0, got {x}")
        try:
            v = gen.f_second.times_power(x, s)
        except (OverflowError, ZeroDivisionError):
            v = math.inf
        if not math.isfinite(v) or v == 0.0:
            raise NumericOverflow(f"g(x) = x^(2-s) f''(x) leaves the float range at x={x!r}, s={s!r}")
        return v
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(arr > 0.0):
        raise NonPositiveX(f"x must be > 0, got {x}")
    out = _g_array(gen, s, arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _g_array(gen: Generator, s: float, x: np.ndarray) -> np.ndarray:
    """:func:`g_eval`'s float path at every entry of x > 0, bit for bit: the
    same scaled form on the whole array; an entry where that is not finite
    or is 0 takes the float path, which raises there, in array order."""
    flat = x.ravel()
    with np.errstate(over="ignore"):  # x^((a-s)+k) near the float max, times n/d
        out = gen.f_second.times_power(flat, s)
    xs = flat.tolist()
    for i in np.flatnonzero(~np.isfinite(out) | (out == 0.0)).tolist():
        out[i] = g_eval(gen, s, xs[i])
    return out.reshape(x.shape)


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
    """
    r, R = rng.r, rng.R
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


#: The paper's monotone regions (s_low, s_high) per catalog measure: g is
#: increasing on (0, inf) for s <= s_low and decreasing for s >= s_high.
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
    """(A, B), tuples of equal length, with S_s = A + s*B.

    The powers of x and of x + 1 that A and B share are divided out: every
    catalog denominator is a product of 2, x and x + 1, and both divisors
    are positive on x > 0, so the sign of S_s (and of g') is kept.
    """
    n, d = np.array(f_second.num), np.array(f_second.den)
    nd = np.convolve(n, d)
    cross = np.polysub(np.convolve(_polyder(n), d), np.convolve(n, _polyder(d)))
    a = np.polyadd(f_second.a * nd, np.append(cross, 0))
    b = np.polysub(np.zeros_like(a), nd)  # -N D, as long as A
    a, b = tuple(a.tolist()), tuple(b.tolist())  # plain ints: _real_roots runs per gap cell
    while a[-1] == b[-1] == 0:
        a, b = a[:-1], b[:-1]
    while horner(a, -1) == horner(b, -1) == 0:
        a, b = _div_x_plus_1(a), _div_x_plus_1(b)
    return a, b


_STATIONARY = {mid: _stationarity(gen.f_second) for mid, gen in catalog().items()}


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


def mm_closed(measure, s: float, rng: RatioRange) -> Optional[MMBounds]:
    """Closed-form (m, M) where g is provably monotone; None in the gap.

    For a power-family measure PhiS(t), g(x) = x^(t-s) is monotone for
    every s, so a closed form is always returned (m = M = 1 when t = s).
    """
    mm = _closed_values(measure, s, rng.r, rng.R)
    return None if mm is None else MMBounds(*mm, "closed_form", s, rng)


def _closed_values(measure, s: float, r: float, R: float) -> Optional[tuple]:
    """(m, M) of :func:`mm_closed`, or None in the gap."""
    ends = _monotone_ends(measure, s, r, R)
    if ends is None:
        return None
    gen = get_generator(measure)
    return g_eval(gen, s, ends[0]), g_eval(gen, s, ends[1])


def _monotone_ends(measure, s: float, r, R) -> Optional[tuple]:
    """(x of m, x of M) of g in a measure's monotone regions, None in the gap;
    PhiS(t)'s region is (t, t), where S_s is the constant t - s."""
    if isinstance(measure, PhiS):
        s_lo = s_hi = measure.s
    else:
        try:
            s_lo, s_hi = CLOSED_FORM_REGIONS[measure]
        except KeyError:
            raise UnknownMeasure(f"unknown measure {measure!r}") from None
    if s <= s_lo:  # g increasing
        return r, R
    if s >= s_hi:  # g decreasing
        return R, r
    return None


def mm_exact(measure, s: float, rng: RatioRange) -> MMBounds:
    """Exact (m, M) for every s: :func:`mm_closed` in the monotone regions,
    else the extremes of g over r, R and the roots of S_s inside (r, R)."""
    return MMBounds(*mm_exact_values(measure, s, rng.r, rng.R), "closed_form", s, rng)


def mm_exact_values(measure, s: float, r: float, R: float) -> tuple:
    """(m, M) of :func:`mm_exact` on [r, R], 0 < r <= R, as plain floats."""
    mm = _closed_values(measure, s, r, R)
    if mm is not None:
        return mm
    gen = get_generator(measure)
    a, b = _STATIONARY.get(measure) or _stationarity(gen.f_second)  # PhiS: only at s = nan
    roots = _real_roots([x + s * y for x, y in zip(a, b)], r, R)
    gs = [g_eval(gen, s, x) for x in (r, R, *roots)]
    return min(gs), max(gs)


def mm_exact_arrays(measure, s: float, r: np.ndarray, R: np.ndarray) -> tuple:
    """(m, M) arrays of :func:`mm_exact_values` at every (r[i], R[i]), bit
    for bit.  In a monotone region g takes one array, the endpoints
    interleaved in the order of the scalar calls, so the first trial that
    raises raises; a gap cell is scalar, trial by trial."""
    r, R = np.asarray(r, dtype=np.float64), np.asarray(R, dtype=np.float64)
    ends = _monotone_ends(measure, s, r, R)
    if ends is None:
        g = np.array([mm_exact_values(measure, s, a, b) for a, b in zip(r.tolist(), R.tolist())], dtype=np.float64)
    else:
        g = _g_array(get_generator(measure), s, np.column_stack(ends).ravel())
    return tuple(g.reshape(-1, 2).T)


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
    a, b = _STATIONARY[measure]
    c = [x + s * y for x, y in zip(a, b)]
    roots = _positive_roots(c)
    if len(roots) != 1:
        raise RuntimeError(f"S_s of {measure} at s={s} has {len(roots)} positive roots, not 1")
    x = roots[0]
    kind = "sup" if horner(c, 0.5 * x) > 0.0 else "inf"
    return GlobalExtremum(kind, g_eval(get_generator(measure), s, x), x)


_GLOBAL = {key: _global_extremum(*key) for key in _PAPER_EXTREMA}


def global_extrema(measure: str, s: float) -> GlobalExtremum:
    """Global extremum of g over (0, inf) at a (measure, s) the paper names."""
    try:
        return _GLOBAL[(measure, float(s))]
    except KeyError:
        raise NotTabulated(f"no tabulated global extremum for ({measure}, s={s})") from None


def global_extrema_table() -> dict:
    """The full (measure, s) -> GlobalExtremum table."""
    return dict(_GLOBAL)


@np.errstate(over="ignore", invalid="ignore")  # NumericOverflow is the only signal
def e_cf(gen: Generator, P: Distribution, Q: Distribution) -> float:
    """Data-dependent bound functional sum (p_i - q_i) f'(p_i/q_i); raises
    NumericOverflow where it leaves the float range."""
    p, q = P.probs, Q.probs
    if p.size != q.size:
        raise LengthMismatch(f"lengths differ: {p.size} vs {q.size}")
    return require_finite(float(e_cf_sums(gen, p, q)), f"e_cf of {gen.id}")


def e_cf_sums(gen: Generator, p, q):
    """e_cf on probability vectors p, q, or row by row on (k, n) blocks."""
    return np.add.reduce((p - q) * gen.f_prime(p / q), axis=-1)


@np.errstate(all="ignore")  # NumericOverflow is the only signal
def a_cf(gen: Generator, rng: RatioRange) -> float:
    """Range-only bound functional (R-r)/4 * (f'(R) - f'(r)); raises
    NumericOverflow where it leaves the float range."""
    r, R = rng.r, rng.R
    if r == R:
        return 0.0
    return require_finite(a_cf_values(gen, r, R), f"a_cf of {gen.id}")


def a_cf_values(gen: Generator, r, R):
    """a_cf on 0 < r < R: floats, or arrays of ranges, each entry bit for
    bit its float value (f' is called on one float at a time); inf or nan
    where it leaves the float range."""
    return 0.25 * (R - r) * (float_each(gen.f_prime, R) - float_each(gen.f_prime, r))


@np.errstate(all="ignore")  # NumericOverflow is the only signal
def b_cf(gen: Generator, rng: RatioRange) -> float:
    """Chord bound functional [(R-1)f(r) + (1-r)f(R)] / (R-r); raises
    NumericOverflow where it leaves the float range."""
    r, R = rng.r, rng.R
    if not (0.0 < r <= 1.0 <= R) or r == R:
        raise InvalidRange(f"need 0 < r <= 1 <= R with r != R, got {rng}")
    return require_finite(b_cf_values(gen, r, R), f"b_cf of {gen.id}")


def b_cf_values(gen: Generator, r, R):
    """b_cf on 0 < r <= 1 <= R, r != R, as :func:`a_cf_values`."""
    return ((R - 1.0) * float_each(gen.f, r) + (1.0 - r) * float_each(gen.f, R)) / (R - r)


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
        return self.lower_slack >= VIOLATION_TOL and self.upper_slack >= VIOLATION_TOL


def bound_interval(measure, s: float, P: Distribution, Q: Distribution, method: str = "auto") -> BoundReport:
    """Sandwich m * phi_s <= C_f <= M * phi_s for a catalog or PhiS measure.

    method "auto" and "closed" both take the exact (m, M) of
    :func:`mm_exact`; "numeric" forces the oracle.  Raises NonFinite for a
    nan or infinite s, and NumericOverflow where R, g, phi_s, C_f or a
    bound leaves the float range.

    One pass under one np.errstate: s is checked first, and phi_s and C_f
    come from :func:`csiszar_sums`, the core of :func:`phi_s` (for
    :func:`phi_generator` (s)) and of :func:`eval_csiszar`, so every
    field holds the bits of those public functions, :func:`ratio_range`,
    :func:`mm_exact` and :func:`sandwich`, and every error is theirs.
    """
    if method not in ("auto", "closed", "numeric"):
        raise InvalidArgument(f"unknown method {method!r}")
    require_finite_s(s)
    with np.errstate(over="ignore", invalid="ignore"):  # NumericOverflow is the only signal
        rng = pair_range(P, Q)
        gen = get_generator(measure)
        mm = mm_numeric(gen, s, rng) if method == "numeric" else mm_exact(measure, s, rng)
        p, q = P.probs, Q.probs
        phi = finite_phi(s, float(csiszar_sums(phi_generator(s), p, q)))
        value = finite_cf(gen, float(csiszar_sums(gen, p, q)))
        lower, upper, lower_slack, upper_slack = sandwich(mm.m, mm.M, phi, value)
    return BoundReport(
        measure=measure,
        s=s,
        lower=lower,
        value=value,
        upper=upper,
        mm=mm,
        lower_slack=lower_slack,
        upper_slack=upper_slack,
    )


def sandwich(m, M, phi, value) -> tuple:
    """(lower, upper, lower slack, upper slack) of m * phi_s <= C_f <= M * phi_s,
    on floats or elementwise on arrays of trials."""
    lower = require_finite(m * phi, "m * phi_s")
    upper = require_finite(M * phi, "M * phi_s")
    return lower, upper, value - lower, upper - value


@dataclass(frozen=True)
class DifferenceReport:
    """Verdicts for the difference-form sandwiches on E/A/B functionals.

    For each form X in {E, A, B}, checks that X_Cf - C_f lies between
    m and M times (X_phi_s - phi_s).  ``checks`` maps a label to its
    slack; the B form is omitted on a degenerate range.
    """

    s: float
    range: RatioRange
    mm: MMBounds
    checks: dict

    @property
    def holds(self) -> bool:
        return all(slack >= VIOLATION_TOL for slack in self.checks.values())


def difference_bounds(
    gen: Generator, s: float, P: Distribution, Q: Distribution, mm: Optional[MMBounds] = None
) -> DifferenceReport:
    """Check the three difference sandwiches for an arbitrary generator.

    (m, M) must bound g on the whole ratio range; if not supplied they are
    exact for a catalog generator and come from the numeric optimizer for
    any other.
    """
    rng = ratio_range(P, Q)
    if mm is None:
        mm = mm_exact(gen.id, s, rng) if catalog().get(gen.id) is gen else mm_numeric(gen, s, rng)
    cf, phi = eval_csiszar(gen, P, Q), phi_s(s, P, Q)
    pair = (phi_generator(s), gen)
    forms = [("e", *(e_cf(g, P, Q) for g in pair)), ("a", *(a_cf(g, rng) for g in pair))]
    if not rng.degenerate:
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
