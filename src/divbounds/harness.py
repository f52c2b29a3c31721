"""Seeded randomized verification suites.

Every identity, inequality chain, sandwich bound, and estimator containment
in the library has a suite here.  Suites are fully deterministic: pairs are
generated by a counter-based construction (seed and trial index hashed
through a 64-bit mixing function), so identical configs yield byte-identical
reports on any platform.

A pair depends only on the trial index and on the config's pair-generating
key (seed, n_min, n_max, concentration), not on the suite, so
:func:`random_pair` memoizes the pairs of the latest key: each is built
once and every suite shares it (a :class:`Distribution` is immutable).  The
memo holds at most :data:`PAIR_MEMO_BUDGET` probability entries; pairs past
the budget are built afresh on every call.

The suites of one run also share a :class:`PairTable`, which computes every
pair-dependent quantity they check (r and R, a measure, C_f or e_cf of one
catalog generator or of phi_generator(s), whose C_f is phi_s) once, as a
float64 array indexed by trial.  It builds the pairs itself, by the row
code of a single pair, bit for bit, as (k, n) blocks of one support size n
laid back to back in one flat p and one flat q.  A quantity is one
elementwise pass over that layout (x = p / q and d = p - q formed once)
and one row reduction per block view, which sums a row as the pair alone
is summed, so the table holds the bits the public functions return.  It
also holds columns of the ratio ranges alone, over every trial: the exact
(m, M) of each (measure, s) cell, bit-identical to the scalar
:func:`mm_exact_values`, and A and B of each generator (the cores of a_cf
and b_cf; B only on the trials where :func:`b_defined`).  Every cell's
(m, M) is :func:`mm_exact_arrays` on r and R, from the one
:class:`SplitPowers` of them that the table holds, so the run's cells
share one power of r and R per distinct exponent and one n(y) / d(y)
column per f''.  Every column is computed once a run, on first request,
and is read-only, as every suite of the run reads the same array.  The
sandwich suites, thm31 and thm32 read these columns by index, thm32 at the
trials of each of its cells.  A table is made for one run and dropped
with it.

The paper's special cases phi_s = k * (named measure) are one table,
:data:`_SPECIAL_S`, read by phi_cases, by the cor and thm sandwich suites
(at the s outside :data:`CLOSED_FORM_REGIONS`) and by the propositions.

Every suite checks the run's trials as float64 columns.  thm31 and thm32
read A and B of the power generator and, in thm32, of the catalog one, and
rem41/rem51 take the estimator formulas on the measure columns, all
through the cores that the public scalar functions call, bit for bit:
numpy's + - * / and sqrt are correctly rounded, and a_cf and b_cf pass one
range to the cores as 0-d arrays, which take the columns' numpy loops.
rem41 and rem51 check no trial whose P and Q coincide, where the
estimators are 0/0.

Every suite follows one failure rule.  Its columns are computed with
numpy's warnings off, and a value that leaves the float range is inf or
nan in its column, where a public per-pair function would raise.  A check
whose slack is not finite is a violation of its trial, with a nan slack,
and the run goes on to finish every suite.  Its example names the trial
and the check; :func:`random_pair` (config, trial) and the public function
replay the error.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .csiszar_bounds import (
    CLOSED_FORM_REGIONS,
    a_cf_values,
    b_cf_values,
    b_defined,
    difference_checks,
    global_extrema,
    mm_exact_arrays,
    sandwich,
)
from .errors import InvalidArgument, UnknownSuite
from .estimators import all_estimators, coincide, estimate_from
from .generators import CATALOG_IDS, VIOLATION_TOL, SplitPowers, get_generator, phi_generator, weighted_sum
from .measures import divergence_sums
from .simplex import Distribution, ratio_extremes
from .type_s_bounds import chain_checks

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: np.ndarray) -> np.ndarray:
    """64-bit finalizer, xor-shift / multiply avalanche, on a uint64 array
    (an array's products wrap mod 2**64 silently; a numpy scalar's warn)."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniforms(key, count: int) -> np.ndarray:
    """`count` uniforms in [0, 1) from counter-mode mixing of `key`, or one
    row of them per key of a sequence of keys."""
    z = np.asarray(key, dtype=np.uint64)[..., None] + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return (_mix(z) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _is_number(value, kind) -> bool:
    """Whether value is an instance of the numbers ABC kind, and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrialConfig:
    seed: int = 0
    trials: int = 1000
    n_min: int = 2
    n_max: int = 64
    concentration: float = 2.0
    s_samples: tuple = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)

    def __post_init__(self):
        for name in ("seed", "trials", "n_min", "n_max"):
            if not _is_number(getattr(self, name), numbers.Integral):
                raise InvalidArgument(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not _is_number(self.concentration, numbers.Real):
            raise InvalidArgument(f"concentration must be a real number, got {self.concentration!r}")
        if not isinstance(self.s_samples, (tuple, list)) or not all(_is_number(s, numbers.Real) for s in self.s_samples):
            raise InvalidArgument(f"s_samples must be a tuple or list of real numbers, got {self.s_samples!r}")
        if self.trials < 1:
            raise InvalidArgument("trials must be >= 1")
        if not 2 <= self.n_min <= self.n_max <= 10**6:
            raise InvalidArgument("need 2 <= n_min <= n_max <= 1e6")
        try:  # then a row's weights exp(concentration * (2u - 1)) and their sum are finite
            bounded = math.isfinite(self.n_max * math.exp(self.concentration))
        except OverflowError:
            bounded = False
        if not (self.concentration > 0 and bounded):
            raise InvalidArgument(f"concentration must be positive, with n_max * exp(concentration) finite, got {self.concentration!r}")
        if len(self.s_samples) == 0:
            raise InvalidArgument("s_samples must not be empty")
        if not all(math.isfinite(s) for s in self.s_samples):
            raise InvalidArgument("s_samples must be finite")
        object.__setattr__(self, "s_samples", tuple(self.s_samples))  # frozen: hashable, and no later append


#: Most probability entries (8 bytes each) the pair memo holds, about 8 MB,
#: and the most entries of p and q a :class:`PairTable` lays out at once.
PAIR_MEMO_BUDGET = 1 << 20


class _PairMemo:
    """Pairs already built for one pair-generating key, by trial index."""

    __slots__ = ("key", "pairs", "entries")

    def __init__(self, key):
        self.key = key
        self.pairs = {}
        self.entries = 0


_memo = _PairMemo(None)
_memo_lock = threading.Lock()


def random_pair(config: TrialConfig, trial_index: int):
    """Deterministic pair of strictly positive distributions.

    Support size is drawn uniformly from [n_min, n_max]; coordinates are
    exponentiated uniforms scaled by the concentration, floored at 1e-12.
    Repeated calls with the same pair-generating key return the same
    objects while the memo's budget lasts.  trial_index is an integer,
    numpy's too; InvalidArgument for a bool, a non-integer or a non-config.
    """
    global _memo
    if type(trial_index) is not int or type(config) is not TrialConfig:  # the common call skips the checks
        if not (isinstance(config, TrialConfig) and _is_number(trial_index, numbers.Integral)):
            raise InvalidArgument(f"need a TrialConfig and an integer trial index, got {config!r} and {trial_index!r}")
        trial_index = int(trial_index)
    key = (config.seed, config.n_min, config.n_max, config.concentration)
    memo = _memo
    if memo.key != key:
        memo = _memo = _PairMemo(key)
    pair = memo.pairs.get(trial_index)
    if pair is None:
        pair = _build_pair(config, trial_index)
        size = 2 * len(pair[0])
        with _memo_lock:  # keeps `entries` equal to the entries held
            if trial_index not in memo.pairs and memo.entries + size <= PAIR_MEMO_BUDGET:
                memo.pairs[trial_index] = pair
                memo.entries += size
    return pair


def _pair_keys(config: TrialConfig, trials) -> np.ndarray:
    """The key of the uniforms of each trial's pair, for an array of trial
    indices in [0, 2**64)."""
    index = np.asarray(trials, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _mix(np.uint64(config.seed & _MASK) ^ _mix(index))


def _support_size(config: TrialConfig, u0: float) -> int:
    """The pair's n from its first uniform."""
    return config.n_min + int(u0 * (config.n_max - config.n_min + 1))


def _probs(config: TrialConfig, u: np.ndarray) -> np.ndarray:
    """Rows of probabilities from rows of uniforms u, normalized and floored
    at 1e-12 twice: the second floor can lift a sum past 1, by at most
    n * 1e-12, inside the Distribution normalization tolerance."""
    raw = np.exp(config.concentration * (2.0 * u - 1.0))
    probs = np.maximum(raw / np.add.reduce(raw, axis=-1, keepdims=True), 1e-12)
    return np.maximum(probs / np.add.reduce(probs, axis=-1, keepdims=True), 1e-12)


def _pair_rows(config: TrialConfig, u: np.ndarray) -> tuple:
    """(p, q) from the uniforms of a pair, or of pairs of one support size
    as (k, n) blocks, u holding 1 + 2 * n_max of them a pair: the first
    gives n, then p and q read n each from their own n_max."""
    n = _support_size(config, u.flat[0])
    return _probs(config, u[..., 1 : 1 + n]), _probs(config, u[..., 1 + config.n_max : 1 + config.n_max + n])


def _build_pair(config: TrialConfig, trial_index: int):
    """Build the pair of :func:`random_pair` from scratch."""
    pair = _pair_rows(config, _uniforms(_pair_keys(config, [trial_index & _MASK]), 1 + 2 * config.n_max)[0])
    for probs in pair:
        probs.setflags(write=False)  # adopted by the Distribution, not copied
    return Distribution(pair[0]), Distribution(pair[1])


def _stack(config: TrialConfig, trials) -> tuple:
    """(P block, Q block) of the trials' pairs, all of one support size,
    built as :func:`_build_pair` builds each, row for row and bit for bit."""
    return _pair_rows(config, _uniforms(_pair_keys(config, trials), 1 + 2 * config.n_max))


class _Span:
    """Chunks laid back to back: p, q, x and d of their :func:`_stack` blocks."""

    def __init__(self, config: TrialConfig, chunks):
        stacks = [_stack(config, trials) for trials in chunks]
        ends = np.cumsum([p.size for p, _ in stacks]).tolist()
        self.blocks = [(slice(end - p.size, end), p.shape) for (p, _), end in zip(stacks, ends)]
        self.p, self.q = (np.concatenate([stack[j].reshape(-1) for stack in stacks]) for j in (0, 1))
        self.x, self.d = self.p / self.q, self.p - self.q

    def views(self, t) -> list:
        """The (k, n) block views of an array t laid out as p."""
        return [t[at].reshape(shape) for at, shape in self.blocks]


class PairTable:
    """The pair-dependent quantities of one run's trials, each computed
    once, when a suite first asks for it.

    Trials are grouped by support size into chunks of at most
    PAIR_MEMO_BUDGET probability entries, and consecutive chunks into
    spans (:class:`_Span`) that fit that budget together.  A run that fits
    it is one span, held with its x and d; otherwise each quantity builds
    the spans again, one at a time.  The columns of r and R alone, (m, M),
    A and B, build no span.  Every column is computed once, with numpy's
    warnings off, kept in one cache, and read-only.
    """

    def __init__(self, config: TrialConfig):
        if not isinstance(config, TrialConfig):
            raise InvalidArgument(f"config must be a TrialConfig, got {config!r}")
        self.config = config
        by_size = {}
        first = _uniforms(_pair_keys(config, np.arange(config.trials, dtype=np.uint64)), 1)[:, 0]
        for i, u0 in enumerate(first.tolist()):
            by_size.setdefault(_support_size(config, u0), []).append(i)
        spans, entries = [], PAIR_MEMO_BUDGET
        for n, trials in sorted(by_size.items()):
            k = max(1, PAIR_MEMO_BUDGET // (2 * n))
            for chunk in (trials[j : j + k] for j in range(0, len(trials), k)):
                if entries + 2 * n * len(chunk) > PAIR_MEMO_BUDGET:
                    spans.append([])
                    entries = 0
                spans[-1].append(chunk)
                entries += 2 * n * len(chunk)
        self._spans = [(chunks, np.concatenate(chunks)) for chunks in spans]
        self._held = _Span(config, spans[0]) if len(spans) == 1 and entries <= PAIR_MEMO_BUDGET else None
        self._values = {}

    def _cached(self, key, compute, *args):
        """compute(*args) the first time key is asked for, with numpy's
        warnings off (inf or nan where a value leaves the float range),
        then that value on every call; an array is made read-only, as every
        suite of the run reads it (the SplitPowers is a cache its cells fill)."""
        values = self._values.get(key)
        if values is None:
            with np.errstate(all="ignore"):
                values = self._values[key] = compute(*args)
            if isinstance(values, np.ndarray):
                values.setflags(write=False)
        return values

    def _batch(self, sums, dtype=np.float64, rows=()) -> np.ndarray:
        """sums(span) of every trial, in the span's layout order; with
        rows=(k,), sums gives k values a trial and the result has k rows."""
        values = np.empty((*rows, self.config.trials), dtype=dtype)
        for chunks, trials in self._spans:
            # Built as the statement runs: one span alive, if not held.
            values[..., trials] = sums(self._held or _Span(self.config, chunks))
        return values

    def d(self, measure: str) -> np.ndarray:
        """The named measure (:func:`divergence`) of every trial."""
        return self._cached(("d", measure), self._batch, lambda span: divergence_sums(measure, span.p, span.q, span.views))

    def phi(self, s: float) -> np.ndarray:
        """phi_s (:func:`phi_s`), C_f of phi_generator(s), every trial."""
        return self.cf(phi_generator(s))

    def cf(self, measure) -> np.ndarray:
        """C_f (:func:`eval_csiszar`) of a catalog id or a Generator, every trial."""
        gen = get_generator(measure)
        return self._cached(("cf", gen), self._batch, lambda span: weighted_sum(gen.f, span.q, span.x, span.views))

    def e_cf(self, measure) -> np.ndarray:
        """e_cf (:func:`e_cf`) of a catalog id or a Generator, every trial."""
        gen = get_generator(measure)
        return self._cached(("e_cf", gen), self._batch, lambda span: weighted_sum(gen.f_prime, span.d, span.x, span.views))

    def coincide(self) -> np.ndarray:
        """Whether each trial's P and Q coincide (estimators are 0/0)."""
        return self._cached(("coincide",), self._batch, lambda span: np.concatenate([coincide(d) for d in span.views(span.d)]), bool)

    def extremes(self) -> np.ndarray:
        """The ratio range of every trial, r in row 0 and R in row 1."""
        return self._cached(("extremes",), self._batch, lambda span: np.concatenate([ratio_extremes(x) for x in span.views(span.x)], axis=-1), np.float64, (2,))

    def mm(self, measure: str, s: float) -> np.ndarray:
        """(m, M), the exact extremes of g on every trial's ratio range
        (:func:`mm_exact_arrays`) as two rows, every cell from the table's
        one :class:`SplitPowers` of r's entries then R's."""
        powers = self._cached(("powers",), lambda: SplitPowers(self.extremes().ravel()))
        return self._cached(("mm", measure, s), lambda r, R: np.array(mm_exact_arrays(measure, s, r, R, powers)), *self.extremes())

    def a(self, gen) -> np.ndarray:
        """A (:func:`a_cf`) of a Generator, every trial."""
        return self._cached(("a", gen), a_cf_values, gen, *self.extremes())

    def b(self, gen) -> np.ndarray:
        """B (:func:`b_cf`) of a Generator on the trials where it is
        defined (:func:`b_defined`), nan on the others."""
        return self._cached(("b", gen), lambda r, R: np.where(b_defined(r, R), b_cf_values(gen, r, R), np.nan), *self.extremes())

    def sandwich(self, measure: str, s: float) -> np.ndarray:
        """(lower, upper) slacks of m * phi_s <= C_f <= M * phi_s as two
        rows, every trial, with the exact (m, M) of each trial's ratio range."""
        return self._cached(("sandwich", measure, s), lambda: np.array(sandwich(*self.mm(measure, s), self.phi(s), self.cf(measure))[2:]))


@dataclass
class SuiteReport:
    suite: str
    description: str
    trials: int
    checks: int = 0
    violations: int = 0
    worst_slack: float = math.inf
    tightest_slack: float = math.inf
    examples: list = field(default_factory=list)

    def record(self, trial: int, name: str, slack: float, P: Distribution, Q: Distribution):
        self.checks += 1
        if slack < self.worst_slack:  # min(), without the call
            self.worst_slack = slack
        if not slack >= VIOLATION_TOL:  # all_hold's rule, inline on this hot path; a nan slack fails
            self.violations += 1
            if slack != slack:  # a nan is worse than any slack, and < never picks it
                self.worst_slack = math.nan
            if len(self.examples) < 3:
                self.examples.append(
                    {
                        "trial": trial,
                        "check": name,
                        "slack": slack,
                        "p": [float(v) for v in P.probs],
                        "q": [float(v) for v in Q.probs],
                    }
                )
        elif slack < self.tightest_slack:
            self.tightest_slack = slack

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Suites.  A suite is one record: its description, and columns(table), its
# checks of the run's trials as float64 columns, in groups [(trials, {check
# name: slack of each of those trials})], a trial's names being those of its
# group.  Identities report slack = -|lhs - rhs| so the shared violation
# threshold applies uniformly, and a slack that is not finite (a value that
# left the float range) is a violation.  Checks are collected in a dict by
# name, so a repeated name (a repeated s, say) is checked once.

_Suite = namedtuple("_Suite", "description columns")


def _every(table, columns: dict) -> list:
    """The one check group of columns that hold every trial of the run."""
    return [(range(table.config.trials), columns)]


def _rows(groups):
    """rows(i), the (check name, slack) pairs of trial i, of checks given
    in groups, a slack that is not finite given as nan; none for a trial
    in no group."""
    by_trial = {}
    for trials, columns in groups:
        names = tuple(columns)
        slacks = np.array(list(columns.values()), dtype=np.float64)
        slacks[~np.isfinite(slacks)] = np.nan  # +inf would pass the >= test
        for i, values in zip(trials, slacks.T.tolist()):
            by_trial[i] = (names, values)
    return lambda i: zip(*by_trial.get(i, ((), ())))


def _checks(suite: _Suite, table: PairTable):
    """rows(i) of a suite on a run's table, its columns computed with
    numpy's warnings off: a value that leaves the float range is inf or
    nan there."""
    with np.errstate(all="ignore"):
        return _rows(suite.columns(table))


def _split_ranges(table):
    """[(trials, has_b)]: the run's trials split by whether B is defined
    (:func:`b_defined`).  Every range has 0 < r <= R, since p, q > 0 and
    q <= 1 give r >= min p.  A needs no split: :func:`a_cf_values` is 0.0
    where r == R."""
    has_b = b_defined(*table.extremes())
    parts = [(np.flatnonzero(has_b == b), b) for b in (True, False)]
    return [part for part in parts if part[0].size]


def _thm31_columns(table):
    groups = []
    for trials, has_b in _split_ranges(table):
        checks = {}
        for s in table.config.s_samples:
            gen = phi_generator(s)
            b = table.b(gen)[trials] if has_b else None
            for name, slack in chain_checks(table.phi(s)[trials], table.e_cf(gen)[trials], table.a(gen)[trials], b).items():
                checks[f"s={s:g}:{name}"] = slack
        groups.append((trials.tolist(), checks))
    return groups


def _thm32_cell(config: TrialConfig, i) -> tuple:
    """(measure, s) of trial i: thm32 cycles both by trial index."""
    n = len(CATALOG_IDS)
    return CATALOG_IDS[i % n], config.s_samples[(i // n) % len(config.s_samples)]


def _thm32_columns(table):
    groups = []
    for trials, has_b in _split_ranges(table):
        cells = {}
        for i in trials.tolist():
            measure, s = _thm32_cell(table.config, i)
            # -0.0 == 0.0, but its checks are named s=-0.
            cells.setdefault((measure, s, math.copysign(1.0, s)), []).append(i)
        for (measure, s, _), at in cells.items():
            at = np.array(at)
            m, M = (v[at] for v in table.mm(measure, s))
            phi, cf = table.phi(s)[at], table.cf(measure)[at]
            lower, upper = sandwich(m, M, phi, cf)[2:]
            pair = (phi_generator(s), get_generator(measure))
            columns = (("e", table.e_cf), ("a", table.a), ("b", table.b))[: 3 if has_b else 2]
            forms = [(tag, *(column(g)[at] for g in pair)) for tag, column in columns]
            checks = {"lower": lower, "upper": upper, **difference_checks(m, M, phi, cf, forms)}
            groups.append((at.tolist(), {f"{measure},s={s:g}:{name}": slack for name, slack in checks.items()}))
    return groups


def _sandwich(measure: str, configured: bool = False):
    """columns of the sandwich checks of one measure at the s outside its
    :data:`CLOSED_FORM_REGIONS` gap: those of :data:`_SPECIAL_S` (a
    corollary), or with configured=True those of s_samples, if any (a theorem)."""
    lo, hi = CLOSED_FORM_REGIONS[measure]

    def outside(values) -> tuple:
        return tuple(s for s in values if s <= lo or s >= hi)

    special = outside(_SPECIAL_S)

    def columns(table):
        checks = {}
        for s in (configured and outside(table.config.s_samples)) or special:
            checks[f"s={s:g}:lower"], checks[f"s={s:g}:upper"] = table.sandwich(measure, s)
        return _every(table, checks)

    return columns


def _proposition(*checks):
    """columns of Theorem 3.2 at g's global extremum over (0, inf), for
    checks given as (measure, s, name): with phi_s = k * named
    (:data:`_SPECIAL_S`) and c = k * :func:`global_extrema`, a sup gives
    C_f <= c * named and an inf named <= C_f / c."""

    def column(t, measure: str, s: float):
        k, named, _ = _SPECIAL_S[s]
        extremum = global_extrema(measure, s)
        c = k * extremum.value
        if extremum.kind == "sup":
            return c * t.d(named) - t.d(measure)
        return t.d(measure) / c - t.d(named)

    return lambda t: _every(t, {name: column(t, measure, s) for measure, s, name in checks})


def _containment_suite(description: str, family: str) -> _Suite:
    """The family's estimators, each inside the ratio range [r, R], on
    every trial whose P and Q do not coincide (the estimators are 0/0
    there, and such a trial has no checks)."""
    names = [(est, f"{est}>=r", f"{est}<=R") for est in all_estimators() if est.family == family]

    def columns(table):
        apart = np.flatnonzero(~table.coincide())
        r, R = (v[apart] for v in table.extremes())
        out = {}
        for est, lower, upper in names:
            v = estimate_from(est, table.d)[apart]
            out[lower], out[upper] = v - r, R - v
        return [(apart.tolist(), out)]

    return _Suite(description, columns)


#: The power family's special cases phi_s = k * named measure, by s:
#: (k, named measure, phi_cases' check name).  The corollaries are the
#: sandwich at these s and the propositions are g's global extrema at them.
_SPECIAL_S = {
    -1.0: (0.5, "CHI2_ADJ", "phi(-1)=chi2_adj/2"),
    0.0: (1.0, "KL_ADJ", "phi(0)=KL_adj"),
    0.5: (4.0, "HELLINGER", "phi(1/2)=4h"),
    1.0: (1.0, "KL", "phi(1)=KL"),
    2.0: (0.5, "CHI2", "phi(2)=chi2/2"),
}

# The checks of prop51-prop53 that eq194 chains.
_H_LE_J8 = ("J", 0.5, "h<=J/8")
_I_LE_H = ("I", 0.5, "I<=h")
_H_LE_T = ("T", 0.5, "h<=T")

_SUITES = {
    "eq3": _Suite(
        "J-divergence splits into its two relative halves",
        lambda t: _every(t, {"J=D1+D2": -np.abs(t.d("J") - t.d("D1") - t.d("D2"))}),
    ),
    "eq12": _Suite(
        "J equals four times the sum of the JS and AG divergences",
        lambda t: _every(t, {"J=4(I+T)": -np.abs(t.d("J") - 4.0 * (t.d("I") + t.d("T")))}),
    ),
    "eq13": _Suite(
        "relative J equals twice the sum of the adjoint JS/AG halves",
        lambda t: _every(t, {"D1=2(F2+G2)": -np.abs(t.d("D1") - 2.0 * (t.d("F2") + t.d("G2")))}),
    ),
    "phi_cases": _Suite(
        "power-family special cases hit chi-square, KL and Hellinger",
        lambda t: _every(t, {name: -np.abs(t.phi(s) - k * t.d(named)) for s, (k, named, name) in _SPECIAL_S.items()}),
    ),
    "thm31": _Suite("phi_s bound chain: 0 <= phi <= E <= A, phi <= B <= A, B-phi <= A", _thm31_columns),
    "thm32": _Suite("generic sandwich m*phi_s <= C_f <= M*phi_s plus difference forms", _thm32_columns),
    "thm41": _Suite("closed-form sandwich for relative J-divergence", _sandwich("D1", configured=True)),
    "cor41": _Suite("relative J vs chi-square/KL/Hellinger special cases", _sandwich("D1")),
    "prop41": _Suite("relative J bounded by 9/8 of KL", _proposition(("D1", 1.0, "D1<=9/8*KL"))),
    "thm42": _Suite("closed-form sandwich for the adjoint relative J-divergence", _sandwich("D2", configured=True)),
    "cor42": _Suite("adjoint relative J special cases", _sandwich("D2")),
    "prop42": _Suite("adjoint relative J bounded by 9/8 of adjoint KL", _proposition(("D2", 0.0, "D2<=9/8*KL_adj"))),
    "thm43": _Suite("closed-form sandwich for relative JS-divergence", _sandwich("F1", configured=True)),
    "cor43": _Suite("relative JS special cases", _sandwich("F1")),
    "prop43": _Suite("relative JS bounded by KL_adj/4 and (3*sqrt3/4)*Hellinger", _proposition(("F1", 0.0, "F1<=KL_adj/4"), ("F1", 0.5, "F1<=c*h"))),
    "thm44": _Suite("closed-form sandwich for the adjoint relative JS-divergence", _sandwich("F2", configured=True)),
    "cor44": _Suite("adjoint relative JS special cases", _sandwich("F2")),
    "prop44": _Suite("adjoint relative JS bounded by (3*sqrt3/4)*Hellinger and KL/4", _proposition(("F2", 0.5, "F2<=c*h"), ("F2", 1.0, "F2<=KL/4"))),
    "thm45": _Suite("closed-form sandwich for relative AG-divergence", _sandwich("G1", configured=True)),
    "cor45": _Suite("relative AG special cases", _sandwich("G1")),
    "thm46": _Suite("closed-form sandwich for the adjoint relative AG-divergence", _sandwich("G2", configured=True)),
    "cor46": _Suite("adjoint relative AG special cases", _sandwich("G2")),
    "thm51": _Suite("closed-form sandwich for J-divergence", _sandwich("J", configured=True)),
    "cor51": _Suite("J-divergence special cases", _sandwich("J")),
    "prop51": _Suite("Hellinger bounded by J/8", _proposition(_H_LE_J8)),
    "thm52": _Suite("closed-form sandwich for JS-divergence", _sandwich("I", configured=True)),
    "cor52": _Suite("JS-divergence special cases", _sandwich("I")),
    "prop52": _Suite("JS bounded by Hellinger", _proposition(_I_LE_H)),
    "thm53": _Suite("closed-form sandwich for AG-divergence", _sandwich("T", configured=True)),
    "cor53": _Suite("AG-divergence special cases", _sandwich("T")),
    "prop53": _Suite(
        "AG dominates Hellinger and (sqrt2-1)/2 of both KL directions",
        _proposition(("T", 0.0, "c*KL_adj<=T"), ("T", 1.0, "c*KL<=T"), _H_LE_T),
    ),
    "rem41": _containment_suite("xi estimators stay inside the ratio range", "XI"),
    "rem51": _containment_suite("zeta estimators stay inside the ratio range", "ZETA"),
    "eq194": _Suite("chain: JS <= Hellinger <= min(AG, J/8)", _proposition(_I_LE_H, _H_LE_T, _H_LE_J8)),
}


def suite_ids() -> tuple:
    return tuple(_SUITES)


def run_suite(suite_id: str, config: TrialConfig, table: "PairTable | None" = None) -> SuiteReport:
    """Run one suite over `config.trials` deterministic pairs.

    `table` is the :class:`PairTable` of the run the suite belongs to, made
    for the same config; without one the suite makes its own.
    """
    try:
        suite = _SUITES[suite_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise UnknownSuite(f"unknown suite {suite_id!r}") from None
    if table is None:
        table = PairTable(config)
    elif table.config != config:
        raise InvalidArgument("the pair table was made for another config")
    report = SuiteReport(suite=suite_id, description=suite.description, trials=config.trials)
    rows = _checks(suite, table)
    for i in range(config.trials):
        P, Q = random_pair(config, i)
        for name, slack in rows(i):
            report.record(i, name, slack, P, Q)
    return report


def run_all(config: TrialConfig) -> list:
    """Run every suite, in registry order, sharing one pair table."""
    table = PairTable(config)
    return [run_suite(sid, config, table) for sid in _SUITES]
