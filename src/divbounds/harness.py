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
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .csiszar_bounds import CLOSED_FORM_REGIONS, bound_interval, difference_bounds
from .errors import InvalidArgument, UnknownSuite
from .estimators import EstimatorId, estimate
from .generators import CATALOG_IDS, catalog
from .measures import divergence, phi_s
from .simplex import Distribution, ratio_range
from .type_s_bounds import bound_set

#: A violation is any slack below this (separates genuine failures from
#: accumulated rounding in 64-entry sums; all quantities are O(1)-O(100)).
VIOLATION_TOL = -1e-9

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """64-bit finalizer: xor-shift / multiply avalanche."""
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def _uniforms(key: int, count: int) -> np.ndarray:
    """`count` uniforms in [0, 1) from counter-mode mixing of `key`."""
    base = np.uint64(key) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = base
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class TrialConfig:
    seed: int = 0
    trials: int = 1000
    n_min: int = 2
    n_max: int = 64
    concentration: float = 2.0
    s_samples: tuple = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidArgument("trials must be >= 1")
        if not 2 <= self.n_min <= self.n_max <= 10**6:
            raise InvalidArgument("need 2 <= n_min <= n_max <= 1e6")
        if not self.concentration > 0:
            raise InvalidArgument("concentration must be positive")


#: Most probability entries (8 bytes each) the pair memo holds, about 8 MB.
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
    objects while the memo's budget lasts.
    """
    global _memo
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


def _build_pair(config: TrialConfig, trial_index: int):
    """Build the pair of :func:`random_pair` from scratch."""
    key = _mix((config.seed ^ _mix(trial_index * _GOLDEN)) & _MASK)
    u = _uniforms(key, 1 + 2 * config.n_max)
    n = config.n_min + int(u[0] * (config.n_max - config.n_min + 1))

    def build(block: np.ndarray) -> Distribution:
        raw = np.exp(config.concentration * (2.0 * block - 1.0))
        probs = raw / raw.sum()
        probs = np.maximum(probs, 1e-12)
        probs = probs / probs.sum()
        # Renormalizing can push a floored entry back under the floor; the
        # resulting sum excess (at most n * 1e-12) stays inside the
        # Distribution normalization tolerance.
        return Distribution(np.maximum(probs, 1e-12))

    return build(u[1 : 1 + n]), build(u[1 + config.n_max : 1 + config.n_max + n])


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
        self.worst_slack = min(self.worst_slack, slack)
        if slack < VIOLATION_TOL:
            self.violations += 1
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
        else:
            self.tightest_slack = min(self.tightest_slack, slack)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "description": self.description,
            "trials": self.trials,
            "checks": self.checks,
            "violations": self.violations,
            "worst_slack": self.worst_slack,
            "tightest_slack": self.tightest_slack,
            "examples": self.examples,
        }


# ---------------------------------------------------------------------------
# Per-trial checkers.  Each returns {check_name: slack}; identities report
# slack = -|lhs - rhs| so the shared violation threshold applies uniformly.


def _identity(diff: float) -> float:
    return -abs(diff)


def _check_eq3(P, Q, cfg, idx):
    j = divergence("J", P, Q)
    return {"J=D1+D2": _identity(j - divergence("D1", P, Q) - divergence("D2", P, Q))}


def _check_eq12(P, Q, cfg, idx):
    j = divergence("J", P, Q)
    return {"J=4(I+T)": _identity(j - 4.0 * (divergence("I", P, Q) + divergence("T", P, Q)))}


def _check_eq13(P, Q, cfg, idx):
    d1 = divergence("D1", P, Q)
    return {"D1=2(F2+G2)": _identity(d1 - 2.0 * (divergence("F2", P, Q) + divergence("G2", P, Q)))}


def _check_phi_cases(P, Q, cfg, idx):
    return {
        "phi(-1)=chi2_adj/2": _identity(phi_s(-1.0, P, Q) - 0.5 * divergence("CHI2_ADJ", P, Q)),
        "phi(0)=KL_adj": _identity(phi_s(0.0, P, Q) - divergence("KL_ADJ", P, Q)),
        "phi(1/2)=4h": _identity(phi_s(0.5, P, Q) - 4.0 * divergence("HELLINGER", P, Q)),
        "phi(1)=KL": _identity(phi_s(1.0, P, Q) - divergence("KL", P, Q)),
        "phi(2)=chi2/2": _identity(phi_s(2.0, P, Q) - 0.5 * divergence("CHI2", P, Q)),
    }


def _check_thm31(P, Q, cfg, idx):
    out = {}
    for s in cfg.s_samples:
        bs = bound_set(s, P, Q)
        for name, slack in bs.checks.items():
            out[f"s={s:g}:{name}"] = slack
    return out


def _check_thm32(P, Q, cfg, idx):
    measure = CATALOG_IDS[idx % len(CATALOG_IDS)]
    s = cfg.s_samples[(idx // len(CATALOG_IDS)) % len(cfg.s_samples)]
    rep = bound_interval(measure, s, P, Q)
    out = {
        f"{measure},s={s:g}:lower": rep.lower_slack,
        f"{measure},s={s:g}:upper": rep.upper_slack,
    }
    diff = difference_bounds(catalog()[measure], s, P, Q, mm=rep.mm)
    for name, slack in diff.checks.items():
        out[f"{measure},s={s:g}:{name}"] = slack
    return out


def _sandwich_suite(measure: str, s_values, restrict: bool = False):
    """Closed-form sandwich checks for one measure.

    With restrict=True the configured s_samples are used, filtered to the
    measure's closed-form validity region (falling back to the defaults
    when the filter leaves nothing).
    """

    def check(P, Q, cfg, idx):
        values = s_values
        if restrict:
            lo, hi = CLOSED_FORM_REGIONS[measure]
            values = tuple(s for s in cfg.s_samples if s <= lo or s >= hi) or s_values
        out = {}
        for s in values:
            rep = bound_interval(measure, s, P, Q, method="closed")
            out[f"s={s:g}:lower"] = rep.lower_slack
            out[f"s={s:g}:upper"] = rep.upper_slack
        return out

    return check


def _prop_suite(pairs):
    """pairs: (name, fn(P, Q) -> slack) tuples."""

    def check(P, Q, cfg, idx):
        return {name: fn(P, Q) for name, fn in pairs}

    return check


def _containment_suite(estimator_ids):
    def check(P, Q, cfg, idx):
        rng = ratio_range(P, Q)
        out = {}
        for est in estimator_ids:
            v = estimate(est, P, Q)
            out[f"{est}>=r"] = v - rng.r
            out[f"{est}<=R"] = rng.R - v
        return out

    return check


def _d(measure):
    return lambda P, Q: divergence(measure, P, Q)


_SQRT2 = math.sqrt(2.0)
_C34 = 3.0 * math.sqrt(3.0) / 4.0

_SUITES: "dict[str, tuple[str, Callable]]" = {
    "eq3": ("J-divergence splits into its two relative halves", _check_eq3),
    "eq12": ("J equals four times the sum of the JS and AG divergences", _check_eq12),
    "eq13": ("relative J equals twice the sum of the adjoint JS/AG halves", _check_eq13),
    "phi_cases": ("power-family special cases hit chi-square, KL and Hellinger", _check_phi_cases),
    "thm31": ("phi_s bound chain: 0 <= phi <= E <= A, phi <= B <= A, B-phi <= A", _check_thm31),
    "thm32": ("generic sandwich m*phi_s <= C_f <= M*phi_s plus difference forms", _check_thm32),
    "thm41": ("closed-form sandwich for relative J-divergence", _sandwich_suite("D1", (-2.0, -1.0, 0.0, 0.5, 0.75, 2.0, 3.0), restrict=True)),
    "cor41": ("relative J vs chi-square/KL/Hellinger special cases", _sandwich_suite("D1", (-1.0, 0.0, 0.5, 2.0))),
    "prop41": (
        "relative J bounded by 9/8 of KL",
        _prop_suite([("D1<=9/8*KL", lambda P, Q: 1.125 * divergence("KL", P, Q) - divergence("D1", P, Q))]),
    ),
    "thm42": ("closed-form sandwich for the adjoint relative J-divergence", _sandwich_suite("D2", (-2.0, -1.0, 0.25, 1.0, 2.0), restrict=True)),
    "cor42": ("adjoint relative J special cases", _sandwich_suite("D2", (-1.0, 0.5, 1.0, 2.0))),
    "prop42": (
        "adjoint relative J bounded by 9/8 of adjoint KL",
        _prop_suite([("D2<=9/8*KL_adj", lambda P, Q: 1.125 * divergence("KL_ADJ", P, Q) - divergence("D2", P, Q))]),
    ),
    "thm43": ("closed-form sandwich for relative JS-divergence", _sandwich_suite("F1", (-2.0, -1.0, 1.0, 1.5, 2.0), restrict=True)),
    "cor43": ("relative JS special cases", _sandwich_suite("F1", (-1.0, 1.0, 2.0))),
    "prop43": (
        "relative JS bounded by KL_adj/4 and (3*sqrt3/4)*Hellinger",
        _prop_suite(
            [
                ("F1<=KL_adj/4", lambda P, Q: 0.25 * divergence("KL_ADJ", P, Q) - divergence("F1", P, Q)),
                ("F1<=c*h", lambda P, Q: _C34 * divergence("HELLINGER", P, Q) - divergence("F1", P, Q)),
            ]
        ),
    ),
    "thm44": ("closed-form sandwich for the adjoint relative JS-divergence", _sandwich_suite("F2", (-1.0, 0.0, 2.0, 3.0), restrict=True)),
    "cor44": ("adjoint relative JS special cases", _sandwich_suite("F2", (-1.0, 0.0, 2.0))),
    "prop44": (
        "adjoint relative JS bounded by (3*sqrt3/4)*Hellinger and KL/4",
        _prop_suite(
            [
                ("F2<=c*h", lambda P, Q: _C34 * divergence("HELLINGER", P, Q) - divergence("F2", P, Q)),
                ("F2<=KL/4", lambda P, Q: 0.25 * divergence("KL", P, Q) - divergence("F2", P, Q)),
            ]
        ),
    ),
    "thm45": ("closed-form sandwich for relative AG-divergence", _sandwich_suite("G1", (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0), restrict=True)),
    "cor45": ("relative AG special cases", _sandwich_suite("G1", (-1.0, 0.0, 0.5, 1.0, 2.0))),
    "thm46": ("closed-form sandwich for the adjoint relative AG-divergence", _sandwich_suite("G2", (-1.0, 0.0, 1.0, 2.0, 3.0), restrict=True)),
    "cor46": ("adjoint relative AG special cases", _sandwich_suite("G2", (-1.0, 0.0, 0.5, 1.0, 2.0))),
    "thm51": ("closed-form sandwich for J-divergence", _sandwich_suite("J", (-1.0, 0.0, 1.0, 2.0), restrict=True)),
    "cor51": ("J-divergence special cases", _sandwich_suite("J", (-1.0, 0.0, 1.0, 2.0))),
    "prop51": (
        "Hellinger bounded by J/8",
        _prop_suite([("h<=J/8", lambda P, Q: divergence("J", P, Q) / 8.0 - divergence("HELLINGER", P, Q))]),
    ),
    "thm52": ("closed-form sandwich for JS-divergence", _sandwich_suite("I", (-1.0, 0.0, 1.0, 2.0), restrict=True)),
    "cor52": ("JS-divergence special cases", _sandwich_suite("I", (-1.0, 0.0, 1.0, 2.0))),
    "prop52": (
        "JS bounded by Hellinger",
        _prop_suite([("I<=h", lambda P, Q: divergence("HELLINGER", P, Q) - divergence("I", P, Q))]),
    ),
    "thm53": ("closed-form sandwich for AG-divergence", _sandwich_suite("T", (-2.0, -1.0, 2.0, 3.0), restrict=True)),
    "cor53": ("AG-divergence special cases", _sandwich_suite("T", (-1.0, 2.0))),
    "prop53": (
        "AG dominates Hellinger and (sqrt2-1)/2 of both KL directions",
        _prop_suite(
            [
                ("c*KL_adj<=T", lambda P, Q: divergence("T", P, Q) - 0.5 * (_SQRT2 - 1.0) * divergence("KL_ADJ", P, Q)),
                ("c*KL<=T", lambda P, Q: divergence("T", P, Q) - 0.5 * (_SQRT2 - 1.0) * divergence("KL", P, Q)),
                ("h<=T", lambda P, Q: divergence("T", P, Q) - divergence("HELLINGER", P, Q)),
            ]
        ),
    ),
    "rem41": ("xi estimators stay inside the ratio range", _containment_suite([EstimatorId("XI", t) for t in range(1, 9)])),
    "rem51": ("zeta estimators stay inside the ratio range", _containment_suite([EstimatorId("ZETA", t) for t in range(1, 5)])),
    "eq194": (
        "chain: JS <= Hellinger <= min(AG, J/8)",
        _prop_suite(
            [
                ("I<=h", lambda P, Q: divergence("HELLINGER", P, Q) - divergence("I", P, Q)),
                ("h<=T", lambda P, Q: divergence("T", P, Q) - divergence("HELLINGER", P, Q)),
                ("h<=J/8", lambda P, Q: divergence("J", P, Q) / 8.0 - divergence("HELLINGER", P, Q)),
            ]
        ),
    ),
}


def suite_ids() -> tuple:
    return tuple(_SUITES)


def run_suite(suite_id: str, config: TrialConfig) -> SuiteReport:
    """Run one suite over `config.trials` deterministic pairs."""
    try:
        description, check = _SUITES[suite_id]
    except KeyError:
        raise UnknownSuite(f"unknown suite {suite_id!r}") from None
    report = SuiteReport(suite=suite_id, description=description, trials=config.trials)
    for i in range(config.trials):
        P, Q = random_pair(config, i)
        for name, slack in check(P, Q, config, i).items():
            report.record(i, name, slack, P, Q)
    return report


def run_all(config: TrialConfig) -> list:
    """Run every suite, in registry order."""
    return [run_suite(sid, config) for sid in _SUITES]
