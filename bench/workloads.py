"""The benchmark's workloads: inputs made from a seed, timed rounds, checks.

Each workload makes its raw weight vectors with its own
numpy.random.Generator and hands them to divbounds.normalize / smooth, so
no change inside the library can change its inputs.  A round is one pass
over the workload's fixed inputs; it is repeated until the run's time is
spent.  Outputs are checked after the round, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import divbounds as db
import divbounds.cli  # noqa: F401  (makes db.cli available)

import reference
from reference import CATALOG_IDS, PairReference

#: The library's default s grid (TrialConfig.s_samples), restated here.
S_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)

#: Relative tolerance of a value against the benchmark's own reference.
REL_TOL = 1e-6

#: Relative tolerance of g at the pair's actual ratios against [m, M].
G_TOL = 1e-9


@dataclass
class Round:
    """What one timed pass produced: its wall time, per-op times, outputs."""

    elapsed: float
    op_times: np.ndarray
    outputs: list


@dataclass
class Verdict:
    """The checks of one round."""

    attempted: int
    failed: int
    max_rel_err: float = 0.0
    info: dict = field(default_factory=dict)


class Checker:
    """Accumulates failed ops and the worst relative error of one round."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = 0
        self.max_rel_err = 0.0

    def close(self, value, ref: float) -> bool:
        if not (isinstance(value, float) and math.isfinite(value)):
            return False
        err = abs(value - ref) / abs(ref)
        self.max_rel_err = max(self.max_rel_err, err)
        return err <= REL_TOL

    def op(self, ok: bool):
        self.failed += not ok

    def verdict(self, **info) -> Verdict:
        return Verdict(self.attempted, self.failed, self.max_rel_err, info)


def _timed(call, *args):
    """Run one library call; return (result or raised exception, seconds)."""
    t0 = perf_counter()
    try:
        out = call(*args)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out = exc
    return out, perf_counter() - t0


class Workload:
    """Fixed inputs from a seed; build() makes the Distributions (set-up),
    prepare() the reference (untimed), run_round() one timed pass."""

    #: (module, function) after whose calls the calibration kernel runs
    #: inside a round (calibration.Interleaved), or None.
    CALIBRATE_AT = None

    def build(self):
        pass

    def prepare(self):
        pass

    def warm_up(self):
        self.run_round()

    def fingerprint(self):
        """A digest of output that must be the same in every process for
        one seed, or None when the round-by-round checks cover it."""
        return None


class Verify(Workload):
    """`divbounds verify --all --trials 1000` run in process, stdout captured.

    An op is one (suite, trial) evaluation.  The harness makes its own pairs
    from the seed, so set-up is the import alone.  Only round boundaries
    are visible from outside, so the per-op latency samples are rounds,
    each its mean time per op; a round is the ROADMAP's end-to-end command.
    """

    name = "verify"
    KERNEL = "interp"
    CALIBRATE_AT = ("harness", "run_suite")  # 34 calls, about 0.2 s each
    TRIALS = 1000
    WARM_UP_TRIALS = 10
    SUITES = 34
    _LINE = re.compile(
        r"suite=(\S+) trials=(\d+) checks=(\d+) violations=(\d+) worst_slack=\S+ tightest_slack=\S+"
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.argv = ["verify", "--all", "--trials", str(self.TRIALS), "--seed", str(seed)]
        self.digest = None
        self.checks = None

    def warm_up(self):
        self.fingerprint()

    def fingerprint(self) -> str:
        """sha256 of the stdout of a short verify (WARM_UP_TRIALS) for the seed."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            db.cli.main(["verify", "--all", "--trials", str(self.WARM_UP_TRIALS), "--seed", str(self.seed)])
        return hashlib.sha256(buf.getvalue().encode()).hexdigest()

    @property
    def ops_per_round(self) -> int:
        return self.SUITES * self.TRIALS

    def run_round(self) -> Round:
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = db.cli.main(self.argv)
        except Exception as exc:  # reported as a failed round
            code = exc
        elapsed = perf_counter() - t0
        return Round(elapsed, np.array([elapsed / self.ops_per_round]), [code, buf.getvalue()])

    def check(self, rnd: Round) -> Verdict:
        code, text = rnd.outputs
        digest = hashlib.sha256(text.encode()).hexdigest()
        lines = text.splitlines()
        suites = [self._LINE.fullmatch(line) for line in lines[:-1]]
        well_formed = (
            code == 0
            and len(suites) == self.SUITES
            and all(suites)
            and lines[-1:] == ["total_violations=0"]
            and all(int(m.group(2)) == self.TRIALS for m in suites)
        )
        if self.digest is None:
            self.digest = digest
        if not well_formed or digest != self.digest:
            return Verdict(self.ops_per_round, self.ops_per_round, info={"digest": digest})
        failed = sum(self.TRIALS for m in suites if int(m.group(4)) != 0)
        self.checks = sum(int(m.group(3)) for m in suites)
        return Verdict(self.ops_per_round, failed, info={"digest": digest, "checks": self.checks})

    def expected_calls(self, outputs) -> dict:
        return {
            "cli.main": 1,
            "harness.run_suite": self.SUITES,
            "harness.random_pair": self.SUITES * self.TRIALS,
            "harness.SuiteReport.record": self.checks,
        }


class BoundsGrid(Workload):
    """bound_interval for every catalog id across the s grid, on small pairs.

    Pairs have n in [2, 64]; the log-weights of each vector are uniform in
    [-w, w] with w spread geometrically over [0.02, 8], so ratio ranges run
    from nearly 1 up to about 1e-6..1e6.  19 of the 81 (measure, s) cells
    fall in the gap where (m, M) comes from the numeric scan.
    """

    name = "bounds_grid"
    KERNEL = "interp"
    PAIRS = 200
    W_MIN, W_MAX = 0.02, 8.0

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        # Sizes and widths are stratified (every seed gets the same sets, in
        # its own order), so the amount of numeric work hardly varies by seed.
        sizes = rng.permutation(2 + np.arange(self.PAIRS) % 63)
        widths = rng.permutation(np.geomspace(self.W_MIN, self.W_MAX, self.PAIRS))
        self.raw = []
        for n, w in zip(sizes, widths):
            self.raw.append((np.exp(w * rng.uniform(-1.0, 1.0, n)), np.exp(w * rng.uniform(-1.0, 1.0, n))))
        self.cells = [(m, s) for s in S_GRID for m in CATALOG_IDS]

    def build(self):
        self.pairs = [(db.normalize(p), db.normalize(q)) for p, q in self.raw]

    def prepare(self):
        """Per (pair, cell): g's extremes at the actual ratios and C_f."""
        self.expect = []
        for P, Q in self.pairs:
            ref = PairReference(P.probs, Q.probs)
            x = P.probs / Q.probs
            for m, s in self.cells:
                g = reference.g_values(m, s, x)
                self.expect.append((float(g.min()), float(g.max()), ref.csiszar(m)))

    @property
    def ops_per_round(self) -> int:
        return len(self.pairs) * len(self.cells)

    def run_round(self) -> Round:
        times, outputs = [], []
        t0 = perf_counter()
        for P, Q in self.pairs:
            for m, s in self.cells:
                out, dt = _timed(db.bound_interval, m, s, P, Q)
                times.append(dt)
                outputs.append(out)
        return Round(perf_counter() - t0, np.array(times), outputs)

    def check(self, rnd: Round) -> Verdict:
        chk = Checker(self.ops_per_round)
        numeric = 0
        for rep, (g_lo, g_hi, cf) in zip(rnd.outputs, self.expect):
            if isinstance(rep, Exception):
                chk.op(False)
                continue
            mm = rep.mm
            numeric += mm.method == "numeric"
            # C_f is measured against the reference but does not fail the op:
            # on the narrowest pairs (ratios within 1e-5 of 1) the library's
            # naive sums are known to lose about ten digits.
            chk.close(rep.value, cf)
            chk.op(
                rep.holds
                and math.isfinite(rep.value)
                and math.isfinite(mm.m)
                and math.isfinite(mm.M)
                and g_lo >= mm.m - G_TOL * abs(mm.m)
                and g_hi <= mm.M + G_TOL * abs(mm.M)
            )
        return chk.verdict(numeric=numeric)

    def expected_calls(self, outputs) -> dict:
        numeric = sum(getattr(getattr(r, "mm", None), "method", None) == "numeric" for r in outputs)
        return {
            "csiszar_bounds.bound_interval": self.ops_per_round,
            "csiszar_bounds.method.closed_form": self.ops_per_round - numeric,
            "csiszar_bounds.method.numeric": numeric,
            "csiszar_bounds.mm_numeric": numeric,
        }


class Histograms(Workload):
    """Every measure, phi_s, Csiszar sum, bound set and estimator on large pairs.

    Pairs come from Poisson count vectors over a shuffled Zipf profile
    (mean 3 counts a bin, so many bins are empty), smoothed with ALPHA.
    Sizes and their order are fixed, so the working set and the order of
    allocations are the same for every seed (peak RSS depends on both): each
    pair (2 * n doubles, 2.4 to 6.1 MiB) is larger than a 2 MiB L2 and far
    smaller than a 300 MiB L3.  One pair in NEAR_EVERY is near-equal:
    p = q * (1 + NEAR_EPS * z), z standard normal, re-normalized.  At this
    epsilon the library's naive sums lose about nine digits (relative error
    near 1e-7) and still pass REL_TOL.
    """

    name = "histograms"
    KERNEL = "vector"
    SIZES = (160_000, 220_000, 290_000, 400_000)
    NEAR_EVERY = 4
    NEAR_EPS = 1e-4
    ALPHA = 0.5
    MEAN_COUNT = 3.0

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.raw = []
        for k, n in enumerate(self.SIZES):
            profile = rng.permutation(1.0 / np.arange(10.0, n + 10.0) ** 1.1)
            lam = profile * (self.MEAN_COUNT * n / profile.sum())
            counts_q = rng.poisson(lam).astype(np.float64)
            if k % self.NEAR_EVERY == 0:
                self.raw.append(("near", counts_q, rng.standard_normal(n)))
            else:
                tilt = np.exp(0.5 * rng.standard_normal(n))
                self.raw.append(("counts", counts_q, rng.poisson(lam * tilt).astype(np.float64)))
        self.estimators = db.all_estimators()

    def build(self):
        self.pairs = []
        for kind, counts_q, other in self.raw:
            Q = db.smooth(counts_q, self.ALPHA)
            if kind == "near":
                P = db.normalize(Q.probs * (1.0 + self.NEAR_EPS * other))
            else:
                P = db.smooth(other, self.ALPHA)
            self.pairs.append((P, Q))

    def prepare(self):
        gens = db.catalog()
        # One pair's ops as (library function, key, leading args); P, Q follow.
        self.calls = [("divergence", m, (m,)) for m in db.MEASURE_IDS]
        self.calls += [("phi_s", s, (s,)) for s in S_GRID]
        self.calls += [("eval_csiszar", m, (gens[m],)) for m in CATALOG_IDS]
        self.calls += [("bound_set", s, (s,)) for s in S_GRID]
        self.calls += [("estimate", e, (e,)) for e in self.estimators]
        self.refs = []
        for P, Q in self.pairs:
            ref = PairReference(P.probs, Q.probs, S_GRID)
            self.refs.append(
                {
                    "div": {m: ref.divergence(m) for m in db.MEASURE_IDS},
                    "phi": {s: ref.phi_s(s) for s in S_GRID},
                    "e": {s: ref.e_phi_s(s) for s in S_GRID},
                    "csiszar": {m: ref.csiszar(m) for m in CATALOG_IDS},
                    "est": {e: reference.estimator(ref, e.family, e.t) for e in self.estimators},
                    "r": ref.r,
                    "R": ref.R,
                }
            )

    @property
    def ops_per_round(self) -> int:
        return len(self.pairs) * len(self.calls)

    def run_round(self) -> Round:
        # Calls are resolved through the package at run time, so a traced
        # round goes through the wrappers installed after prepare().
        times, outputs = [], []
        t0 = perf_counter()
        for P, Q in self.pairs:
            for kind, _, args in self.calls:
                out, dt = _timed(getattr(db, kind), *args, P, Q)
                times.append(dt)
                outputs.append(out)
        return Round(perf_counter() - t0, np.array(times), outputs)

    def check(self, rnd: Round) -> Verdict:
        chk = Checker(self.ops_per_round)
        per_pair = len(self.calls)
        for i, out in enumerate(rnd.outputs):
            kind, key = self.calls[i % per_pair][:2]
            ref = self.refs[i // per_pair]
            if isinstance(out, Exception):
                chk.op(False)
            elif kind == "divergence":
                chk.op(chk.close(out, ref["div"][key]))
            elif kind == "phi_s":
                chk.op(chk.close(out, ref["phi"][key]))
            elif kind == "eval_csiszar":
                chk.op(chk.close(out, ref["csiszar"][key]))
            elif kind == "bound_set":
                chk.op(
                    out.holds
                    and chk.close(out.phi, ref["phi"][key])
                    and chk.close(out.e_bound, ref["e"][key])
                    and math.isfinite(out.a_bound)
                    and (out.b_bound is None or math.isfinite(out.b_bound))
                )
            else:
                chk.op(ref["r"] <= out <= ref["R"] and chk.close(out, ref["est"][key]))
        return chk.verdict()

    def expected_calls(self, outputs) -> dict:
        k = len(self.pairs)
        by_estimators = sum(len(used) for used, _ in reference.ESTIMATORS.values())
        return {
            "measures.divergence": k * (len(db.MEASURE_IDS) + by_estimators),
            "measures.phi_s": 2 * k * len(S_GRID),
            "generators.eval_csiszar": k * len(CATALOG_IDS),
            "type_s_bounds.bound_set": k * len(S_GRID),
            "simplex.ratio_range": k * len(S_GRID),
            "estimators.estimate": k * len(self.estimators),
        }


WORKLOADS = {w.name: w for w in (Verify, BoundsGrid, Histograms)}
