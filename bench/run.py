"""divbounds benchmark: one workload in one process, from a seed.

    python3 bench/run.py --workload {verify,bounds_grid,histograms} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
src/ directory and nowhere else.  Load comes from one closed-loop caller:
a round (one pass over the workload's inputs) starts when the previous one
has ended, with no extra threads.  With --trace 0 the run prints every
end-to-end metric; with --trace 1 it runs half its time untraced, half
with timing wrappers on the library, and prints the per-layer metrics.
The last line of standard output is the result as one JSON object; the
lines before it give the same metrics as text, the environment and the
checks.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOAD_NAMES = ("verify", "bounds_grid", "histograms")

#: Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 9

#: A phase runs at least this many rounds, even past its time.
MIN_ROUNDS = 2

#: Native thread pools are pinned to one thread in this process and its children.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: glibc malloc settings pinned in every benchmark process: parameter
#: number (malloc.h) and value.  glibc raises its mmap threshold to the
#: size of the largest mmapped block freed so far, so whether the library's
#: multi-megabyte temporaries come from the heap or from fresh mmaps that
#: fault in every page depended on what the process had allocated before:
#: 0.52 s against 0.97 s a histograms round for the same library code.
#: These are the values glibc itself reaches at most, the state of a
#: long-running process.
MALLOPT = {"M_TRIM_THRESHOLD": (-1, 64 << 20), "M_MMAP_THRESHOLD": (-3, 32 << 20)}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0, help="time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_source():
    if not (SRC / "divbounds" / "__init__.py").is_file():
        raise SystemExit(f"error: no divbounds source at {SRC}; run from a source checkout")


def pin_allocator() -> dict:
    """Apply MALLOPT where the C library is glibc; return what was set."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return {}
    return {name: value for name, (param, value) in MALLOPT.items() if mallopt(param, value) == 1}


def import_library():
    """Import divbounds, with the cli that `verify` runs, from this
    checkout's src/, and refuse any other copy."""
    require_source()
    sys.path.insert(0, str(SRC))
    import divbounds
    import divbounds.cli  # noqa: F401  (not imported by the package itself)

    if SRC.resolve() not in Path(divbounds.__file__).resolve().parents:
        raise SystemExit(f"error: divbounds was imported from {divbounds.__file__}, not {SRC}")


def setup_probe(workload: str, seed: int):
    """In a fresh process: time the import plus building the Distributions.

    Making the raw weight vectors is the benchmark's own work and is not
    counted; neither is the reference computed later.  The workload's
    fingerprint, taken after the timing, lets the parent check that a
    fresh process gives the same output for the seed.
    """
    t0 = perf_counter()
    import_library()
    t1 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    t2 = perf_counter()
    wl.build()
    t3 = perf_counter()
    import calibration

    run, reference_s = calibration.KERNELS["interp"]
    factor = reference_s / statistics.median(run() for _ in range(3))
    raw = (t1 - t0) + (t3 - t2)
    print(json.dumps({"setup_s": raw * factor, "raw_setup_s": raw, "fingerprint": wl.fingerprint()}))


def measure_setup(workload: str, seed: int, repeats: int) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def environment(args, mallopt: dict) -> dict:
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model,
        "caches_per_core": caches,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "mallopt": mallopt,
    }


class Phase:
    """Rounds of one workload run back to back for a stated time.

    Times are kept raw and scaled to the reference speed (calibration.py).
    Kernel runs inside a round (`inside`, for a workload with CALIBRATE_AT)
    are left out of a traced phase, where they would count in the spans.
    """

    def __init__(self, wl, seconds: float, tracer=None, inside=False):
        import calibration
        import numpy

        if inside and wl.CALIBRATE_AT:
            speed = calibration.Interleaved(wl.KERNEL, *wl.CALIBRATE_AT)
        else:
            speed = calibration.Speed(wl.KERNEL)
        self.raw_elapsed, raw_op_times = [], []
        self.attempted = self.failed = 0
        self.max_rel_err = 0.0
        self.info = {}
        start = perf_counter()
        with speed:
            while len(self.raw_elapsed) < MIN_ROUNDS or perf_counter() - start < seconds:
                rnd = wl.run_round()
                counts = tracer.end_round() if tracer else None
                raw = speed.end_round(rnd.elapsed)
                verdict = wl.check(rnd)
                if tracer:
                    check_coverage(wl.name, wl.expected_calls(rnd.outputs), counts)
                self.raw_elapsed.append(raw)
                # Kernel time inside the round is taken out of its op times
                # in proportion (exact for verify, whose op time is the round mean).
                raw_op_times.append(rnd.op_times * (raw / rnd.elapsed))
                self.attempted += verdict.attempted
                self.failed += verdict.failed
                self.max_rel_err = max(self.max_rel_err, verdict.max_rel_err)
                self.info = verdict.info
        self.factors = speed.factors()
        self.elapsed = [t * f for t, f in zip(self.raw_elapsed, self.factors)]
        self.op_times = numpy.concatenate([times * f for times, f in zip(raw_op_times, self.factors)])

    @property
    def wall_s(self) -> float:
        return statistics.median(self.elapsed)


def check_coverage(workload: str, expected: dict, counts: dict):
    """Exact call counts prove the wrappers saw every call site."""
    wrong = {k: (counts.get(k), v) for k, v in expected.items() if counts.get(k) != v}
    if wrong:
        raise SystemExit(f"error: trace coverage on {workload}: (counted, expected) {wrong}")


def percentile(values: list, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def emit(env: dict, metrics: dict, attempted: int, failed: int, info: dict, text_only=()):
    """Print the text lines, then the result; `text_only` metrics stay out of it."""
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for line in text_only:
        print(f"metric {line}")
    print(f"metric fail_ratio {failed / attempted!r} ratio ({failed} of {attempted} ops)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    mallopt = pin_allocator()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    require_source()
    # A traced run reports no setup_s, but one fresh process still checks the fingerprint.
    setup = measure_setup(args.workload, args.seed, 1 if args.trace else SETUP_REPEATS)
    import_library()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.build()
    wl.prepare()
    wl.warm_up()  # caches and lazy imports; not timed
    fingerprint = wl.fingerprint()
    # Output that differs between processes for one seed fails every op of the run.
    repeatable = all(p["fingerprint"] == fingerprint for p in setup)
    env = environment(args, mallopt)

    if not args.trace:
        phase = Phase(wl, args.seconds, inside=True)
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] for p in setup), "s"),
            "wall_s": (phase.wall_s, "s"),
            "ops_per_s": (wl.ops_per_round / phase.wall_s, "1/s"),
            "op_p50_us": (percentile(phase.op_times, 50) * 1e6, "us"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        info = dict(
            phase.info,
            rounds=len(phase.elapsed),
            ops_per_round=wl.ops_per_round,
            latency_samples=len(phase.op_times),
            raw_wall_s=statistics.median(phase.raw_elapsed),
            speed_factor=statistics.median(phase.factors),
            raw_setup_s=statistics.median(p["raw_setup_s"] for p in setup),
            setup_samples=[p["setup_s"] for p in setup],
            max_rel_err=phase.max_rel_err,
            fingerprint=fingerprint,
            fresh_process_fingerprints_match=repeatable,
        )
        # Too noisy to bound on a shared host (see README), so printed only.
        p99 = f"op_p99_us {percentile(phase.op_times, 99) * 1e6!r} us ({len(phase.op_times)} samples)"
        failed = phase.failed if repeatable else phase.attempted
        emit(env, metrics, phase.attempted, failed, info, text_only=[p99])
        return 0

    import tracing

    plain = Phase(wl, args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Phase(wl, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(scale=statistics.median(traced.factors))
    metrics["trace.untraced_wall_s"] = (plain.wall_s, "s")
    metrics["trace.traced_wall_s"] = (traced.wall_s, "s")
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    metrics["check.max_rel_err"] = (max(plain.max_rel_err, traced.max_rel_err), "ratio")
    info = dict(
        traced.info,
        untraced_rounds=len(plain.elapsed),
        traced_rounds=len(traced.elapsed),
        ops_per_round=wl.ops_per_round,
        raw_untraced_wall_s=statistics.median(plain.raw_elapsed),
        raw_traced_wall_s=statistics.median(traced.raw_elapsed),
        fingerprint=fingerprint,
        fresh_process_fingerprints_match=repeatable,
    )
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed if repeatable else attempted
    emit(env, metrics, attempted, failed, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
