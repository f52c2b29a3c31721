"""Speed calibration: fixed work that never touches divbounds.

On a shared virtual machine (measured on a 2-vCPU Xeon guest) the same
round slowed down by up to 1.7x for tens of seconds at a time while
neighbouring guests were busy, so a 30-second run could sit wholly inside
a slow spell.  Each round is therefore bracketed by a short kernel whose
instruction mix resembles the workload's, and every time the benchmark
reports is multiplied by (reference time / kernel time): it is given at
the speed at which the kernel takes its reference time.  Raw times are
printed next to the scaled ones.  A round made of one long library call
is also split at the calls of a function inside it (Interleaved), since
spells switch faster than such a round lasts.

Two kernels: "interp" makes many tiny numpy calls, dataclass instances
and f-string keys from Python over small arrays scattered across the
heap (interpreter and call overhead on a working set larger than L2,
like the small-pair workloads); "vector" is a few
passes of log/multiply/sum over a 2.4 MB array (like the large-pair
workload).  A kernel that does not match the workload's mix does not
track its slowdowns, so the choice is per workload.
"""

from __future__ import annotations

import functools
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import tracing

_LARGE = np.linspace(0.5, 1.5, 300_000)


@dataclass(frozen=True)
class _Pair:
    index: int
    probs: np.ndarray


@functools.lru_cache(maxsize=1)
def _small_arrays() -> list:
    """20000 arrays of 2 to 64 entries, scattered over several MB of heap."""
    rng = np.random.default_rng(0)
    return [rng.random(int(n)) + 0.5 for n in rng.integers(2, 65, 20_000)]


def _interp() -> float:
    arrays = _small_arrays()
    t0 = perf_counter()
    out = {}
    for i in range(0, len(arrays), 7):
        pair = _Pair(i, arrays[i])
        out[f"s={i}:x"] = float(np.sum(pair.probs * np.log(pair.probs))) - float(pair.probs.min())
    return perf_counter() - t0


def _vector() -> float:
    t0 = perf_counter()
    for _ in range(22):
        float(np.sum(_LARGE * np.log(_LARGE)))
    return perf_counter() - t0


#: kernel -> (function, its time in seconds at the reference speed)
KERNELS = {"interp": (_interp, 0.020), "vector": (_vector, 0.020)}


class Speed:
    """Kernel runs between consecutive rounds, turned into per-round factors.

    Run i comes just before round i and run i + 1 just after it.  A round's
    factor uses the median of the WINDOW runs on each side of it, so one
    disturbed kernel run does not skew a round, while spells of tens of
    seconds are still followed.
    """

    WINDOW = 3

    def __init__(self, kernel: str):
        self.run, self.reference_s = KERNELS[kernel]
        self.samples = [self.run()]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def end_round(self, elapsed: float) -> float:
        """Call after every round; returns the round's raw time."""
        self.samples.append(self.run())
        return elapsed

    def factors(self) -> list:
        s, w = self.samples, self.WINDOW
        return [self.reference_s / statistics.median(s[max(0, i + 1 - w) : i + 1 + w]) for i in range(len(s) - 1)]


class Interleaved(Speed):
    """Kernel runs inside a round, after every call of one library function.

    A round that is one long library call (verify: about 7 s) spans several
    slow and fast spells, which kernel runs at its ends cannot see.  So the
    function (`module`.`attr`, e.g. harness.run_suite) is rebound at every
    module of the package that holds it, and the kernel runs each time it
    returns.  The kernel's time is taken out of the round's raw time.  Each
    call is scaled by the mean of the kernel runs just before and after
    it; the rest of the round by the median of the round's kernel runs.
    If the function is never called, this is a factor per round from the
    kernel runs at its two ends.
    """

    def __init__(self, kernel: str, module: str, attr: str):
        super().__init__(kernel)
        self.target = getattr(sys.modules[f"{tracing.PACKAGE}.{module}"], attr)
        self._undo = []
        self._factors = []
        self._start_round()

    def __enter__(self):
        self._undo = tracing.rebind(self.target, self._wrap(self.target))
        return self

    def __exit__(self, *exc):
        tracing.restore(self._undo)
        return False

    def _start_round(self):
        self.calls, self.samples, self.kernel_s = [], self.samples[-1:], 0.0

    def _wrap(self, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.calls.append(t1 - t0)
                self.samples.append(self.run())
                self.kernel_s += perf_counter() - t1

        return wrapper

    def end_round(self, elapsed: float) -> float:
        self.samples.append(self.run())
        raw = elapsed - self.kernel_s
        s, ref = self.samples, self.reference_s
        inside = sum(t * 2.0 * ref / (s[i] + s[i + 1]) for i, t in enumerate(self.calls))
        rest = (raw - sum(self.calls)) * ref / statistics.median(s)
        self._factors.append((inside + rest) / raw)
        self._start_round()
        return raw

    def factors(self) -> list:
        return list(self._factors)
