"""Timing wrappers installed from outside on divbounds' public functions.

A wrapper replaces the function at every module of the package that holds
it, so calls are caught whichever module looks the name up (for example
both divbounds.harness.divergence and divbounds.estimators.divergence).
Classes are wrapped through a method, which every call site reaches.
Spans (name, parent span, start, end) are kept in memory for one round;
at the end of the round they are folded into per-function totals, with
self time = span duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

#: The package whose modules are searched for call sites.
PACKAGE = "divbounds"

#: Traced functions: metric prefix -> (module, attribute, method or None).
TRACED = {
    "simplex.Distribution": ("simplex", "Distribution", "__init__"),
    "simplex.ratio_range": ("simplex", "ratio_range", None),
    "generators.eval_csiszar": ("generators", "eval_csiszar", None),
    "measures.divergence": ("measures", "divergence", None),
    "measures.phi_s": ("measures", "phi_s", None),
    "type_s_bounds.bound_set": ("type_s_bounds", "bound_set", None),
    "csiszar_bounds.bound_interval": ("csiszar_bounds", "bound_interval", None),
    "csiszar_bounds.mm_closed": ("csiszar_bounds", "mm_closed", None),
    "csiszar_bounds.mm_numeric": ("csiszar_bounds", "mm_numeric", None),
    "csiszar_bounds.difference_bounds": ("csiszar_bounds", "difference_bounds", None),
    "estimators.estimate": ("estimators", "estimate", None),
    "harness.run_suite": ("harness", "run_suite", None),
    "harness.random_pair": ("harness", "random_pair", None),
    "harness.SuiteReport.record": ("harness", "SuiteReport", "record"),
    "cli.main": ("cli", "main", None),
}

#: Functions only counted, because they are called too often to time.
COUNTED = {"csiszar_bounds.g_eval": ("csiszar_bounds", "g_eval")}

#: (m, M) methods read from each BoundReport that bound_interval returns.
METHODS = ("closed_form", "numeric")


def rebind(original, replacement) -> list:
    """Rebind every module-level name of the package that holds `original`;
    return the (module, name, original) triples that undo it."""
    undo = []
    for name, mod in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo: list):
    for obj, attr, original in reversed(undo):
        setattr(obj, attr, original)
    undo.clear()


class Tracer:
    """Installs the wrappers, records spans and totals them per round."""

    def __init__(self):
        self.names = list(TRACED)
        self.rounds = 0
        self._restore = []
        self.counts = {name: 0 for name in COUNTED}
        self.counts.update({f"csiszar_bounds.method.{m}": 0 for m in METHODS})
        self._clear()
        self.totals = {name: np.zeros(4) for name in self.names}  # calls, self, inclusive, errors

    def _clear(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.errors = [0] * len(self.names)
        for name in self.counts:  # reset in place: the counting wrappers hold this dict
            self.counts[name] = 0

    def install(self):
        for idx, (prefix, (mod_name, attr, method)) in enumerate(TRACED.items()):
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            target = getattr(owner, attr)
            if method is None:
                wrapper = self._span(idx, target, counts_methods=prefix == "csiszar_bounds.bound_interval")
                undo = rebind(target, wrapper)
                if not undo:
                    raise RuntimeError(f"no call site found for {prefix}")
                self._restore += undo
            else:
                original = vars(target)[method]
                setattr(target, method, self._span(idx, original))
                self._restore.append((target, method, original))
        for prefix, (mod_name, attr) in COUNTED.items():
            target = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            self._restore += rebind(target, self._count(prefix, target))

    def uninstall(self):
        restore(self._restore)

    def _span(self, idx, fn, counts_methods=False):
        tracer = self

        def wrapper(*args, **kwargs):
            span = len(tracer.span_start)
            tracer.span_name.append(idx)
            tracer.span_parent.append(tracer.stack[-1])
            tracer.span_end.append(0.0)
            tracer.stack.append(span)
            tracer.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[idx] += 1
                raise
            finally:
                tracer.span_end[span] = perf_counter()
                tracer.stack.pop()
            if counts_methods:
                tracer.counts[f"csiszar_bounds.method.{result.mm.method}"] += 1
            return result

        return wrapper

    def _count(self, prefix, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[prefix] += 1
            return fn(*args, **kwargs)

        return wrapper

    def end_round(self) -> dict:
        """Fold this round's spans into the totals; return its call counts."""
        names = np.asarray(self.span_name)
        parents = np.asarray(self.span_parent)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        counts = dict(self.counts)
        for i, name in enumerate(self.names):
            self.totals[name] += (calls[i], self_s[i], incl[i], self.errors[i])
            counts[name] = int(calls[i])
        for name, n in self.counts.items():
            self.totals.setdefault(name, np.zeros(4))[0] += n
        self.rounds += 1
        self._clear()
        return counts

    def metrics(self, scale: float = 1.0) -> dict:
        """Per-round means of every per-layer metric; times multiplied by scale."""
        out = {}
        r = max(self.rounds, 1)
        for name in self.names:
            calls, self_s, incl, errors = self.totals[name]
            out[f"{name}.calls"] = (float(calls / r), "count")
            out[f"{name}.self_s"] = (float(self_s / r * scale), "s")
            out[f"{name}.us_per_call"] = (float(incl / calls * 1e6 * scale) if calls else 0.0, "us")
            out[f"{name}.errors"] = (float(errors / r), "count")
        for name in self.counts:
            key = name if name.startswith("csiszar_bounds.method.") else f"{name}.calls"
            out[key] = (float(self.totals[name][0] / r), "count")
        return out
