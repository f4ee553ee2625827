"""Span tracing of the package's public entry points, installed from outside.

``Tracer.install`` replaces every module attribute of the package that binds
one of the traced functions (the home binding and every re-import, such as
``protocols.likelihood_grid`` or ``cli.run_ensemble``) with a wrapper that
records a span.  Spans carry their parent's id and stay in memory until
``dump`` writes them out.  A layer's self time is its span time minus the
time of its child spans (the program is single-threaded, so children never
overlap).  ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import pkgutil
import time

import numpy as np

PACKAGE = "quditmag"

# (module, function) pairs traced by every workload.  A name that disappears
# from its module is an error, so a layer cannot drop out of the trace
# silently.
TRACED = (
    ("core", "pulse_unitary"),
    ("decoherence", "likelihood_grid"),
    ("bayes", "expected_gain"),
    ("bayes", "bayes_update"),
    ("bayes", "entropy"),
    ("protocols", "run_protocol"),
    ("optimizer", "optimize_step_params"),
    ("harness", "run_ensemble"),
    ("harness", "first_step_gain_curve"),
    ("harness", "oscillation_study"),
    ("config", "load_config"),
    ("cli", "main"),
)


class TraceError(RuntimeError):
    """A traced name is missing from the package."""


def _count_likelihood(counters, args, result):
    # likelihood_grid(prep, t, readout, omegas, params): sizes of the arrays
    # it reads and writes, computed from their shapes (not measured traffic).
    prep, _, readout, omegas = (np.asarray(a) for a in args[:4])
    counters["decoherence.likelihood_grid.points"] += result.shape[0]
    counters["decoherence.likelihood_grid.bytes_computed"] += (
        prep.nbytes + readout.nbytes + omegas.nbytes + result.nbytes)


def _count_expected_gain(counters, args, result):
    counters["bayes.expected_gain.points"] += args[0].grid.m


def _count_protocol(counters, args, result):
    counters["protocols.steps"] += len(result.steps)


def _count_search(counters, args, result):
    counters["optimizer.evaluations"] += result.n_evaluations
    counters["optimizer.searches"] += 1
    counters["optimizer.starts"] += result.starts
    counters["optimizer.useful_starts"] += int(
        (result.start_gains >= result.best_gain - 1e-6).sum())
    counters["optimizer.budget_exhausted"] += int(result.budget_exhausted)


COUNTERS = {
    "decoherence.likelihood_grid": _count_likelihood,
    "bayes.expected_gain": _count_expected_gain,
    "protocols.run_protocol": _count_protocol,
    "optimizer.optimize_step_params": _count_search,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent id, name, start, end)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: collections.Counter = collections.Counter()
        self.counting_s = 0.0             # time spent in the counters
        self._stack: list[list] = []      # [span id, child seconds]
        self._saved: list[tuple] = []     # (module, attribute, original)
        self.bindings: list[str] = []     # module attributes wrapped

    def _wrap(self, name: str, func, count=None):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            self._stack.append([span_id, 0.0])
            counting = 0.0
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                if count is not None:
                    mark = time.perf_counter()
                    count(self.counters, args, result)
                    counting = time.perf_counter() - mark
            finally:
                end = time.perf_counter()
                _, child = self._stack.pop()
                self.spans[span_id] = (span_id, parent, name, start, end)
                self.calls[name] += 1
                # counting is tracing overhead: no layer's self time
                self.self_s[name] += (end - start) - child - counting
                self.counting_s += counting
                if self._stack:
                    self._stack[-1][1] += end - start
            return result
        return traced

    def install(self) -> None:
        """Wrap every binding of every traced function in the package."""
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        wrappers = {}
        for module_name, func_name in TRACED:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            func = getattr(module, func_name, None)
            if not callable(func):
                raise TraceError(f"traced function {module_name}.{func_name} "
                                 "no longer exists")
            name = f"{module_name}.{func_name}"
            wrappers[id(func)] = self._wrap(name, func, COUNTERS.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._saved.append((module, attr, value))
                    self.bindings.append(f"{module.__name__}.{attr}")
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self, path: str, facts: dict) -> None:
        """Write the spans, per-layer totals and run facts as one JSON file."""
        with open(path, "w") as handle:
            json.dump({"facts": facts, "calls": self.calls,
                       "self_s": self.self_s, "counters": self.counters,
                       "spans": self.spans}, handle)
            handle.write("\n")


def per_call_overhead_s(n: int = 20000) -> float:
    """Extra seconds one traced call costs over the same untraced call,
    measured on a no-op function in this process."""
    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)
    elapsed = []
    for func in (noop, traced):
        start = time.perf_counter()
        for _ in range(n):
            func()
        elapsed.append(time.perf_counter() - start)
    return (elapsed[1] - elapsed[0]) / n
