"""Span tracer that wraps privadapt's public functions from outside the package.

A traced run replaces each wrapped function in every ``privadapt`` module
namespace that holds it, i.e. the attribute the caller looks up at call
time (``privadapt.convex_objective.loss_grads`` is the binding that
``grad_F`` calls, ``privadapt.harness.fit_convex`` the one the sweep
calls), and restores the originals afterwards.  Nothing in the package
changes.  Each call records a span ``[name, start, end, parent, counts]``
in memory; the spans are written out once the run ends.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time

# Public functions wrapped in a traced run, by defining module.  A span is
# named "<module>.<function>" after the module that defines the function.
LAYERS = {
    "cli": ["main"],
    "harness": ["run_sweep", "emit_results", "spec_from_config"],
    "data_io": ["generate_synthetic", "load_dataset", "resample_target", "write_csv"],
    "discrepancy": ["discrepancy_dca", "discrepancy_grid"],
    "mechanisms": ["derive_rng", "calibrate", "privatize_discrepancy",
                   "gaussian_vector", "laplace_sample"],
    "baselines": ["fit_baseline"],
    "convex_solver": ["fit_convex"],
    "convex_objective": ["grad_F", "eval_F", "project"],
    "nonconvex_solver": ["fit_nonconvex"],
    "nonconvex_objective": ["grad_J", "eval_J", "gradient_mapping_norm",
                            "smoothness_beta_bar"],
    "core": ["loss_grads", "loss_values", "is_feasible"],
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _noise_elements(args, kwargs, result):
    # sigma = 0 returns zeros without drawing (the epsilon = inf cells)
    return {"elements": _arg(args, kwargs, 0, "dim") if _arg(args, kwargs, 1, "sigma") > 0 else 0}


def _emitted_bytes(args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".csv")}


# Counts taken where the work happens, from a wrapped call's arguments and result.
COUNTERS = {
    "convex_solver.fit_convex": lambda a, k, r: {"steps": r.T_used},
    "nonconvex_solver.fit_nonconvex": lambda a, k, r: {"steps": r.T_used},
    "mechanisms.gaussian_vector": _noise_elements,
    "harness.run_sweep": lambda a, k, r: {"cells": len(r.records)},
    "harness.emit_results": _emitted_bytes,
}

NAME, START, END, PARENT, COUNTS = range(5)
# A self time below -SELF_TIME_TOL seconds is a nesting error, not rounding.
SELF_TIME_TOL = 1e-9


class Tracer:
    """Collects spans from wrapped calls and from the benchmark's own phases."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a phase of the benchmark itself (a root span)."""
        span = self._open(name)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, counter):
        open_span, stack, clock = self._open, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = open_span(name)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in LAYERS for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "privadapt" or n.startswith("privadapt."))]
        try:
            for mod_name, funcs in LAYERS.items():
                home = sys.modules[f"privadapt.{mod_name}"]
                for func in funcs:
                    original = getattr(home, func)
                    name = f"{mod_name}.{func}"
                    wrapper = self._wrap(name, original, COUNTERS.get(name))
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                self._restore.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(self._restore):
                setattr(mod, attr, original)
            self._restore.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def roots(self) -> list[int]:
        """Index of the root span of every span (parents precede children)."""
        root = []
        for i, s in enumerate(self.spans):
            root.append(i if s[PARENT] < 0 else root[s[PARENT]])
        return root

    def nesting_problems(self) -> list[str]:
        """Spans that end outside their parent's interval, or whose self time is negative."""
        problems = []
        for i, s in enumerate(self.spans):
            if s[END] < s[START]:
                problems.append(f"span {i} ({s[NAME]}) ends before it starts")
            p = s[PARENT]
            if p >= 0 and not (self.spans[p][START] <= s[START]
                               and s[END] <= self.spans[p][END]):
                problems.append(f"span {i} ({s[NAME]}) lies outside its parent {p}")
        for i, t in enumerate(self.self_times()):
            if t < -SELF_TIME_TOL:
                problems.append(f"span {i} ({self.spans[i][NAME]}) has self time {t}")
        return problems

    def table(self, root_name: str) -> dict:
        """Per-layer totals over the spans under every root span named root_name.

        Returns {name: {"calls", "total_s", "self_s", <summed counts>,
        "by_parent": {parent name: calls}}} plus the number of such roots.
        """
        roots, selfs = self.roots(), self.self_times()
        table: dict = {}
        n_roots = 0
        for i, s in enumerate(self.spans):
            if self.spans[roots[i]][NAME] != root_name:
                continue
            if i == roots[i]:
                n_roots += 1
                continue
            row = table.setdefault(s[NAME], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0, "by_parent": {}})
            row["calls"] += 1
            row["total_s"] += s[END] - s[START]
            row["self_s"] += selfs[i]
            parent = self.spans[s[PARENT]][NAME]
            row["by_parent"][parent] = row["by_parent"].get(parent, 0) + 1
            for key, value in (s[COUNTS] or {}).items():
                row[key] = row.get(key, 0) + value
        return {"layers": table, "roots": n_roots}

    def write_spans(self, path: str) -> None:
        """One line per span: id, parent, name, start and end in seconds
        from the first span's start."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[PARENT]},{s[NAME]},{s[START] - t0:.9f},{s[END] - t0:.9f}\n")
