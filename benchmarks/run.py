#!/usr/bin/env python3
"""Benchmark of privadapt's ``sweep`` entry point, run in process.

    python3 benchmarks/run.py --workload convex_acceptance --seed 1 --seconds 30 --trace 0

Sets the workload up (import privadapt from ``src/`` next to this directory,
write the inputs, warm up) several times, each in a fresh interpreter, then
imports privadapt in this process, warms it up and runs ``privadapt.cli.main
(["sweep", ...])`` until ``--seconds`` are used, checking every sweep's
output.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced sweeps and reports the
per-layer metrics.  The last line of stdout is the JSON result; a summary
goes to stderr, and the result, spans and layer table to
``.bench_out/<workload>/``.
"""

import os

# BLAS reads these once, when numpy loads.  One thread per process: cells
# run one after another, and no run may use more threads than the machine
# has cores.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import (WORKLOADS, Workload, make_inputs, spec_path,  # noqa: E402
                       warm_up_config)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Set-up runs at least SETUP_MIN times, and more (up to SETUP_MAX) while the
# set-ups so far took under SETUP_BUDGET_S, so a cheap set-up gets a steadier
# median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
SETUP_TIMEOUT_S = 150
# Spans that only dispatch to the named layers: their self time (argument
# parsing, the per-cell loop, data slicing, scoring) counts as unattributed.
ENTRY_POINTS = ("cli.main", "harness.run_sweep")


def import_privadapt() -> types.SimpleNamespace:
    """Import privadapt afresh from SRC (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "privadapt" or n.startswith("privadapt.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("privadapt")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"privadapt was imported from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"privadapt.{m}")
                                    for m in ("cli", "harness", "data_io", "mechanisms")})


def sweep(pkg, spec_path: str, out_path: str) -> tuple[int, float]:
    """One ``privadapt sweep`` through the CLI entry point; returns (exit code, seconds)."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = pkg.cli.main(["sweep", "--spec", spec_path, "--out", out_path])
        return rc, time.perf_counter() - t0


def warm_up(pkg, w: Workload, seed: int, work: Path) -> None:
    """One short sweep through the workload's layers, so BLAS start-up and
    first calls happen before any timed sweep."""
    warm = warm_up_config(w)
    rc, _ = sweep(pkg, make_inputs(warm, pkg, seed, str(work)), str(work / f"{warm.name}.jsonl"))
    if rc != 0:
        raise RuntimeError(f"warm-up sweep exited with code {rc}")


def set_up(w: Workload, seed: int, work: Path, tracer=None):
    """Import privadapt, write the inputs and warm every layer up; returns
    (modules, spec path).  With a tracer, everything after the import is
    traced under a "bench.setup" span."""
    pkg = import_privadapt()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
            stack.enter_context(tracer.span("bench.setup"))
        spec = make_inputs(w, pkg, seed, str(work))
        warm_up(pkg, w, seed, work)
    return pkg, spec


def cold_set_up(w: Workload, seed: int, work: Path) -> float:
    """``set_up`` in a fresh interpreter, so it pays for importing numpy and
    privadapt and for BLAS start-up; returns its wall time in seconds."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run, workloads; "
            "run.set_up(workloads.Workload(**json.loads(sys.argv[2])), int(sys.argv[3]), "
            "run.Path(sys.argv[4]))")
    argv = [sys.executable, "-c", code, str(BENCH_DIR), json.dumps(dataclasses.asdict(w)),
            str(seed), str(work)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return elapsed


def _epsilon(e) -> float:
    return math.inf if e in ("inf", "Infinity") else float(e)


def _finite(rec: dict, key: str) -> bool:
    value = rec.get(key)
    return isinstance(value, (int, float)) and math.isfinite(value)


class SweepChecker:
    """Checks each sweep's output and counts the cells that fail.

    A cell fails when its record is missing or repeated, when metric_value or
    objective_value is not finite, or when T_used differs from the configured
    T; every cell of a sweep that exits non-zero fails.  Per sweep, the
    record section read back with read_results must be byte-identical to the
    first sweep's.  On an acceptance-shaped workload the non-private fit must
    beat the target-only reference (relative MSE < 1) and epsilon = 15 must
    lie within 10 % of it, the two conditions of the acceptance gate that
    hold for a single trial.  (The gate's third, a mean non-increasing in
    epsilon, holds for its 10-trial mean but not per trial: adjacent
    epsilons differ by less than the trial noise.)
    """

    def __init__(self, harness, w: Workload):
        c = w.config
        self.harness, self.w, self.T = harness, w, c["T"]
        self.keys = [(_epsilon(e), int(n), t) for e in c["epsilons"]
                     for n in c["target_sizes"] for t in range(c["trials"])]
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first_section = None
        self.test_error = math.nan

    def check(self, rc: int, out_path: str) -> None:
        self.attempted += len(self.keys)
        if rc != 0:
            self.failed += len(self.keys)
            self.problems.append(f"sweep exited with code {rc}")
            return
        try:
            records = self.harness.read_results(out_path).records
        except (OSError, ValueError) as exc:
            self.failed += len(self.keys)
            self.problems.append(f"unreadable sweep output: {exc}")
            return
        by_key = {}
        for rec in records:
            by_key.setdefault((rec.get("epsilon"), rec.get("n"), rec.get("seed")), []).append(rec)
        for key in self.keys:
            recs = by_key.get(key, [])
            if not (len(recs) == 1 and _finite(recs[0], "metric_value")
                    and _finite(recs[0], "objective_value") and recs[0].get("T_used") == self.T):
                self.failed += 1
        if set(by_key) - set(self.keys):
            self.problems.append("records for cells outside the sweep grid")

        section = "".join(json.dumps(r) + "\n" for r in records)
        if self.first_section is None:
            self.first_section = section
            values = [r["metric_value"] for r in records if _finite(r, "metric_value")]
            if values:
                mean = statistics.fmean(values)
                self.test_error = 1.0 - mean if self.w.config["metric"] == "accuracy" else mean
        elif section != self.first_section:
            self.problems.append("record section differs between two sweeps of one spec")

        if self.w.acceptance_shape:
            by_eps = {}
            for r in records:
                if _finite(r, "metric_value"):
                    by_eps.setdefault(r["epsilon"], []).append(r["metric_value"])
            means = {e: statistics.fmean(v) for e, v in by_eps.items()}
            top, near = means.get(math.inf, math.nan), means.get(15.0, math.nan)
            if not (top < 1.0 and abs(near - top) <= 0.10 * top):
                self.problems.append(f"relative MSE by epsilon breaks the acceptance shape: {means}")


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def layer_metrics(tracer: tracing.Tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics of one sweep, averaged over the traced sweeps."""
    sweep_table = tracer.table("bench.sweep")
    k, layers = sweep_table["roots"], sweep_table["layers"]
    setup = tracer.table("bench.setup")["layers"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "by_parent": {}}

    def row(name, table=layers):
        return table.get(name, empty)

    def per(a, b):
        return a / b if b else 0.0

    def calls(name):
        return row(name)["calls"] / k

    def s_per_call(name, key="total_s"):
        return per(row(name)[key], row(name)["calls"])

    cells = row("harness.run_sweep").get("cells", 0)
    grad_steps = row("convex_objective.grad_F")["calls"] + row("nonconvex_objective.grad_J")["calls"]
    fc, fn = row("convex_solver.fit_convex"), row("nonconvex_solver.fit_nonconvex")
    # traced sweep time not in the self time of a layer that does the work:
    # the root's gap around cli.main plus the entry points' own code
    roots_s = sum(s[tracing.END] - s[tracing.START] for s in tracer.spans
                  if s[tracing.PARENT] < 0 and s[tracing.NAME] == "bench.sweep")
    worker_self = sum(r["self_s"] for name, r in layers.items() if name not in ENTRY_POINTS)
    unattributed = roots_s - worker_self
    return {
        "core.loss_grads.calls": calls("core.loss_grads"),
        "core.loss_grads.s_per_call": s_per_call("core.loss_grads"),
        "core.loss_values.calls": calls("core.loss_values"),
        "core.loss_values.s_per_call": s_per_call("core.loss_values"),
        "core.is_feasible.calls_per_step": per(row("core.is_feasible")["calls"], grad_steps),
        "convex_objective.grad_F.calls": calls("convex_objective.grad_F"),
        "convex_objective.grad_F.s_per_call": s_per_call("convex_objective.grad_F"),
        "convex_objective.grad_F.self_s_per_call": s_per_call("convex_objective.grad_F", "self_s"),
        "convex_objective.project.s_per_call": s_per_call("convex_objective.project"),
        "convex_objective.eval_F.calls": calls("convex_objective.eval_F"),
        "convex_solver.fit_convex.s_per_fit": s_per_call("convex_solver.fit_convex"),
        "convex_solver.fit_convex.self_s_per_step": per(fc["self_s"], fc.get("steps", 0)),
        "convex_solver.fit_convex.steps": fc.get("steps", 0) / k,
        "nonconvex_objective.grad_J.calls": calls("nonconvex_objective.grad_J"),
        "nonconvex_objective.grad_J.s_per_call": s_per_call("nonconvex_objective.grad_J"),
        "nonconvex_objective.grad_J.self_s_per_call":
            s_per_call("nonconvex_objective.grad_J", "self_s"),
        "nonconvex_objective.gradient_mapping_norm.s":
            row("nonconvex_objective.gradient_mapping_norm")["total_s"] / k,
        "nonconvex_solver.fit_nonconvex.s_per_fit": s_per_call("nonconvex_solver.fit_nonconvex"),
        "nonconvex_solver.fit_nonconvex.self_s_per_step": per(fn["self_s"], fn.get("steps", 0)),
        "nonconvex_solver.grad_calls_per_T": per(
            row("nonconvex_objective.grad_J")["by_parent"].get("nonconvex_solver.fit_nonconvex", 0),
            fn.get("steps", 0)),
        "mechanisms.gaussian_vector.calls": calls("mechanisms.gaussian_vector"),
        "mechanisms.gaussian_vector.total_s": row("mechanisms.gaussian_vector")["total_s"] / k,
        "mechanisms.gaussian_vector.elements": row("mechanisms.gaussian_vector").get("elements", 0) / k,
        "mechanisms.derive_rng.calls": calls("mechanisms.derive_rng"),
        "mechanisms.calibrate.calls": calls("mechanisms.calibrate"),
        "mechanisms.privatize_discrepancy.calls": calls("mechanisms.privatize_discrepancy"),
        "discrepancy.discrepancy_dca.calls": calls("discrepancy.discrepancy_dca"),
        "discrepancy.discrepancy_dca.s_per_call": s_per_call("discrepancy.discrepancy_dca"),
        "discrepancy.discrepancy_dca.total_s": row("discrepancy.discrepancy_dca")["total_s"] / k,
        "harness.dhat_calls_per_cell": per(row("discrepancy.discrepancy_dca")["calls"]
                                           + row("discrepancy.discrepancy_grid")["calls"], cells),
        "data_io.generate_synthetic.calls": calls("data_io.generate_synthetic"),
        "data_io.generate_synthetic.s": row("data_io.generate_synthetic")["total_s"] / k,
        "data_io.load_dataset.calls": calls("data_io.load_dataset"),
        "data_io.load_dataset.s": row("data_io.load_dataset")["total_s"] / k,
        "data_io.resample_target.calls": calls("data_io.resample_target"),
        "data_io.resample_target.s": row("data_io.resample_target")["total_s"] / k,
        "data_io.write_csv.s": row("data_io.write_csv", setup)["total_s"],
        "baselines.fit_baseline.calls": calls("baselines.fit_baseline"),
        "baselines.fit_baseline.s_per_call": s_per_call("baselines.fit_baseline"),
        "harness.ref_fits_per_cell": per(row("baselines.fit_baseline")["calls"], cells),
        "harness.run_sweep.cells": cells / k,
        "harness.run_sweep.self_s": row("harness.run_sweep")["self_s"] / k,
        "harness.emit_results.s": row("harness.emit_results")["total_s"] / k,
        "harness.emit_results.bytes": row("harness.emit_results").get("bytes", 0) / k,
        "harness.unattributed_s": unattributed / k,
        "cli.main.self_s": row("cli.main")["self_s"] / k,
        "trace.attributed_share": per(worker_self, roots_s),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }


def layer_report(tracer: tracing.Tracer, traced: list) -> dict:
    """Every traced layer's calls, total and self time per sweep, by self time."""
    out = {}
    for root in ("bench.sweep", "bench.setup"):
        t = tracer.table(root)
        k = max(t["roots"], 1)
        rows = [{"layer": name, "calls": r["calls"] / k, "total_s": r["total_s"] / k,
                 "self_s": r["self_s"] / k,
                 **({"self_share": r["self_s"] / sum(traced)} if root == "bench.sweep" else {})}
                for name, r in t["layers"].items()]
        out[root] = sorted(rows, key=lambda r: -r["self_s"])
    return out


def metric_definitions() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {"end_to_end": bench["end_to_end"], "per_layer": bench["per_layer"]}


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Set up, measure for about ``seconds``, check; returns the full report."""
    work = out_dir / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if trace else None

    setup_s = []
    if trace:
        pkg, spec = set_up(w, seed, work, tracer)
    else:
        # cold set-ups write the inputs; this process only imports and warms
        # up, so its peak memory is that of the timed sweeps
        while len(setup_s) < SETUP_MIN or (len(setup_s) < SETUP_MAX
                                           and sum(setup_s) < SETUP_BUDGET_S):
            setup_s.append(cold_set_up(w, seed, work))
        pkg, spec = import_privadapt(), spec_path(w, str(work))
        warm_up(pkg, w, seed, work)
    rss_after_setup_mb = peak_rss_mb()

    checker = SweepChecker(pkg.harness, w)
    out = str(work / "sweep.jsonl")
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        rc, t = sweep(pkg, spec, out)
        untraced.append(t)
        checker.check(rc, out)
        if trace:
            with tracer.installed(), tracer.span("bench.sweep"):
                rc, t = sweep(pkg, spec, out)
            traced.append(t)
            checker.check(rc, out)
        elapsed = time.perf_counter() - start
        rounds = len(untraced)
        # at least two sweeps of the spec, so determinism is checked; then
        # another round only while it fits in the time given
        if rounds * (1 + trace) >= 2 and elapsed + elapsed / rounds > seconds:
            break

    problems = list(checker.problems)
    if trace:
        metrics = layer_metrics(tracer, traced, untraced)
        problems += tracer.nesting_problems()
        tracer.write_spans(str(out_dir / "spans.csv"))
        with open(out_dir / "layers.json", "w") as fh:
            json.dump(layer_report(tracer, traced), fh, indent=1)
        kind = "per_layer"
    else:
        metrics = {
            "sweep_s": statistics.median(untraced),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
            "test_error_mean": checker.test_error,
            "cells_ok_share": 1.0 - checker.failed / checker.attempted,
        }
        kind = "end_to_end"
    defs = metric_definitions()[kind]
    return {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_info(),
        "setup_s": setup_s, "sweep_s": untraced, "traced_sweep_s": traced,
        "peak_rss_after_setup_mb": rss_after_setup_mb,
        "problems": problems,
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted, "failed": checker.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"],
                                "better": d["better"]} for d in defs},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "privadapt" / "__init__.py").is_file():
        print(f"privadapt sources not found under {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    out_dir = OUT_DIR / w.name
    report = run(w, args.seed, args.seconds, bool(args.trace), out_dir)
    with open(out_dir / f"result-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print(json.dumps(report["machine"]), file=sys.stderr)
    for p in report["problems"]:
        print(f"problem: {p}", file=sys.stderr)
    for name, m in report["metrics"].items():
        print(f"{name:52s} {m['value']:>14.6g} {m['unit']:8s} ({m['better']} is better)",
              file=sys.stderr)
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
