"""Self-tests of the benchmark: every workload at a toy size, the output
checks and the tracer.  Run with ``python3 -m pytest benchmarks``."""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS, Workload, toy

DEFS = run.metric_definitions()


def _assert_metrics(report, kind):
    expected = {d["name"]: d for d in DEFS[kind]}
    assert set(report["metrics"]) == set(expected)
    for name, m in report["metrics"].items():
        assert m["unit"] == expected[name]["unit"] and m["unit"]
        assert m["better"] in ("lower", "higher")
        assert isinstance(m["value"], float) or isinstance(m["value"], int)
        assert math.isfinite(m["value"]), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_untraced_emits_every_end_to_end_metric(name, tmp_path):
    report = run.run(toy(WORKLOADS[name]), seed=3, seconds=0, trace=False, out_dir=tmp_path)
    assert report["correct"], report["problems"]
    assert report["failed"] == 0 and report["attempted"] >= 2 * toy(WORKLOADS[name]).cells
    _assert_metrics(report, "end_to_end")
    assert report["metrics"]["cells_ok_share"]["value"] == 1.0
    assert run.SETUP_MIN <= len(report["setup_s"]) <= run.SETUP_MAX


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_traced_emits_every_per_layer_metric(name, tmp_path):
    report = run.run(toy(WORKLOADS[name]), seed=3, seconds=0, trace=True, out_dir=tmp_path)
    assert report["correct"], report["problems"]
    _assert_metrics(report, "per_layer")
    metrics = {k: m["value"] for k, m in report["metrics"].items()}
    # the entry points' own code is unattributed; at toy size its fixed cost
    # (argument parsing, spec loading: about 2 ms) weighs more than in a full run
    assert metrics["harness.unattributed_s"] >= (metrics["cli.main.self_s"]
                                                 + metrics["harness.run_sweep.self_s"])
    assert 0.8 < metrics["trace.attributed_share"] < 1.0
    assert metrics["harness.run_sweep.cells"] == toy(WORKLOADS[name]).cells
    spans = (tmp_path / "spans.csv").read_text().splitlines()
    assert spans[0] == "id,parent,name,start_s,end_s" and len(spans) > 100
    layers = json.loads((tmp_path / "layers.json").read_text())
    assert layers["bench.sweep"][0]["self_s"] >= layers["bench.sweep"][-1]["self_s"]
    if name == "nonconvex_logistic":
        assert 1.0 <= metrics["nonconvex_solver.grad_calls_per_T"] <= 2.0
        assert metrics["discrepancy.discrepancy_dca.calls"] == 0
        assert metrics["baselines.fit_baseline.calls"] == 0
    else:
        assert metrics["harness.dhat_calls_per_cell"] == 1.0
    if WORKLOADS[name].csv is not None:
        assert metrics["data_io.load_dataset.calls"] == 1
        assert metrics["data_io.write_csv.s"] > 0


def _records(T=20):
    return [{"epsilon": eps, "n": 100, "seed": 0, "metric_value": value,
             "objective_value": 1.0, "T_used": T}
            for eps, value in ((1.0, 0.95), (15.0, 0.9), (math.inf, 0.9))]


def _checked(tmp_path, batches, shape=True):
    pkg = run.import_privadapt()
    w = Workload("check", {"epsilons": [1, 15, "inf"], "target_sizes": [100], "trials": 1,
                           "T": 20, "metric": "relative_mse"}, acceptance_shape=shape)
    checker = run.SweepChecker(pkg.harness, w)
    out = str(tmp_path / "out.jsonl")
    for records in batches:
        pkg.harness.emit_results(pkg.harness.SweepResult(records, [], 0.0), out)
        checker.check(0, out)
    return checker


def test_checker_accepts_good_sweeps(tmp_path):
    checker = _checked(tmp_path, [_records(), _records()])
    assert (checker.attempted, checker.failed, checker.problems) == (6, 0, [])
    assert checker.test_error == pytest.approx((0.95 + 0.9 + 0.9) / 3)


def test_checker_counts_bad_cells(tmp_path):
    bad = _records()
    bad[0]["metric_value"] = math.nan     # non-finite
    bad[1]["T_used"] = 19                 # wrong T
    checker = _checked(tmp_path, [bad[:2] + bad[:1]])  # epsilon = inf missing, one repeated
    assert (checker.attempted, checker.failed) == (3, 3)


def test_checker_flags_nondeterminism_and_shape(tmp_path):
    changed = _records()
    changed[2]["metric_value"] = 0.7      # epsilon = inf now 22 % from epsilon = 15
    checker = _checked(tmp_path, [_records(), changed])
    assert checker.failed == 0
    assert any("differs" in p for p in checker.problems)
    assert any("acceptance shape" in p for p in checker.problems)


def test_checker_fails_every_cell_of_a_failed_sweep(tmp_path):
    pkg = run.import_privadapt()
    checker = run.SweepChecker(pkg.harness, toy(WORKLOADS["convex_acceptance"]))
    checker.check(1, str(tmp_path / "missing.jsonl"))
    assert checker.failed == checker.attempted == toy(WORKLOADS["convex_acceptance"]).cells


def test_tracer_spans_nest_and_wrappers_are_restored(tmp_path):
    pkg = run.import_privadapt()
    harness = sys.modules["privadapt.harness"]
    original = harness.fit_convex
    tracer = tracing.Tracer()
    with tracer.installed():
        assert harness.fit_convex is not original
        assert harness.fit_convex.__wrapped__ is original
        with tracer.span("bench.sweep"):
            assert pkg.cli.main(["gen-synth", "--out", str(tmp_path / "s.csv"),
                                 "--m", "5", "--n", "5"]) == 0
    assert harness.fit_convex is original
    assert tracer.nesting_problems() == []
    assert all(t >= -tracing.SELF_TIME_TOL for t in tracer.self_times())
    layers = tracer.table("bench.sweep")["layers"]
    assert layers["cli.main"]["calls"] == 1
    assert layers["data_io.generate_synthetic"]["by_parent"] == {"cli.main": 1}


def test_tracer_flags_a_span_outside_its_parent():
    tracer = tracing.Tracer()
    tracer.spans = [["root", 0.0, 1.0, -1, None], ["child", 0.5, 1.5, 0, None]]
    assert tracer.nesting_problems()


def test_fails_without_program_sources(tmp_path):
    """With only BENCHMARK.json and the benchmark directory, it exits non-zero
    and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "csv_small_cells",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
