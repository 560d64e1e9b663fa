"""Tests for the experiment sweep harness and the command-line interface."""

import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import sys
import warnings

import numpy as np
import pytest

from privadapt import cli, convex_solver, core, discrepancy, harness, processes
from privadapt.baselines import fit_baseline
from privadapt.convex_solver import DEFAULT_T_CEILING
from privadapt.core import LossModel, RegularizerConfig
from privadapt.data_io import (
    DatasetManifest,
    SyntheticShiftSpec,
    generate_synthetic,
    write_csv,
)
from privadapt.harness import (
    SweepCellError,
    SweepSpec,
    emit_results,
    read_results,
    run_sweep,
    spec_from_config,
)
from privadapt.discrepancy import discrepancy_dca, discrepancy_grid, raw_d_hat
from privadapt.mechanisms import derive_rng


linux_only = pytest.mark.skipif(sys.platform != "linux",
                                reason="sweeps fork workers on Linux only")


def small_spec(**overrides):
    base = dict(
        dataset=SyntheticShiftSpec(d=2, noise_std=0.1),
        algorithm="convex",
        epsilons=[1.0, math.inf],
        target_sizes=[30],
        trials=2,
        master_seed=7,
        model=LossModel("squared", r=1.0, lam=1.0),
        reg=RegularizerConfig(alpha=0.5, kappa1=4.0),
        T=50,
        baseline_T=50,
        d_hat=0.0,
        m=40,
        test_size=20,
    )
    base.update(overrides)
    return SweepSpec(**base)


NONCONVEX = {
    "algorithm": "nonconvex",
    "dataset": SyntheticShiftSpec(d=2, label_rule="linear_classification"),
    "model": LossModel("logistic", r=1.0, lam=1.0),
    "reg": RegularizerConfig(alpha=0.5, lambda1=0.5, lambda2=0.5, lambda_inf=0.5),
    "metric": "accuracy",
    "d_hat": 0.1,
}

# mu = 50 exceeds (m + n)^(2/3) = 200^(2/3), so each cell warns
MU_WARNS = dict(algorithm="nonconvex", epsilons=[1.0], target_sizes=[100], m=100, T=None,
                metric="accuracy",
                dataset=SyntheticShiftSpec(d=2, label_rule="linear_classification"),
                model=LossModel("logistic", r=1.0, lam=1.0),
                reg=RegularizerConfig(alpha=0.5, lambda_inf=0.1, mu=50.0))


class TestRunSweep:
    def test_grid_cardinality(self):
        res = run_sweep(small_spec())
        # 2 epsilons x 1 target size x 2 trials
        assert len(res.records) == 4
        assert len(res.aggregates) == 2
        for agg in res.aggregates:
            assert agg["count"] == 2
        assert res.wall_time > 0.0

    def test_record_fields(self):
        res = run_sweep(small_spec())
        for rec in res.records:
            assert set(rec) >= {"epsilon", "n", "seed", "metric_value",
                                "objective_value", "T_used"}
            assert rec["n"] == 30
            assert rec["T_used"] == 50
            assert np.isfinite(rec["metric_value"])

    def test_aggregates_match_records(self):
        res = run_sweep(small_spec())
        for agg in res.aggregates:
            vals = np.array([r["metric_value"] for r in res.records
                             if r["epsilon"] == agg["epsilon"]
                             and r["n"] == agg["n"]])
            assert agg["metric_mean"] == pytest.approx(vals.mean())
            assert agg["metric_std"] == pytest.approx(vals.std(ddof=1))

    def test_aggregate_statistics_by_hand(self):
        # with trials=1 the sample std (ddof=1) is defined as zero
        res = run_sweep(small_spec(trials=1))
        for agg in res.aggregates:
            assert agg["count"] == 1
            assert agg["metric_std"] == 0.0
            rec = [r for r in res.records if r["epsilon"] == agg["epsilon"]][0]
            assert agg["metric_mean"] == rec["metric_value"]

    def test_deterministic_rerun(self):
        a = run_sweep(small_spec())
        b = run_sweep(small_spec())
        assert a.records == b.records
        assert a.aggregates == b.aggregates

    def test_target_only_relative_mse_is_one(self):
        res = run_sweep(small_spec(algorithm="target_only"))
        for rec in res.records:
            assert rec["metric_value"] == 1.0

    def test_common_random_numbers_across_epsilon(self):
        # noiseless cells at different epsilon indices see identical data,
        # so the non-private baseline is constant along the epsilon axis
        res = run_sweep(small_spec(algorithm="mixture_alpha",
                                   epsilons=[1.0, 2.0, math.inf]))
        by_eps = {}
        for rec in res.records:
            by_eps.setdefault(rec["epsilon"], []).append(rec["metric_value"])
        vals = list(by_eps.values())
        assert vals[0] == vals[1] == vals[2]

    def test_accuracy_metric_classification(self):
        spec = small_spec(
            dataset=SyntheticShiftSpec(d=2, label_rule="linear_classification",
                                       noise_std=0.0),
            algorithm="target_only",
            metric="accuracy",
            model=LossModel("logistic", r=1.0, lam=1.0),
        )
        res = run_sweep(spec)
        for rec in res.records:
            assert 0.0 <= rec["metric_value"] <= 1.0

    def test_nonconvex_records_gradient_mapping(self):
        spec = small_spec(algorithm="nonconvex", epsilons=[math.inf], trials=1,
                          model=LossModel("logistic", r=1.0, lam=1.0),
                          reg=RegularizerConfig(alpha=0.5, lambda1=0.1))
        res = run_sweep(spec)
        assert "grad_mapping_norm" in res.records[0]
        assert res.records[0]["grad_mapping_norm"] >= 0.0

    def test_smoothness_warning_once_per_cell(self):
        # mu = 50 exceeds (m + n)^(2/3) = 200^(2/3); T = None resolves the
        # analytic T from the solver's own context, which warns once
        spec = small_spec(**MU_WARNS | {"trials": 1})
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            run_sweep(spec)
        assert sum("mu exceeds" in str(w.message) for w in record) == 1

    def test_cell_error_wraps_cause(self, tmp_path, monkeypatch):
        # a group whose target draw fails names its first cell
        def fails(*args):
            raise ValueError("the draw failed")
        monkeypatch.setattr(harness, "resample_target", fails)
        spec = small_spec(dataset=_csv_dataset(tmp_path), target_sizes=[10], test_size=30)
        with pytest.raises(SweepCellError) as exc_info:
            run_sweep(spec)
        err = exc_info.value
        assert err.key == (1.0, 10, 0)
        assert "the draw failed" in str(err.cause)

    @pytest.mark.parametrize("target_sizes, test_size", [([10], 80), ([10, 61], 20)],
                             ids=["no-pool", "sample-over-pool"])
    def test_csv_too_small_rejected_before_any_group(self, tmp_path, monkeypatch,
                                                    target_sizes, test_size):
        # 80 target rows: the test split and, without replacement, the
        # largest target size must fit; both once failed in the first cell
        def no_group(*args):
            raise AssertionError("a group ran")
        monkeypatch.setattr(harness, "_run_group", no_group)
        spec = small_spec(dataset=_csv_dataset(tmp_path), target_sizes=target_sizes,
                          test_size=test_size)
        with pytest.raises(ValueError, match="80 target rows cannot hold a test split"):
            run_sweep(spec)

    def test_csv_pool_drawn_whole(self, tmp_path):
        spec = small_spec(dataset=_csv_dataset(tmp_path), target_sizes=[60], test_size=20,
                          trials=1, epsilons=[math.inf])
        assert len(run_sweep(spec).records) == 1

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_data_take_the_loss_radius(self, tmp_path, monkeypatch, source):
        # at r = 2 the largest public row norm is scaled to 2 and every row
        # lies in the 2-ball: the loss's r is the one feature radius
        trains = []
        original = harness._cell_data

        def kept(*args):
            trains.append(original(*args)[0])
            return original(*args)
        monkeypatch.setattr(harness, "_cell_data", kept)
        dataset = _csv_dataset(tmp_path) if source == "csv" else SyntheticShiftSpec(d=2)
        run_sweep(small_spec(dataset=dataset, model=LossModel("squared", r=2.0, lam=1.0),
                             trials=1, epsilons=[math.inf]))
        (train,) = trains
        assert np.linalg.norm(train.public_x, axis=1).max() == pytest.approx(2.0, rel=1e-12)
        assert np.linalg.norm(train.private_x, axis=1).max() <= 2.0 * (1.0 + 1e-12)

    def test_shared_work_once_per_n_and_trial(self, monkeypatch):
        # shared-memory counters, so calls made in forked workers count too
        calls = {"discrepancy_dca": multiprocessing.Value("i", 0),
                 "generate_synthetic": multiprocessing.Value("i", 0)}
        # raw_d_hat calls the solver through the discrepancy module's own name
        homes = {"discrepancy_dca": discrepancy, "generate_synthetic": harness}
        for name, counter in calls.items():
            original = getattr(homes[name], name)

            def counted(*args, _counter=counter, _original=original, **kwargs):
                with _counter.get_lock():
                    _counter.value += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(homes[name], name, counted)
        res = run_sweep(small_spec(epsilons=[0.5, 1.0, 5.0, math.inf],
                                   target_sizes=[30, 40], d_hat="dca"))
        assert len(res.records) == 16
        # 2 target sizes x 2 trials, whatever the number of epsilons
        assert {k: v.value for k, v in calls.items()} == \
            {"discrepancy_dca": 4, "generate_synthetic": 4}

    def test_csv_groups_share_the_public_statistics(self, tmp_path, monkeypatch):
        # in one process, the groups' datasets share the loaded public sample
        # and its statistics, formed at the first group and never again
        monkeypatch.setattr(processes, "process_slots", lambda: 1)
        cells, tops = [], []
        cell_data, row_norms = harness._cell_data, core.row_norms

        def kept(spec, base, *args):
            cell = cell_data(spec, base, *args)
            cells.append((base, cell[0]))
            return cell
        monkeypatch.setattr(harness, "_cell_data", kept)
        monkeypatch.setattr(core, "row_norms", lambda x: tops.append(x) or row_norms(x))
        run_sweep(small_spec(dataset=_csv_dataset(tmp_path), target_sizes=[10, 20],
                             test_size=20, d_hat="dca"))
        (base,) = {id(base): base for base, _ in cells}.values()
        assert len(cells) == 4 and set(base.public_stats) == {"tops", "moments"}
        for _, train in cells:
            assert train.public_stats is base.public_stats
            assert np.shares_memory(train.public_x, base.public_x)
            # the values each group's solvers read, as they cached them
            assert vars(train)["moments"][0] is base.public_stats["moments"]
            assert vars(train)["tops"][0] is base.public_stats["tops"]
        assert sum(np.shares_memory(x, base.public_x) for x in tops) == 1
        (G, b, c), (x, y) = base.public_stats["moments"], base.samples[0]
        assert (G.tobytes(), b.tobytes(), c) == ((x.T @ x).tobytes(), (x.T @ y).tobytes(),
                                                 float(y @ y))

    @pytest.mark.parametrize("overrides", [
        {"epsilons": [0.5, 1.0, 5.0, math.inf], "d_hat": "dca",
         "reg": RegularizerConfig(alpha=0.5, kappa1=4.0, kappa2=0.5, kappa_inf=0.5)},
        # T = None: the analytic T differs per epsilon, so cells group by T
        # (here 1, 1, 2 and 16 steps)
        {"epsilons": [0.05, 0.1, 0.11, 0.4], "T": None},
        # non-convex: the finite cells share one run and t*, epsilon = inf runs alone
        NONCONVEX | {"epsilons": [0.5, 1.0, 5.0, math.inf]},
        NONCONVEX | {"epsilons": [5.0, 10.0, 10.2, 20.0], "T": None},  # 6, 12, 12, 24
    ])
    def test_batched_cells_match_single_epsilon_sweeps(self, overrides):
        spec = small_spec(**overrides)
        batched = run_sweep(spec).records
        alone = [rec for eps in spec.epsilons
                 for rec in run_sweep(small_spec(**overrides | {"epsilons": [eps]})).records]
        assert [(r["epsilon"], r["n"], r["seed"], r["T_used"]) for r in batched] == \
            [(r["epsilon"], r["n"], r["seed"], r["T_used"]) for r in alone]
        if spec.T is None:  # some cells share a T and some do not
            assert 1 < len({r["T_used"] for r in batched}) < len(spec.epsilons)
        for got, want in zip(batched, alone):
            assert got["metric_value"] == pytest.approx(want["metric_value"], rel=1e-10)
            assert got["objective_value"] == pytest.approx(want["objective_value"], rel=1e-10)

    @pytest.mark.parametrize("overrides", [{}, NONCONVEX])
    def test_infinite_epsilon_takes_the_finite_cells_T(self, overrides):
        # with T = None an epsilon = inf cell used to take the 200 000-step
        # ceiling; it now takes the T of the finite cells of its (n, trial)
        records = run_sweep(small_spec(**overrides | {"T": None, "trials": 1})).records
        assert [r["epsilon"] for r in records] == [1.0, math.inf]
        assert records[0]["T_used"] == records[1]["T_used"] < DEFAULT_T_CEILING

    def test_without_finite_epsilon_inf_keeps_the_ceiling(self, monkeypatch):
        seen = []

        def record_steps(grad, p, eta, sigma1, sigma2, steps, *args, **kwargs):
            seen.append(steps)
            raise ArithmeticError("stop before the ceiling's steps")
        monkeypatch.setattr(convex_solver, "noisy_pgd", record_steps)
        with pytest.raises(SweepCellError):
            run_sweep(small_spec(epsilons=[math.inf], T=None, trials=1))
        assert seen == [DEFAULT_T_CEILING]

    def test_cell_error_names_the_failing_epsilon(self, monkeypatch):
        from privadapt import harness

        def fail_at_five(kind, data, model, T, budget=None, **kwargs):
            if budget is not None and budget.epsilon_total == 5.0:
                raise ArithmeticError("boom")
            return fit_baseline(kind, data, model, T, budget=budget, **kwargs)
        monkeypatch.setattr(harness, "fit_baseline", fail_at_five)
        with pytest.raises(SweepCellError) as exc_info:
            run_sweep(small_spec(algorithm="target_only_dp",
                                 epsilons=[1.0, 5.0, math.inf]))
        assert exc_info.value.key == (5.0, 30, 0)

        def engine_fails(*args, **kwargs):
            raise ArithmeticError("boom")
        monkeypatch.setattr(harness, "fit_convex_columns", engine_fails)
        with pytest.raises(SweepCellError) as exc_info:
            run_sweep(small_spec(epsilons=[2.0, 5.0, math.inf]))
        # the batched solve covers every epsilon; it names the first
        assert exc_info.value.key == (2.0, 30, 0)

    def test_csv_dataset_sweep(self, tmp_path):
        data, _ = generate_synthetic(SyntheticShiftSpec(d=2, noise_std=0.1),
                                     40, 80, derive_rng(4, "csv2"))
        path = tmp_path / "shift.csv"
        write_csv(data, str(path))
        spec = small_spec(dataset=DatasetManifest(path=str(path)),
                          epsilons=[math.inf], trials=1,
                          target_sizes=[25], test_size=20)
        res = run_sweep(spec)
        assert len(res.records) == 1
        assert np.isfinite(res.records[0]["metric_value"])


@pytest.fixture
def workers(monkeypatch):
    """force(k) fixes the sweep's worker count (1 runs in process, 2 on a
    forked pool) and returns a counter of groups run outside this process."""
    parent, outside = os.getpid(), multiprocessing.Value("i", 0)
    original = harness._run_group

    def spied(*args, **kwargs):
        if os.getpid() != parent:
            with outside.get_lock():
                outside.value += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(harness, "_run_group", spied)

    def force(count):
        monkeypatch.setattr(harness, "_worker_count", lambda groups: count)
        return outside
    return force


def _csv_dataset(tmp_path):
    data, _ = generate_synthetic(SyntheticShiftSpec(d=2, noise_std=0.1),
                                 40, 80, derive_rng(4, "csv2"))
    path = tmp_path / "shift.csv"
    write_csv(data, str(path))
    return DatasetManifest(path=str(path))


def _record_count(spec):
    return len(run_sweep(spec).records)


@linux_only
@pytest.mark.usefixtures("leaves_nothing")
class TestWorkerPool:
    @pytest.mark.parametrize("overrides", [
        {"epsilons": [0.5, 1.0, math.inf], "d_hat": "dca"},
        NONCONVEX | {"epsilons": [0.5, 1.0, math.inf]},
        NONCONVEX | {"epsilons": [5.0, 10.0, 20.0], "T": None},
        {"csv": True, "epsilons": [1.0, math.inf], "target_sizes": [25, 30],
         "test_size": 20},
    ], ids=["convex", "nonconvex", "nonconvex-T-None", "csv"])
    def test_pooled_records_equal_in_process(self, overrides, workers, tmp_path):
        if overrides.pop("csv", False):
            overrides["dataset"] = _csv_dataset(tmp_path)
        spec = small_spec(**overrides | {"trials": 3})
        groups = len(spec.target_sizes) * spec.trials
        lines = {}
        for count in (1, 2):
            outside = workers(count)
            lines[count] = [json.dumps(r) for r in run_sweep(spec).records]
            assert outside.value == (groups if count > 1 else 0)
        assert lines[2] == lines[1]

    def test_worker_warnings_reach_caller(self, workers):
        # two groups, each raising the mu warning once, as in
        # test_smoothness_warning_once_per_cell
        seen = {}
        for count in (1, 2):
            workers(count)
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                run_sweep(small_spec(**MU_WARNS | {"trials": 2}))
            seen[count] = [(w.category, w.filename, w.lineno) for w in record
                           if "mu exceeds" in str(w.message)]
            assert len(seen[count]) == 2
        assert seen[2] == seen[1]
        assert seen[1][0][1].endswith("nonconvex_solver.py")  # the solver's call site

    def test_sweep_in_a_daemonic_worker_runs_in_process(self):
        # a multiprocessing.Pool worker may not start children
        with multiprocessing.get_context("fork").Pool(1) as outer:
            assert outer.apply(_record_count, (small_spec(trials=3),)) == 6

    def test_failing_group_names_its_cell(self, workers, monkeypatch):
        workers(2)
        original = harness._run_group

        def fail_second_trial(spec, base, n, n_idx, trial):
            if trial >= 1:
                raise ArithmeticError(f"boom {trial}")
            return original(spec, base, n, n_idx, trial)
        monkeypatch.setattr(harness, "_run_group", fail_second_trial)
        with pytest.raises(SweepCellError) as exc_info:
            run_sweep(small_spec(trials=4))
        # the first failing group in (n, trial) order, with its cause
        assert exc_info.value.key == (1.0, 30, 1)
        assert isinstance(exc_info.value.cause, ArithmeticError)
        assert str(exc_info.value.cause) == "boom 1"


class TestWorkerCount:
    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(processes.sys, "platform", "linux")
        monkeypatch.setattr(processes.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)

    @pytest.mark.parametrize("env, groups, expected", [
        ({"OPENBLAS_NUM_THREADS": "1"}, 45, 4),
        ({"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 45, 2),
        ({"OMP_NUM_THREADS": "2"}, 45, 2),
        ({"OPENBLAS_NUM_THREADS": "3"}, 45, 1),
        ({}, 45, 1),  # OpenBLAS's default: one thread per CPU
        ({"OPENBLAS_NUM_THREADS": "many"}, 45, 1),
        ({"OPENBLAS_NUM_THREADS": "8"}, 45, 1),
    ])
    def test_processes_times_blas_threads_fit_the_cpus(self, monkeypatch, env, groups,
                                                       expected):
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert harness._worker_count(groups) == expected

    def test_in_process_off_linux(self, monkeypatch):
        monkeypatch.setattr(processes.sys, "platform", "darwin")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert harness._worker_count(45) == 1


def test_sweep_cell_error_pickles():
    err = SweepCellError(math.inf, 30, 2, ValueError("bad cell"))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is SweepCellError
    assert back.key == (math.inf, 30, 2)
    assert type(back.cause) is ValueError and str(back.cause) == "bad cell"
    assert str(back) == str(err)


class TestRawDHat:
    def test_policies(self):
        data, _ = generate_synthetic(SyntheticShiftSpec(d=2), 30, 30, derive_rng(1, "d"))
        model = LossModel("squared", r=1.0, lam=1.0)
        for policy, solver in (("dca", discrepancy_dca), ("grid", discrepancy_grid)):
            est, exact = raw_d_hat(policy, data, model), solver(data, model)
            assert (est.d_hat, est.solver) == (exact.d_hat, policy)
            assert est.witness_w.tobytes() == exact.witness_w.tobytes()
        assert raw_d_hat("0.25", data, model).d_hat == raw_d_hat(0.25, data, model).d_hat == 0.25
        assert raw_d_hat(0.25, data, model).witness_w is None
        assert raw_d_hat(-1.0, data, model).d_hat == 0.0
        assert raw_d_hat(9.0, data, model).d_hat == model.B

    @pytest.mark.parametrize("policy", ["exact", "nan", math.inf])
    def test_rejects_unknown_and_non_finite(self, policy):
        data, _ = generate_synthetic(SyntheticShiftSpec(d=2), 5, 5, derive_rng(1, "d"))
        with pytest.raises(ValueError):
            raw_d_hat(policy, data, LossModel("squared", r=1.0, lam=1.0))


class TestSweepSpecValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            small_spec(algorithm="boosting")

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            small_spec(metric="f1")

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            small_spec(trials=0)

    def test_empty_axes(self):
        with pytest.raises(ValueError):
            small_spec(epsilons=[])
        with pytest.raises(ValueError):
            small_spec(target_sizes=[])

    def test_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            small_spec(epsilons=[0.0])

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, -1.0])
    def test_every_epsilon_checked_by_the_budget_rule(self, bad):
        # a NaN epsilon once drew the data and failed as the cell before it
        with pytest.raises(ValueError, match="epsilon must be positive or inf"):
            small_spec(epsilons=[1.0, bad, math.inf])

    @pytest.mark.parametrize("overrides", [
        {"test_size": 0}, {"m": 0}, {"target_sizes": [30, 0]}, {"baseline_T": 0},
        {"T": 0}, {"test_size": -1}])
    def test_nonpositive_sizes(self, overrides):
        # test_size = 0 once ran to the end and wrote metric_value inf
        with pytest.raises(ValueError, match=">= 1"):
            small_spec(**overrides)

    def test_T_none_allowed(self):
        assert small_spec(T=None).T is None

    @pytest.mark.parametrize("overrides, match", [
        ({"delta": 2.0}, "delta"), ({"delta": 0.0}, "delta"),
        ({"disc_fraction": 1.5}, "disc_fraction"), ({"d_hat": "bogus"}, "d_hat"),
        ({"d_hat": math.nan}, "d_hat")])
    def test_rejects_budget_and_d_hat_before_any_cell(self, overrides, match):
        # each once drew the data and failed in the first cell
        with pytest.raises(ValueError, match=match):
            small_spec(**overrides)


class TestEmitRead:
    def test_round_trip_exact(self, tmp_path):
        res = run_sweep(small_spec())
        path = tmp_path / "out.jsonl"
        emit_results(res, str(path))
        back = read_results(str(path))
        # float equality must survive serialization, including epsilon = inf
        assert back.records == res.records
        assert back.aggregates == res.aggregates
        assert back.wall_time == res.wall_time
        assert (back.workers, back.lanes) == (res.workers, res.lanes)

    @pytest.mark.parametrize("overrides, labelled", [
        ({}, ["metric_value", "objective_value"]),
        (NONCONVEX, ["metric_value", "objective_value", "grad_mapping_norm"]),
    ], ids=["convex", "nonconvex"])
    def test_trailing_object_lists_the_non_private_fields(self, tmp_path, overrides,
                                                          labelled):
        res = run_sweep(small_spec(**overrides))
        path = tmp_path / "out.jsonl"
        emit_results(res, str(path))
        *records, tail = path.read_text().splitlines()
        assert json.loads(tail)["non_private"] == labelled
        assert records == [json.dumps(rec) for rec in res.records]
        assert all(set(labelled) <= set(rec) for rec in res.records)

    def test_infinite_epsilon_serializes(self, tmp_path):
        res = run_sweep(small_spec(epsilons=[math.inf], trials=1))
        path = tmp_path / "inf.jsonl"
        emit_results(res, str(path))
        assert read_results(str(path)).records[0]["epsilon"] == math.inf

    def test_csv_projection_written(self, tmp_path):
        res = run_sweep(small_spec())
        path = tmp_path / "out.jsonl"
        emit_results(res, str(path))
        lines = (tmp_path / "out.jsonl.csv").read_text().splitlines()
        assert lines[0] == "epsilon,n,count,metric_mean,metric_std"
        assert len(lines) == 1 + len(res.aggregates)

    def test_records_section_byte_identical(self, tmp_path):
        for name in ("a.jsonl", "b.jsonl"):
            emit_results(run_sweep(small_spec()), str(tmp_path / name))
        a = (tmp_path / "a.jsonl").read_bytes().splitlines()
        b = (tmp_path / "b.jsonl").read_bytes().splitlines()
        # all but the trailing aggregate line (which carries wall time)
        assert a[:-1] == b[:-1]
        assert json.loads(a[-1])["aggregates"] == json.loads(b[-1])["aggregates"]

    def test_missing_trailer_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"epsilon": 1.0}\n')
        with pytest.raises(ValueError):
            read_results(str(path))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError):
            read_results(str(empty))


class TestSpecFromConfig:
    def base_cfg(self):
        return {
            "synthetic": {"d": 2, "noise_std": 0.1},
            "algorithm": "convex",
            "epsilons": ["0.5", "inf"],
            "target_sizes": [30],
            "trials": 2,
            "master_seed": 7,
            "model": {"kind": "squared", "r": 1.0, "lam": 1.0},
            "reg": {"alpha": 0.5, "kappa1": 4.0},
            "T": 50,
            "d_hat": 0.0,
            "m": 40,
            "test_size": 20,
        }

    def test_builds_spec(self):
        spec = spec_from_config(self.base_cfg())
        assert spec.epsilons == [0.5, math.inf]
        assert isinstance(spec.dataset, SyntheticShiftSpec)
        assert spec.model.kind == "squared"
        assert spec.reg.kappa1 == 4.0
        assert spec.T == 50

    def test_csv_section(self, tmp_path):
        cfg = self.base_cfg()
        del cfg["synthetic"]
        cfg["csv"] = {"path": str(tmp_path / "x.csv")}
        spec = spec_from_config(cfg)
        assert isinstance(spec.dataset, DatasetManifest)

    def test_missing_dataset_section(self):
        cfg = self.base_cfg()
        del cfg["synthetic"]
        with pytest.raises(ValueError):
            spec_from_config(cfg)

    def test_defaults_applied(self):
        cfg = self.base_cfg()
        for key in ("model", "reg", "T", "d_hat", "m", "test_size"):
            del cfg[key]
        spec = spec_from_config(cfg)
        assert spec.model.kind == "squared"
        assert spec.T is None
        assert spec.d_hat == "dca"


class TestCli:
    def _gen(self, tmp_path, capsys, **kw):
        path = tmp_path / "data.csv"
        argv = ["gen-synth", "--out", str(path), "--d", "2",
                "--m", "40", "--n", "60", "--noise-std", "0.1", "--seed", "5"]
        for k, v in kw.items():
            argv += [f"--{k.replace('_', '-')}", str(v)]
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        return path, out

    def test_gen_synth(self, tmp_path, capsys):
        path, out = self._gen(tmp_path, capsys)
        assert path.exists()
        assert out["m"] == 40 and out["n"] == 60 and out["d"] == 2
        assert len(out["w_star"]) == 2

    def test_discrepancy_command(self, tmp_path, capsys):
        path, _ = self._gen(tmp_path, capsys)
        assert cli.main(["discrepancy", "--data", str(path),
                         "--solver", "grid"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d_hat"] >= 0.0
        assert out["d_dp"] == out["d_hat"]  # epsilon defaults to inf
        assert len(out["witness_w"]) == 2

    def test_fit_convex_command(self, tmp_path, capsys):
        path, _ = self._gen(tmp_path, capsys)
        assert cli.main(["fit-convex", "--data", str(path), "--epsilon", "1.0",
                         "--T", "50", "--kappa1", "4.0", "--d-hat", "0.1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["T_used"] == 50
        assert len(out["w"]) == 2
        assert np.isfinite(out["objective_value"])

    def test_fit_nonconvex_command(self, tmp_path, capsys):
        path, _ = self._gen(tmp_path, capsys,
                            label_rule="linear_classification", noise_std=0.0)
        assert cli.main(["fit-nonconvex", "--data", str(path), "--loss",
                         "logistic", "--T", "50", "--d-hat", "0.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["T_used"] == 50
        assert out["grad_mapping_norm"] >= 0.0

    def test_fit_nonconvex_default_T(self, tmp_path, capsys):
        path, _ = self._gen(tmp_path, capsys,
                            label_rule="linear_classification", noise_std=0.0)
        assert cli.main(["fit-nonconvex", "--data", str(path), "--epsilon", "1.0",
                         "--d-hat", "0.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 1 <= out["t_star"] <= out["T_used"]

    @pytest.mark.parametrize("argv, labelled", [
        (["discrepancy", "--solver", "grid"], ["d_hat", "witness_w"]),
        (["fit-convex", "--T", "20", "--d-hat", "0.1"], ["objective_value"]),
        (["fit-nonconvex", "--loss", "squared", "--T", "20", "--d-hat", "0.1"],
         ["objective_value", "grad_mapping_norm"]),
    ], ids=["discrepancy", "fit-convex", "fit-nonconvex"])
    @pytest.mark.parametrize("epsilon", ["1.0", "inf"])
    def test_non_private_values_are_labelled(self, tmp_path, capsys, argv, labelled, epsilon):
        path, _ = self._gen(tmp_path, capsys)
        assert cli.main(argv[:1] + ["--data", str(path), "--epsilon", epsilon] + argv[1:]) == 0
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["non_private"] == labelled
        notes = [line for line in captured.err.splitlines() if "non_private" in line]
        assert len(notes) == (epsilon != "inf")

    def test_value_error_is_one_line_and_exit_code_2(self, tmp_path, capsys):
        # the exact d_hat solve supports the squared loss only
        path, _ = self._gen(tmp_path, capsys,
                            label_rule="linear_classification", noise_std=0.0)
        assert cli.main(["fit-nonconvex", "--data", str(path), "--loss", "logistic",
                         "--T", "20"]) == 2
        err = capsys.readouterr().err
        assert err == "privadapt: error: the exact solver supports the squared loss only\n"

    @pytest.mark.parametrize("option", ["--lam", "--kappa1", "--kappa2", "--kappa-inf"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_fit_convex_rejects_non_finite_settings(self, tmp_path, capsys, option, value):
        # --lam inf and --kappa1 nan once printed NaN weights with exit code 0
        path, _ = self._gen(tmp_path, capsys)
        assert cli.main(["fit-convex", "--data", str(path), "--T", "5", "--d-hat", "0.1",
                         option, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("privadapt: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("option", ["--lambda1", "--lambda2", "--lambda-inf", "--mu"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_fit_nonconvex_rejects_non_finite_settings(self, tmp_path, capsys, option, value):
        path, _ = self._gen(tmp_path, capsys)
        assert cli.main(["fit-nonconvex", "--data", str(path), "--loss", "squared", "--T", "5",
                         "--d-hat", "0.1", option, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("privadapt: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["fit-convex", "fit-nonconvex", "discrepancy"])
    @pytest.mark.parametrize("value", ["nan", "-inf", "-1"])
    def test_epsilon_option_rejects_what_the_budget_rejects(self, tmp_path, capsys, command,
                                                            value):
        # one error line, exit code 2, before the CSV is read: the file is missing
        path = tmp_path / "missing.csv"
        assert cli.main([command, "--data", str(path), f"--epsilon={value}"]) == 2
        err = capsys.readouterr().err
        assert err == f"privadapt: error: epsilon must be positive or inf, got {float(value)!r}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_gen_synth_rejects_a_bad_noise_std(self, tmp_path, capsys, value):
        # --noise-std nan and -1 once wrote noise-free labels with exit code 0
        path = tmp_path / "data.csv"
        assert cli.main(["gen-synth", "--out", str(path), "--noise-std", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("privadapt: error: noise_std must be finite and >= 0")
        assert err.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize("synthetic", [
        {"noise_std": math.nan}, {"noise_std": math.inf}, {"noise_std": -1.0},
        {"r": math.nan}, {"r": math.inf}, {"r": -1.0}, {"d": 2.5},
        # r (now the loss's alone), base_mean and base_cov, once checked here,
        # are no longer settings: the section refuses them as unknown keys
        {"base_mean": [0.0, 0.0, 0.0]}, {"base_mean": [0.0, math.nan]},
        {"base_cov": [[1.0, 0.0], [0.0, math.nan]]}, {"base_cov": [1.0, 1.0]}])
    def test_sweep_rejects_bad_synthetic_settings_before_any_cell(self, tmp_path, capsys,
                                                                  monkeypatch, synthetic):
        def no_cell(*args):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(harness, "_cell_data", no_cell)
        cfg = {"synthetic": {"d": 2} | synthetic, "algorithm": "convex", "epsilons": [1.0],
               "target_sizes": [30], "trials": 1, "master_seed": 0, "T": 5, "m": 40,
               "test_size": 20}
        assert self._sweep(tmp_path, cfg) == 2
        err = capsys.readouterr().err
        key = next(iter(synthetic))
        known = key in {f.name for f in dataclasses.fields(SyntheticShiftSpec)}
        assert err.startswith(f"privadapt: error: {key} must be" if known
                              else f"privadapt: error: synthetic has unknown keys: {key}")
        assert err.count("\n") == 1
        assert not (tmp_path / "o.jsonl").exists()

    def test_sweep_rejects_a_nan_epsilon_before_any_cell(self, tmp_path, capsys, monkeypatch):
        def no_cell(*args):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(harness, "_cell_data", no_cell)
        cfg = {"synthetic": {"d": 2}, "algorithm": "convex", "epsilons": [1.0, "nan"],
               "target_sizes": [30], "trials": 1, "master_seed": 0, "T": 5, "m": 40,
               "test_size": 20}
        assert self._sweep(tmp_path, cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("privadapt: error: epsilon must be positive or inf")
        assert err.count("\n") == 1
        assert not (tmp_path / "o.jsonl").exists()

    def test_sweep_command(self, tmp_path, capsys):
        cfg = {
            "synthetic": {"d": 2, "noise_std": 0.1},
            "algorithm": "convex",
            "epsilons": [1.0, "inf"],
            "target_sizes": [30],
            "trials": 1,
            "master_seed": 7,
            "reg": {"alpha": 0.5, "kappa1": 4.0},
            "T": 50,
            "d_hat": 0.0,
            "m": 40,
            "test_size": 20,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "results.jsonl"
        assert cli.main(["sweep", "--spec", str(spec_path),
                         "--out", str(out_path)]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["records"] == 2
        parsed = read_results(str(out_path))
        assert len(parsed.records) == 2

    def _sweep(self, tmp_path, cfg):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(cfg))
        return cli.main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "o.jsonl")])

    def test_sweep_command_failure(self, tmp_path, capsys, monkeypatch):
        # a failing cell: its target draw raises
        def fails(*args):
            raise ValueError("the draw failed")
        monkeypatch.setattr(harness, "resample_target", fails)
        data, _ = generate_synthetic(SyntheticShiftSpec(d=2), 20, 25, derive_rng(3, "csv"))
        write_csv(data, str(tmp_path / "tiny.csv"))
        cfg = {"algorithm": "convex", "epsilons": [1.0], "target_sizes": [10],
               "trials": 2, "master_seed": 0, "T": 5, "test_size": 5,
               "csv": {"path": str(tmp_path / "tiny.csv")}}
        assert self._sweep(tmp_path, cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("sweep failed: sweep cell (epsilon=1.0, n=10, trial=0)")
        assert "the draw failed" in err

    @pytest.mark.parametrize("target_sizes, test_size", [([10], 30), ([21], 5)],
                             ids=["no-pool", "sample-over-pool"])
    def test_sweep_csv_too_small_exits_2(self, tmp_path, capsys, target_sizes, test_size):
        data, _ = generate_synthetic(SyntheticShiftSpec(d=2), 20, 25, derive_rng(3, "csv"))
        write_csv(data, str(tmp_path / "tiny.csv"))
        cfg = {"algorithm": "convex", "epsilons": [1.0], "target_sizes": target_sizes,
               "trials": 2, "master_seed": 0, "T": 5, "test_size": test_size,
               "csv": {"path": str(tmp_path / "tiny.csv")}}
        assert self._sweep(tmp_path, cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("privadapt: error: ") and err.count("\n") == 1
        assert "25 target rows cannot hold a test split" in err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("cfg, match", [
        ({"csv": {"path": "missing.csv"}}, "missing.csv"),  # relative to tmp_path below
        ({"csv": {"path": "empty.csv"}}, "empty.csv"),
        ({"synthetic": {"d": 2}, "epsilons": [0.0]}, "epsilon"),
        ({"synthetic": {"d": 2}, "trials": None}, "config needs trials"),
        ({"synthetic": {"d": 2}, "delta": 2.0}, "delta"),
        ({"synthetic": {"d": 2}, "disc_fraction": 1.5}, "disc_fraction"),
        ({"synthetic": {"d": 2}, "d_hat": "bogus"}, "d_hat"),
        # fractional counts once ran int(value) or failed as a cell
        ({"synthetic": {"d": 2}, "trials": 1.7}, "trials must be an integer >= 1, got 1.7"),
        ({"synthetic": {"d": 2}, "target_sizes": [50.7]}, "target_sizes must be an integer"),
        ({"synthetic": {"d": 2}, "T": 20.5}, "T must be an integer"),
        ({"synthetic": {"d": 2}, "master_seed": 0.5}, "master_seed must be an integer"),
        ({"synthetic": {"d": 2}, "m": True}, "m must be an integer"),
        # misspelt keys once escaped as a TypeError or were ignored
        ({"synthetic": {"d": 2}, "baseline_t": 5}, "config has unknown keys: baseline_t"),
        ({"synthetic": {"d": 2}, "model": {"lamda": 1.0}}, "model has unknown keys: lamda"),
        ({"synthetic": {"d": 2}, "reg": {"kapa1": 1.0}}, "reg has unknown keys: kapa1"),
        ({"synthetic": {"d": 2, "nosie_std": 0.1}}, "synthetic has unknown keys: nosie_std"),
        ({"csv": {"path": "empty.csv", "lable_column": "y"}},
         "csv has unknown keys: lable_column"),
        ({"synthetic": {}}, "synthetic needs d"),
        ({"synthetic": {"d": 2}, "csv": {"path": "empty.csv"}}, "one 'synthetic' or 'csv'"),
        # values of the wrong type once escaped as a TypeError
        ({"synthetic": {"d": 2}, "epsilons": 1.0}, "not iterable"),
        ({"synthetic": {"d": 2}, "delta": "0.1"}, "not supported"),
        ({"synthetic": {"d": 2}, "model": 3}, "not iterable"),
        # settings that cannot run once ran every cell, failed and exited 1
        ({"synthetic": {"d": 2}, "model": {"kind": "logistic"}},
         "the convex objective requires the squared loss"),
        ({"synthetic": {"d": 2}, "algorithm": "nonconvex", "model": {"kind": "logistic"}},
         "the exact solver supports the squared loss only"),
        ({"synthetic": {"d": 3}, "d_hat": "grid"}, "grid oracle is restricted to d <= 2"),
        ({"csv": {"path": "d3.csv"}, "d_hat": "grid", "test_size": 5},
         "grid oracle is restricted to d <= 2"),
        # repeats once wrote identical aggregate rows over every repeat's records
        ({"synthetic": {"d": 2}, "epsilons": [1, 1]}, "epsilons must not repeat a value"),
        ({"synthetic": {"d": 2}, "target_sizes": [5, 5]},
         "target_sizes must not repeat a value"),
        # the feature radius is the loss's r alone, so the data sections have none
        ({"synthetic": {"d": 2, "r": 2.0}}, "synthetic has unknown keys: r"),
        ({"csv": {"path": "d3.csv", "r_target": 1.5}, "test_size": 5},
         "csv has unknown keys: r_target"),
    ], ids=["missing-csv", "empty-csv", "bad-epsilon", "missing-key", "bad-delta",
            "bad-disc-fraction", "bad-d-hat", "fractional-trials", "fractional-target-size",
            "fractional-T", "fractional-seed", "bool-m", "unknown-key", "unknown-model-key",
            "unknown-reg-key", "unknown-synthetic-key", "unknown-csv-key",
            "missing-synthetic-d", "two-datasets", "epsilons-not-a-list", "delta-string",
            "model-not-a-mapping", "convex-logistic", "dca-logistic", "grid-d3", "csv-grid-d3",
            "repeated-epsilon", "repeated-target-size", "synthetic-r", "csv-r-target"])
    def test_sweep_input_errors_exit_2(self, tmp_path, capsys, cfg, match):
        (tmp_path / "empty.csv").write_text("")
        data, _ = generate_synthetic(SyntheticShiftSpec(d=3), 20, 25, derive_rng(3, "csv"))
        write_csv(data, str(tmp_path / "d3.csv"))
        cfg = {"algorithm": "convex", "epsilons": [1.0], "target_sizes": [5], "trials": 1,
               "master_seed": 0} | cfg
        if "csv" in cfg:
            cfg["csv"] = cfg["csv"] | {"path": str(tmp_path / cfg["csv"]["path"])}
        if cfg["trials"] is None:
            del cfg["trials"]
        assert self._sweep(tmp_path, cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("privadapt: error: ") and err.count("\n") == 1
        assert match in err
        assert not (tmp_path / "o.jsonl").exists()

    @linux_only
    def test_sweep_dead_worker_exits_1(self, tmp_path, capsys, workers, monkeypatch):
        workers(2)
        parent = os.getpid()

        def die_in_worker(*args):
            if os.getpid() != parent:
                os._exit(1)
        monkeypatch.setattr(harness, "_run_group", die_in_worker)
        cfg = {"synthetic": {"d": 2}, "algorithm": "convex", "epsilons": [1.0],
               "target_sizes": [30], "trials": 2, "master_seed": 0, "T": 5, "m": 40,
               "test_size": 20}
        assert self._sweep(tmp_path, cfg) == 1
        assert capsys.readouterr().err.startswith("sweep failed: ")
