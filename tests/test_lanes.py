"""Two-lane engine runs: the private u-block stepped on a forked process
gives the same bits as one process, reports its failures and leaves no
process or file descriptor behind."""

import json
import math
import os
import signal
import sys

import numpy as np
import pytest

from privadapt import convex_solver, harness, processes
from privadapt.convex_objective import ConvexGradient
from privadapt.convex_solver import ConvexRunConfig, fit_convex_columns
from privadapt.core import FeasiblePoint, LossModel, PrivacyBudget, RegularizerConfig
from privadapt.data_io import SyntheticShiftSpec, generate_synthetic
from privadapt.harness import SweepCellError, emit_results, read_results, run_sweep
from privadapt.mechanisms import derive_rng
from privadapt.nonconvex_solver import NonConvexRunConfig, fit_nonconvex_columns
from tests.test_harness import NONCONVEX, small_spec

pytestmark = pytest.mark.skipif(sys.platform != "linux",
                                reason="the private lane is forked on Linux only")

SQ = LossModel("squared", r=1.0, lam=1.0)
LG = LossModel("logistic", r=1.0, lam=1.0)
M, N, D = 60, 90, 4
CONVEX_REG = RegularizerConfig(alpha=0.3, kappa1=1.0, kappa2=2.0, kappa_inf=3.0)
SMOOTH_REG = RegularizerConfig(alpha=0.4, lambda1=0.5, lambda2=0.5, lambda_inf=0.5)


def _data(label_rule="linear_regression"):
    data, _ = generate_synthetic(SyntheticShiftSpec(d=D, noise_std=0.1, label_rule=label_rule),
                                 M, N, derive_rng(5, "lanes"))
    return data


def _columns(E):
    # the last column is the non-private one
    epsilons = [0.5, 2.0, 8.0, 15.0][:E - 1] + [math.inf]
    return [(PrivacyBudget(eps, 0.01), 0.1 * (j + 1)) for j, eps in enumerate(epsilons)]


def _start(rng, alpha):
    w = rng.standard_normal(D)
    return FeasiblePoint(0.5 * w / np.linalg.norm(w), M / alpha * (1.0 + rng.random(M)),
                         N / (1.0 - alpha) * (1.0 + rng.random(N)))


def _assert_same_bits(one, two):
    assert len(one) == len(two)
    for a, b in zip(one, two):
        for block in ("w", "u_pub", "u_priv"):
            assert getattr(a.point, block).tobytes() == getattr(b.point, block).tobytes()
        assert a.objective_value == b.objective_value


@pytest.fixture
def bounded():
    """Fail a test that waits on a lane for more than 60 s instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("a two-lane run did not finish")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """Take the size gate off every engine run granted two lanes; returns
    the list of forked runs (one entry each)."""
    runs, original = [], convex_solver._two_lanes

    def counted(*args):
        runs.append(1)
        return original(*args)
    monkeypatch.setattr(convex_solver, "LANE_MIN_ROW_STEPS", 0)
    monkeypatch.setattr(convex_solver, "_two_lanes", counted)
    return runs


@pytest.fixture
def leaves_nothing():
    """Check that every lane process is reaped and every pipe end closed."""
    fds = len(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("E", [1, 2, 5])
@pytest.mark.parametrize("overrides", [False, True], ids=["defaults", "init-and-steps"])
def test_convex_lanes_equal_one_process(E, overrides, forks, bounded, leaves_nothing):
    data = _data()
    run = ConvexRunConfig(T=40, seed=3)
    if overrides:
        run = ConvexRunConfig(T=40, seed=3, step_w=0.05, step_u_pub=200.0,
                              step_u_priv=300.0, init=_start(np.random.default_rng(E), CONVEX_REG.alpha))
    one, two = (fit_convex_columns(data, _columns(E), CONVEX_REG, run, SQ, lanes=lanes)
                for lanes in (1, 2))
    assert len(forks) == 1
    _assert_same_bits(one, two)


@pytest.mark.parametrize("E", [1, 2, 5])
@pytest.mark.parametrize("overrides", [False, True], ids=["defaults", "init"])
def test_nonconvex_lanes_equal_one_process(E, overrides, forks, bounded, leaves_nothing):
    data = _data("linear_classification")
    init = _start(np.random.default_rng(E), SMOOTH_REG.alpha) if overrides else None
    one, two = (fit_nonconvex_columns(data, _columns(E), SMOOTH_REG,
                                      NonConvexRunConfig(T=40, init=init, seed=3), LG,
                                      lanes=lanes)
                for lanes in (1, 2))
    assert len(forks) == 1
    _assert_same_bits(one, two)
    assert [r.grad_mapping_norm for r in one] == [r.grad_mapping_norm for r in two]


@pytest.mark.parametrize("overrides, runs", [
    ({"epsilons": [0.5, 1.0, math.inf], "reg": CONVEX_REG}, 1),
    # an epsilon = inf non-convex cell runs alone
    (NONCONVEX | {"epsilons": [0.5, 1.0, math.inf], "reg": SMOOTH_REG}, 2),
], ids=["convex", "nonconvex"])
def test_sweep_records_equal_in_process(overrides, runs, tmp_path, monkeypatch, forks,
                                        bounded, leaves_nothing):
    # one (n, trial) group: one process slot runs it in process, two grant
    # its engine runs two lanes
    spec = small_spec(**overrides | {"trials": 1})
    sections = {}
    for slots in (1, 2):
        monkeypatch.setattr(harness, "_process_slots", lambda: slots)
        path = tmp_path / f"{slots}.jsonl"
        emit_results(run_sweep(spec), str(path))
        lines = path.read_text().splitlines()
        sections[slots] = lines[:-1]
        tail = json.loads(lines[-1])
        assert (tail["workers"], tail["lanes"]) == (1, slots)
        assert read_results(str(path)).lanes == slots
    assert len(forks) == runs
    assert sections[2] == sections[1]


def _fail_in_private_lane(monkeypatch, fail):
    parent, original = os.getpid(), ConvexGradient.part

    def part(self, lane, *args):
        if os.getpid() != parent:
            fail()
        return original(self, lane, *args)
    monkeypatch.setattr(ConvexGradient, "part", part)


def _boom():
    raise ArithmeticError("boom in the private lane")


def test_private_lane_exception_reaches_caller(monkeypatch, forks, bounded, leaves_nothing):
    _fail_in_private_lane(monkeypatch, _boom)
    with pytest.raises(ArithmeticError, match="boom in the private lane") as info:
        fit_convex_columns(_data(), _columns(2), CONVEX_REG, ConvexRunConfig(T=5), SQ, lanes=2)
    assert any("private lane" in note for note in info.value.__notes__)


def test_private_lane_exception_names_its_sweep_cell(monkeypatch, forks, bounded,
                                                     leaves_nothing):
    monkeypatch.setattr(harness, "_process_slots", lambda: 2)
    _fail_in_private_lane(monkeypatch, _boom)
    with pytest.raises(SweepCellError) as info:
        run_sweep(small_spec(epsilons=[1.0, math.inf], trials=1))
    assert info.value.key == (1.0, 30, 0)
    assert isinstance(info.value.cause, ArithmeticError)


def test_killed_private_lane_raises(monkeypatch, forks, bounded, leaves_nothing):
    _fail_in_private_lane(monkeypatch, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited"):
        fit_convex_columns(_data(), _columns(2), CONVEX_REG, ConvexRunConfig(T=5), SQ, lanes=2)


class TestLaneGrant:
    @pytest.mark.parametrize("workers, expected", [(1, 2), (2, 2), (3, 1), (4, 1)])
    def test_two_lanes_need_two_slots_per_worker(self, monkeypatch, workers, expected):
        monkeypatch.setattr(harness, "_process_slots", lambda: 4)
        assert harness.lane_count(workers) == expected

    def test_one_lane_off_linux(self, monkeypatch):
        monkeypatch.setattr(processes.sys, "platform", "darwin")
        assert harness.lane_count(1) == 1

    @pytest.mark.parametrize("steps, forked", [(39, 0), (40, 1)])
    def test_engine_forks_a_run_of_enough_row_steps(self, monkeypatch, forks, steps, forked):
        monkeypatch.setattr(convex_solver, "LANE_MIN_ROW_STEPS", min(M, N) * 40)
        fit_convex_columns(_data(), _columns(1), CONVEX_REG, ConvexRunConfig(T=steps), SQ,
                           lanes=2)
        assert len(forks) == forked
