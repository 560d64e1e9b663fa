"""Two-lane engine runs: in a process with two process slots, the private
u-block stepped on a forked process gives the same bits as one process,
reports its failures and leaves no process or file descriptor behind."""

import errno
import json
import math
import multiprocessing
import os
import signal
import sys

import numpy as np
import pytest

from privadapt import convex_solver, processes
from privadapt.convex_objective import ConvexGradient
from privadapt.convex_solver import (ConvexRunConfig, fit_convex, fit_convex_columns,
                                     noisy_pgd)
from privadapt.core import (FeasiblePoint, LossModel, PrivacyBudget, RegularizerConfig,
                            reference_point)
from privadapt.data_io import SyntheticShiftSpec, generate_synthetic
from privadapt.harness import SweepCellError, emit_results, read_results, run_sweep
from privadapt.mechanisms import calibrate, derive_rng
from privadapt.nonconvex_solver import NonConvexRunConfig, fit_nonconvex_columns
from tests.test_harness import NONCONVEX, small_spec
from tests.test_held_blocks import count_held_steps

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


def _assert_same_points(one, two):
    assert len(one) == len(two)
    for a, b in zip(one, two):
        for block in ("w", "u_pub", "u_priv"):
            assert getattr(a, block).tobytes() == getattr(b, block).tobytes()


def _assert_same_bits(one, two):
    _assert_same_points([r.point for r in one], [r.point for r in two])
    assert [r.objective_value for r in one] == [r.objective_value for r in two]


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


def _one_and_two_lanes(monkeypatch, run) -> list:
    """run() in a process with one process slot, then with two."""
    outs = []
    for slots in (1, 2):
        monkeypatch.setattr(processes, "process_slots", lambda: slots)
        outs.append(run())
    return outs


@pytest.mark.parametrize("E", [1, 2, 5])
@pytest.mark.parametrize("overrides", [False, True], ids=["defaults", "init-and-steps"])
def test_convex_lanes_equal_one_process(E, overrides, monkeypatch, forks, bounded,
                                        leaves_nothing):
    data, columns = _data(), _columns(E)
    if overrides:  # the engine itself, from a start point and with other step sizes
        schedules = [calibrate(budget, CONVEX_REG.alpha, SQ.G, SQ.B, N, 40)
                     for budget, _ in columns]
        one, two = _one_and_two_lanes(monkeypatch, lambda: noisy_pgd(
            ConvexGradient(data, CONVEX_REG, np.array([d for _, d in columns])),
            _start(np.random.default_rng(E), CONVEX_REG.alpha),
            np.tile([0.05, 200.0, 300.0], (E, 1)), np.array([s.sigma1 for s in schedules]),
            np.array([s.sigma2 for s in schedules]), 40, SQ.lam, CONVEX_REG.alpha,
            derive_rng(3, "lanes"), average=True))
    else:
        one, two = _one_and_two_lanes(monkeypatch, lambda: [r.point for r in fit_convex_columns(
            data, columns, CONVEX_REG, ConvexRunConfig(T=40, seed=3), SQ)])
    assert forks.value == 1
    _assert_same_points(one, two)


@pytest.mark.parametrize("epsilons, live", [([0.5, 5.0, math.inf], [0, 2]),
                                             ([math.inf, 0.5, 5.0], [0, 2]),
                                             ([math.inf, math.inf], [0, 0])],
                         ids=["public-held", "inf-first", "both-held"])
def test_held_lanes_equal_one_process(epsilons, live, monkeypatch, forks, bounded,
                                      leaves_nothing):
    # kappa1 = B holds every problem on the public block, and each
    # epsilon = inf problem on the private one, in the process that runs
    # it: this process counts both lanes of the one-process run and the
    # public lane of the two-lane run
    steps = count_held_steps(monkeypatch)
    columns = [(PrivacyBudget(eps, 0.01), 0.1) for eps in epsilons]
    reg = RegularizerConfig(alpha=0.3, kappa1=SQ.B)
    one, two = _one_and_two_lanes(monkeypatch, lambda: fit_convex_columns(
        _data(), columns, reg, ConvexRunConfig(T=40, seed=3), SQ))
    assert forks.value == 1
    assert steps == [[live[0]] * 80, [live[1]] * 40]
    _assert_same_bits(one, two)


@pytest.mark.parametrize("d_dp, live", [([0.1, 0.2, 0.3], [0, 1]),
                                        ([0.1, SQ.B, 0.3], [2, 1])],
                         ids=["public-whole", "public-partial"])
def test_partly_held_private_lane_equals_one_process(d_dp, live, monkeypatch, forks,
                                                     bounded, leaves_nothing):
    # a noisy problem and two noise-free ones at the bound: kappa1 = B holds
    # the noise-free two on the private block for the whole run, and on the
    # public block every problem whose d_dp leaves its bound under kappa1,
    # after the last one that does not (this process counts both lanes of
    # the one-process run and the public lane of the two-lane run)
    steps = count_held_steps(monkeypatch)
    reg = RegularizerConfig(alpha=0.3, kappa1=SQ.B)
    schedules = [calibrate(PrivacyBudget(eps, 0.01), reg.alpha, SQ.G, SQ.B, N, 40)
                 for eps in (0.5, math.inf, math.inf)]
    eta = np.array([[w, 100.0, 300.0] for w in (0.1, 0.4, 0.2)])
    one, two = _one_and_two_lanes(monkeypatch, lambda: noisy_pgd(
        ConvexGradient(_data(), reg, np.array(d_dp)),
        reference_point(reg.alpha, M, N, D), eta, np.array([s.sigma1 for s in schedules]),
        np.array([s.sigma2 for s in schedules]), 40, SQ.lam, reg.alpha,
        derive_rng(3, "lanes"), average=True))
    assert forks.value == 1
    assert steps == [[live[0]] * 80, [live[1]] * 40]
    _assert_same_points(one, two)


@pytest.mark.parametrize("E", [1, 2, 5])
@pytest.mark.parametrize("overrides", [False, True], ids=["defaults", "init"])
def test_nonconvex_lanes_equal_one_process(E, overrides, monkeypatch, forks, bounded,
                                           leaves_nothing):
    data = _data("linear_classification")
    init = _start(np.random.default_rng(E), SMOOTH_REG.alpha) if overrides else None
    one, two = _one_and_two_lanes(monkeypatch, lambda: fit_nonconvex_columns(
        data, _columns(E), SMOOTH_REG, NonConvexRunConfig(T=40, init=init, seed=3), LG))
    assert forks.value == 1
    _assert_same_bits(one, two)
    assert [r.grad_mapping_norm for r in one] == [r.grad_mapping_norm for r in two]


@pytest.mark.parametrize("overrides, runs", [
    ({"epsilons": [0.5, 1.0, math.inf], "reg": CONVEX_REG}, 1),
    # the epsilon = inf non-convex cell shares the finite cells' run and t*
    (NONCONVEX | {"epsilons": [0.5, 1.0, math.inf], "reg": SMOOTH_REG}, 1),
], ids=["convex", "nonconvex"])
def test_sweep_records_equal_in_process(overrides, runs, tmp_path, monkeypatch, forks,
                                        bounded, leaves_nothing):
    # one (n, trial) group runs in process: its engine runs take two lanes
    # when the process has two slots
    spec = small_spec(**overrides | {"trials": 1})
    sections = {}
    for slots in (1, 2):
        monkeypatch.setattr(processes, "process_slots", lambda: slots)
        path = tmp_path / f"{slots}.jsonl"
        emit_results(run_sweep(spec), str(path))
        lines = path.read_text().splitlines()
        sections[slots] = lines[:-1]
        tail = json.loads(lines[-1])
        assert (tail["workers"], tail["lanes"]) == (1, slots)
        assert read_results(str(path)).lanes == slots
    assert forks.value == runs
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
    monkeypatch.setattr(processes, "process_slots", lambda: 2)
    _fail_in_private_lane(monkeypatch, _boom)
    with pytest.raises(ArithmeticError, match="boom in the private lane") as info:
        fit_convex_columns(_data(), _columns(2), CONVEX_REG, ConvexRunConfig(T=5), SQ)
    assert any("private lane" in note for note in info.value.__notes__)


def test_private_lane_exception_names_its_sweep_cell(monkeypatch, forks, bounded,
                                                     leaves_nothing):
    monkeypatch.setattr(processes, "process_slots", lambda: 2)
    _fail_in_private_lane(monkeypatch, _boom)
    with pytest.raises(SweepCellError) as info:
        run_sweep(small_spec(epsilons=[1.0, math.inf], trials=1))
    assert info.value.key == (1.0, 30, 0)
    assert isinstance(info.value.cause, ArithmeticError)


def test_killed_private_lane_raises(monkeypatch, forks, bounded, leaves_nothing):
    monkeypatch.setattr(processes, "process_slots", lambda: 2)
    _fail_in_private_lane(monkeypatch, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited"):
        fit_convex_columns(_data(), _columns(2), CONVEX_REG, ConvexRunConfig(T=5), SQ)


def _fail_after_private_steps(monkeypatch, fail):
    """Make the private lane call ``fail`` after its last step, before it
    fills the shared private block and sends its last step byte."""
    parent, original = os.getpid(), convex_solver._lane_steps

    def steps(*args):
        out = original(*args)
        if os.getpid() != parent:
            fail()
        return out
    monkeypatch.setattr(convex_solver, "_lane_steps", steps)


@pytest.mark.parametrize("fail, raised, match", [
    (_boom, ArithmeticError, "boom in the private lane"),
    (lambda: os._exit(3), RuntimeError, "exited"),
], ids=["exception", "exit"])
def test_private_lane_failing_after_its_steps_reaches_caller(fail, raised, match, monkeypatch,
                                                             forks, bounded, leaves_nothing):
    # the caller's wait for the block in the shared map sees the failure
    monkeypatch.setattr(processes, "process_slots", lambda: 2)
    _fail_after_private_steps(monkeypatch, fail)
    with pytest.raises(raised, match=match) as info:
        fit_convex_columns(_data(), _columns(2), CONVEX_REG, ConvexRunConfig(T=5), SQ)
    assert forks.value == 1
    if raised is ArithmeticError:
        assert any("raised in the private lane" in note for note in info.value.__notes__)


@pytest.mark.parametrize("fail, raised", [(_boom, ArithmeticError),
                                          (lambda: os._exit(3), RuntimeError)],
                         ids=["exception", "exit"])
def test_signal_to_an_exited_child_raises_how_it_ended(fail, raised, bounded, leaves_nothing):
    # a lane that ended before the other's first signal once made that
    # signal raise BrokenPipeError in place of the lane's failure
    with pytest.raises(raised):
        with processes.fork(lambda link: fail(), "a lane that ends at once") as link:
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)  # ended, not yet reaped
            link.signal()


def test_refused_fork_steps_both_lanes_here(monkeypatch, bounded, leaves_nothing):
    # a run past the size gate on two slots, with no process to fork for its
    # private lane, returns the bits of a run on one slot
    data, _ = generate_synthetic(SyntheticShiftSpec(d=D, noise_std=0.1), 1000, 1000,
                                 derive_rng(5, "lanes"))
    assert 1000 * 1000 >= convex_solver.LANE_MIN_ROW_STEPS

    def fork():
        raise BlockingIOError(errno.EAGAIN, "no process to fork")
    monkeypatch.setattr(os, "fork", fork)
    one, two = _one_and_two_lanes(monkeypatch, lambda: fit_convex_columns(
        data, _columns(2), CONVEX_REG, ConvexRunConfig(T=1000), SQ))
    _assert_same_bits(one, two)


def test_other_cpus_leave_out_the_one_this_process_runs_on(monkeypatch):
    allowed = os.sched_getaffinity(0)
    monkeypatch.setattr(processes.os, "sched_getaffinity", lambda pid: allowed)
    try:
        for here in sorted(allowed)[:2]:
            os.sched_setaffinity(0, {here})  # runs on ``here`` from this call
            assert processes.other_cpus() == allowed - {here}
    finally:
        os.sched_setaffinity(0, allowed)


def test_private_lane_runs_on_the_other_cpus(monkeypatch, forks, bounded, leaves_nothing):
    # the pipe's wake-ups would otherwise let the scheduler keep both lanes
    # on one CPU; the lane's CPUs are the caller's other_cpus at the run
    monkeypatch.setattr(processes, "process_slots", lambda: 2)
    away = {min(os.sched_getaffinity(0))}
    monkeypatch.setattr(processes, "other_cpus", lambda: away)
    seen, original = multiprocessing.Array("i", 64), ConvexGradient.part

    def part(self, lane, *args):
        if lane == 1:
            for cpu in os.sched_getaffinity(0):
                seen[cpu] = 1
        return original(self, lane, *args)
    monkeypatch.setattr(ConvexGradient, "part", part)
    before = os.sched_getaffinity(0)
    fit_convex_columns(_data(), _columns(2), CONVEX_REG, ConvexRunConfig(T=5), SQ)
    assert forks.value == 1
    assert {cpu for cpu in range(64) if seen[cpu]} == away
    assert os.sched_getaffinity(0) == before


@pytest.fixture
def forks(monkeypatch):
    """Take the size gate off every engine run that may take two lanes;
    returns a counter of its forked runs, in this process and in any process
    forked from it after this fixture."""
    runs, original = multiprocessing.Value("i", 0), convex_solver._two_lanes

    def counted(*args):
        with runs.get_lock():
            runs.value += 1
        return original(*args)
    monkeypatch.setattr(convex_solver, "LANE_MIN_ROW_STEPS", 0)
    monkeypatch.setattr(convex_solver, "_two_lanes", counted)
    return runs


def _cpus(monkeypatch, count):
    """A process that may use ``count`` CPUs, with one BLAS thread."""
    monkeypatch.setattr(processes.os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


class TestLaneGrant:
    @pytest.mark.parametrize("workers, expected", [(1, 2), (2, 2), (3, 1), (4, 1)])
    def test_two_lanes_need_two_slots_per_worker(self, monkeypatch, forks, bounded,
                                                 leaves_nothing, workers, expected):
        # 4 slots and one group per worker: each worker is granted 4 // workers
        # slots, so each group's one engine run forks its private lane when
        # that is 2 or more; the records are those of a sweep in one process
        spec = small_spec(trials=workers)
        _cpus(monkeypatch, 1)
        alone = run_sweep(spec)
        assert (alone.workers, alone.lanes, forks.value) == (1, 1, 0)
        _cpus(monkeypatch, 4)
        result = run_sweep(spec)
        assert (result.workers, result.lanes) == (workers, expected)
        assert forks.value == (workers if expected == 2 else 0)
        assert result.records == alone.records

    def test_one_lane_off_linux(self, monkeypatch, forks):
        monkeypatch.setattr(processes.sys, "platform", "darwin")
        fit_convex_columns(_data(), _columns(1), CONVEX_REG, ConvexRunConfig(T=5), SQ)
        assert run_sweep(small_spec(trials=1)).lanes == 1
        assert forks.value == 0

    def test_library_fit_on_one_slot_never_forks(self, monkeypatch, forks):
        monkeypatch.setattr(processes, "process_slots", lambda: 1)
        fit_convex(_data(), PrivacyBudget(1.0, 0.01), CONVEX_REG, ConvexRunConfig(T=40), SQ)
        assert forks.value == 0

    @pytest.mark.parametrize("steps, forked", [(39, 0), (40, 1)])
    def test_engine_forks_a_run_of_enough_row_steps(self, monkeypatch, forks, steps, forked):
        monkeypatch.setattr(processes, "process_slots", lambda: 2)
        monkeypatch.setattr(convex_solver, "LANE_MIN_ROW_STEPS", min(M, N) * 40)
        fit_convex_columns(_data(), _columns(1), CONVEX_REG, ConvexRunConfig(T=steps), SQ)
        assert forks.value == forked
