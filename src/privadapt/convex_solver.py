"""The noisy projected gradient descent engine, and the convex solver on it.

``noisy_pgd`` is the step loop of both private solvers.  It steps E problems
that share the data, the start point and one noise stream as one block of
iterates: w as (d, E), one column per problem, and the u-blocks as (E, m)
and (E, n), one row per problem, so elementwise work runs along the sample
axis.  Noise goes to the w-gradient and the private-weight gradient only:
each step draws one standard normal vector per noisy block and each problem
scales it by its own sigma (the private one as it is drawn), so problem j
follows the trajectory of its own single run on a stream in the same state.
The two solvers differ in the gradient, the step sizes and the output rule:
``fit_convex_columns`` returns the average of the iterates (``fit_convex``
is its one-problem case), ``nonconvex_solver`` the iterate at a random stop
t*.  Both take one problem per (budget, d_dp) column, their noise levels
from ``mechanisms.calibrate``, and share one batching rule: ``column_runs``
gives each column its steps (a finite one its analytic T up to the ceiling,
an epsilon = inf one the longest finite run) and ``per_run`` makes one
engine run per step count, each from the stream state at the call.

The gradient comes split by u-block (``convex_objective.BlockGradient``):
the blocks meet only through the w-gradient and a few per-problem
reductions.  So a run in a process with two or more process slots, long
enough to repay a fork, steps the private block on a child process while
this one steps the public block, each with its own copy of W; the
in-process run calls the same per-block code in sequence, and both return
the same bits.  On each block, the trailing problems that take no noise
there and sit at its lower bound are held while the gradient certifies
that a step leaves them there: they take no u-step and each sums as one
scalar.  ``fit_convex_columns`` puts its noise-free columns last, so their
private rows are held too.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

from . import processes
from .core import (
    AdaptDataset,
    AdaptationResult,
    FeasiblePoint,
    LossModel,
    PrivacyBudget,
    RegularizerConfig,
    is_feasible,
    reference_point,
    weight_bounds,
)
from .convex_objective import (
    BlockGradient,
    ConvexGradient,
    ConvexObjectiveContext,
    eval_F,
    project_ball,
)
from .mechanisms import NoiseSchedule, calibrate, derive_rng, w_step

DEFAULT_T_CEILING = 200_000
# A run with two process slots takes two lanes once min(m, n) x steps
# reaches this.  Forking the private lane costs about 4 ms a run; on 2 CPUs
# with one BLAS thread (d = 20, one problem) two lanes took 0.97x the time of
# one process at 2 000 rows x 200 steps, 0.81-0.90x at 10^6 row-steps (from
# 200 rows x 5 000 steps to 2 000 x 500) and 0.73x at 10 000 x 100.
LANE_MIN_ROW_STEPS = 1_000_000


@dataclass
class ConvexRunConfig:
    T: int | None  # None -> default_T_convex
    init: FeasiblePoint | None = None
    seed: int = 0


def default_step_sizes(model: LossModel, cfg: RegularizerConfig,
                       schedule: NoiseSchedule, m: int, n: int, d: int):
    """Per-block step sizes matched to the gradient-norm bounds and the
    injected noise levels."""
    B = model.B
    b_bar = cfg.b_bar(B)
    T = schedule.T
    a, om = cfg.alpha, 1.0 - cfg.alpha
    eta_w = w_step(model.lam, model.G, d, schedule.sigma1, T)
    eta_u_pub = m ** 1.5 / (math.sqrt(T) * a ** 2 * (B + b_bar))
    try:
        eta_u_priv = n ** 1.5 / math.sqrt(T * (om ** 4 * b_bar ** 2
                                               + n ** 4 * schedule.sigma2 ** 2))
    except OverflowError:  # a square past the float range: the same step unsquared
        eta_u_priv = n ** 1.5 / (math.sqrt(T) * math.hypot(om ** 2 * b_bar,
                                                           n ** 2 * schedule.sigma2))
    return eta_w, eta_u_pub, eta_u_priv


def default_T_convex(budget: PrivacyBudget, n: int, m: int, d: int, alpha: float,
                     B: float, b_bar: float) -> int | float:
    """Smallest iteration count of a finite budget satisfying the convergence
    analysis; it grows like (eps*n)^2, is inf past the float range, and
    ``column_runs`` caps it."""
    if not budget.is_private:
        raise ValueError("the analytic T needs a finite epsilon")
    eps_opt = budget.epsilon_opt
    log_term = math.log(1.0 / budget.delta)
    try:
        return math.ceil(max(
            1.0,
            n ** 2 * eps_opt ** 2 / (d * (1.0 - alpha) ** 2 * log_term),
            b_bar ** 2 * eps_opt ** 2 / (B ** 2 * log_term),
            eps_opt ** 2 * b_bar ** 2 * n ** 3 / (log_term * B ** 2 * m ** 3),
        ))
    except OverflowError:  # eps_opt ** 2, or the count, past the float range
        return math.inf


def noisy_pgd(grad: BlockGradient, p: FeasiblePoint, eta: np.ndarray, sigma1: np.ndarray,
              sigma2: np.ndarray, steps: int, lam: float, alpha: float,
              rng: np.random.Generator, average: bool):
    """Run ``steps`` noisy projected gradient steps on E problems from the
    feasible point p and return one point per problem: the projected
    average of its iterates if ``average``, else its last iterate.

    ``grad`` computes the block gradients of every problem, split by
    u-block.  Row j of eta (E, 3) holds problem j's step sizes for w, u_pub
    and u_priv, and sigma1[j], sigma2[j] scale its noise on w and u_priv.
    A problem with zero sigmas takes no noise, and a run whose sigmas are
    all zero draws nothing from the stream.  A run of at least
    LANE_MIN_ROW_STEPS in a process with two or more process slots steps
    the private block on a forked process (``_two_lanes``); the points are
    the same bits either way.
    """
    m, n, d = p.u_pub.size, p.u_priv.size, p.w.size
    if not is_feasible(p, lam, alpha, m, n):
        raise ValueError("initial point is infeasible")
    E = eta.shape[0]
    run = functools.partial(_lane_steps, grad, p, eta, sigma1, sigma2, steps, lam, alpha,
                            rng, average)
    # both lanes' rows of two steps, the noise of three steps and the private block
    shapes = [(2, 2, d + grad.REDUCTIONS, E), (3, d + _noise_rows(sigma2) * n), (E, n)]
    if min(m, n) * steps < LANE_MIN_ROW_STEPS or processes.process_slots() < 2:
        W, U = run((0, 1), *map(np.empty, shapes[:2]), None)
        U_pub, U_priv = U[0], U[1]
    else:
        W, U_pub, U_priv = _two_lanes(run, shapes)
    return [FeasiblePoint(W[:, j], U_pub[j], U_priv[j]) for j in range(E)]


def _noise_rows(sigma2: np.ndarray) -> int:
    """The problems up to the last one that takes private noise."""
    return int(max(np.flatnonzero(sigma2) + 1, default=0))


def _lane_steps(grad: BlockGradient, p: FeasiblePoint, eta: np.ndarray, sigma1: np.ndarray,
                sigma2: np.ndarray, steps: int, lam: float, alpha: float,
                rng: np.random.Generator, average: bool, lanes: tuple, parts: np.ndarray,
                ring: np.ndarray, link):
    """The steps of the u-blocks ``lanes`` (0 public, 1 private) and of a
    replica of W; returns W and {lane: u-block}, averaged if ``average``.

    Step t writes its lanes' rows into parts[t % 2] and takes its noise
    from ring[t % 3].  Across two processes, ``link`` holds step t until
    the other lane's rows are in; a lane reads them, and the noise, only
    between its step t wait and its step t + 1 signal, so two row slots
    and three noise slots keep every read ahead of the next write.  The
    public lane draws all the noise, d values then n values a step, the
    stream's order: step t + 1's while the other lane computes step t.  It
    writes the n values scaled by each problem's sigma2, up to the last
    noisy problem, so the private u-step only adds its rows.
    """
    m, n, d = p.u_pub.size, p.u_priv.size, p.w.size
    E = eta.shape[0]
    noisy_w, rows = sigma1.any(), _noise_rows(sigma2)
    draws = 0 in lanes and (noisy_w or rows)
    sigma2 = sigma2[:rows, None]
    lower = weight_bounds(alpha, m, n)
    W = np.repeat(p.w[:, None], E, axis=1)
    U = {lane: np.repeat(u[None, :], E, axis=0)
         for lane, u in enumerate((p.u_pub, p.u_priv)) if lane in lanes}
    # the trailing problems that take no noise on a block at its lower bound
    # are held until a step moves them; a held problem's sum is the scalar acc
    held = {lane: (E - lane * rows) * bool((U[lane] == lower[lane]).all()) for lane in lanes}
    g_w = np.empty((d, E))
    if average:
        sum_w, sums = np.zeros_like(W), {lane: np.zeros_like(U[lane]) for lane in lanes}
        acc = dict.fromkeys(lanes, 0.0)

    def draw(z):
        if noisy_w:
            rng.standard_normal(out=z[:d])
        if rows:
            np.multiply(sigma2, rng.standard_normal(n), out=z[d:].reshape(rows, n))

    if draws:
        draw(ring[0])
    for t in range(steps):
        part, states = parts[t % 2], {}
        for lane in lanes:
            k = E - held[lane]
            held[lane], states[lane] = grad.part(lane, W, U[lane], part[lane], held[lane])
            if average:  # problems that leave the hold start their sums from acc
                sums[lane][k:E - held[lane]] = acc[lane]
        if link:
            link.signal()
        if draws and t + 1 < steps:
            draw(ring[(t + 1) % 3])
        if link:
            link.wait()
        z = ring[t % 3]
        shared = grad.combine(part, g_w)
        if noisy_w:
            g_w += np.outer(z[:d], sigma1)
        g_w *= eta[:, 0]
        W -= g_w
        project_ball(W, lam)
        for lane in lanes:
            k = E - held[lane]
            if not k:
                continue
            g = grad.finish(lane, U[lane][:k], shared, states[lane])
            if lane == 1 and rows:
                g[:rows] += z[d:].reshape(rows, n)
            g *= eta[:k, 1 + lane, None]
            u = U[lane][:k]
            u -= g
            np.maximum(u, lower[lane], out=u)
        if average:
            sum_w += W
            for lane in lanes:
                k = E - held[lane]
                sums[lane][:k] += U[lane][:k]
                acc[lane] += lower[lane]
    if average:
        W = sum_w / steps
        project_ball(W, lam)
        for lane in lanes:
            sums[lane][E - held[lane]:] = acc[lane]
            U[lane] = np.maximum(sums[lane] / steps, lower[lane])
    return W, U


def _two_lanes(run, shapes: list) -> tuple:
    """``run`` with its public lane here and its private lane on a process
    forked for this run (``processes.fork``); returns (W, U_pub, U_priv).

    The lanes share one anonymous mmap of ``shapes``: the rows and noise
    ring of ``run`` and the private block, which the private lane fills
    after its last step and U_priv views.  They signal each other through
    the fork's pipe pair once a step and once when the block is in.  An
    exception in the private lane is raised here; a private lane that
    exits early raises RuntimeError.  When the system refuses the fork,
    both lanes step here, to the same bits.

    The private lane runs off this lane's CPU.  Each pipe wake-up asks the
    scheduler to run the woken lane on the waker's CPU, and on a 2-CPU
    Linux VM it kept both lanes on one CPU for whole runs: 1.6-1.8 s a
    ``convex_acceptance`` sweep, against 1.0 s with the lanes apart.
    """
    sizes = [math.prod(shape) for shape in shapes]
    shared = mmap.mmap(-1, 8 * sum(sizes))
    offsets = itertools.accumulate([0] + sizes)
    parts, ring, block = (np.frombuffer(shared, float, size, 8 * offset).reshape(shape)
                          for shape, size, offset in zip(shapes, sizes, offsets))
    away = processes.other_cpus()

    def private(link):
        if away:
            os.sched_setaffinity(0, away)
        _, U = run((1,), parts, ring, link)
        block[:] = U[1]
        link.signal()

    with contextlib.ExitStack() as stack:
        try:
            link = stack.enter_context(processes.fork(private,
                                                      "the private lane of a two-lane run"))
        except OSError:  # no process or pipe to spare
            W, U = run((0, 1), parts, ring, None)
            return W, U[0], U[1]
        W, U = run((0,), parts, ring, link)
        link.wait()
        return W, U[0], block


def column_runs(T: int | None, budgets: list[PrivacyBudget], default_T) -> list[int]:
    """The steps of each column's engine run: T when given, else a finite
    column's analytic default_T(budget) up to DEFAULT_T_CEILING; an
    epsilon = inf column takes the longest finite run, or the ceiling when
    no column is finite."""
    if T is not None:
        return [T] * len(budgets)
    steps = [min(default_T(budget), DEFAULT_T_CEILING) if budget.is_private else None
             for budget in budgets]
    longest = max((s for s in steps if s is not None), default=DEFAULT_T_CEILING)
    return [longest if s is None else s for s in steps]


def per_run(steps: list[int], rng: np.random.Generator, solve) -> list:
    """Call ``solve(T, columns)`` once per distinct step count T of
    ``steps``, with the columns that take it, and return the outputs of the
    {column: output} maps it returns in column order.  Every call starts
    from the stream state at this call, so each column follows its own
    single run."""
    state, out = rng.bit_generator.state, {}
    for T in dict.fromkeys(steps):
        rng.bit_generator.state = state
        out.update(solve(T, [j for j, s in enumerate(steps) if s == T]))
    return [out[j] for j in range(len(steps))]


def fit_convex_columns(data: AdaptDataset, columns: list[tuple[PrivacyBudget, float]],
                       reg: RegularizerConfig, run: ConvexRunConfig, model: LossModel,
                       rng: np.random.Generator | None = None) -> list[AdaptationResult]:
    """Run noisy projected gradient steps on one convex objective per
    (budget, d_dp) column, one engine run per step count of
    ``column_runs``, and return each column's averaged iterate.

    T = None takes the analytic default_T_convex.  Every column gets its
    own sigma and step sizes from its budget and steps; a column with
    epsilon = inf takes no noise, and a run with no finite epsilon draws
    nothing from the stream.
    """
    if not columns:
        raise ValueError("at least one (budget, d_dp) column is required")
    ctxs = [ConvexObjectiveContext(data, d_dp, reg, model) for _, d_dp in columns]
    m, n, d = data.m, data.n, data.d
    p = run.init if run.init is not None else reference_point(reg.alpha, m, n, d)
    if rng is None:
        rng = derive_rng(run.seed, "fit-convex")
    steps = column_runs(run.T, [budget for budget, _ in columns], lambda budget: default_T_convex(
        budget, n, m, d, reg.alpha, model.B, reg.b_bar(model.B)))

    def solve(T, cols):
        schedules = {j: calibrate(columns[j][0], reg.alpha, model.G, model.B, n, T)
                     for j in cols}
        # noise-free columns run last, where the engine can hold their private block
        cols = sorted(cols, key=lambda j: schedules[j].sigma2 == 0)
        eta = np.array([default_step_sizes(model, reg, schedules[j], m, n, d) for j in cols])
        return dict(zip(cols, noisy_pgd(
            ConvexGradient(data, reg, np.array([columns[j][1] for j in cols])), p, eta,
            np.array([schedules[j].sigma1 for j in cols]),
            np.array([schedules[j].sigma2 for j in cols]),
            T, model.lam, reg.alpha, rng, average=True)))

    return [AdaptationResult(point=avg, objective_value=eval_F(ctx, avg),
                             privacy_spent=budget.spent, T_used=T)
            for (budget, _), ctx, avg, T in zip(columns, ctxs, per_run(steps, rng, solve),
                                                steps)]


def fit_convex(data: AdaptDataset, budget: PrivacyBudget, reg: RegularizerConfig,
               run: ConvexRunConfig, model: LossModel, d_dp: float = 0.0,
               rng: np.random.Generator | None = None) -> AdaptationResult:
    """Run T noisy projected gradient steps on the convex objective and
    return the averaged iterate."""
    return fit_convex_columns(data, [(budget, d_dp)], reg, run, model, rng)[0]
