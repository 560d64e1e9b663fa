"""The noisy projected gradient descent engine, and the convex solver on it.

``noisy_pgd`` is the step loop of both private solvers.  It steps E problems
that share the data, the start point and one noise stream as one block of
iterates: w as (d, E), one column per problem, and the u-blocks as (E, m)
and (E, n), one row per problem, so elementwise work runs along the sample
axis.  Noise goes to the w-gradient and the private-weight gradient only:
each step draws one standard normal vector per noisy block and each problem
scales it by its own sigma, so problem j follows the trajectory of its own
single run on a stream in the same state.  The two solvers differ in the
gradient, the step sizes and the output rule: ``fit_convex_columns``
returns the average of the iterates (``fit_convex`` is its one-problem
case), ``nonconvex_solver`` the iterate at a random stop t*.

The gradient comes split by u-block (``convex_objective.BlockGradient``):
the blocks meet only through the w-gradient and a few per-problem
reductions.  So a run granted two lanes, and long enough to repay a fork,
steps the private block on a child process while this one steps the
public block, each with its own copy of W; the in-process run calls the
same per-block code in sequence, and both return the same bits.
"""

from __future__ import annotations

import functools
import itertools
import math
import mmap
from dataclasses import dataclass

import numpy as np

from .core import (
    AdaptDataset,
    AdaptationResult,
    FeasiblePoint,
    LossModel,
    PrivacyBudget,
    RegularizerConfig,
    is_feasible,
    reference_point,
)
from .convex_objective import (
    BlockGradient,
    ConvexGradient,
    ConvexObjectiveContext,
    eval_F,
    project_ball,
)
from .mechanisms import NoiseSchedule, calibrate, derive_rng
from .processes import DONE, fork

DEFAULT_T_CEILING = 200_000
# A run takes the two lanes it is granted once min(m, n) x steps reaches
# this.  Forking the private lane costs about 4 ms a run; on 2 CPUs with one
# BLAS thread (d = 20, one problem) two lanes took 0.97x the time of one
# process at 2 000 rows x 200 steps, 0.81-0.90x at 10^6 row-steps (from
# 200 rows x 5 000 steps to 2 000 x 500) and 0.73x at 10 000 x 100.
LANE_MIN_ROW_STEPS = 1_000_000


@dataclass
class ConvexRunConfig:
    T: int
    step_w: float | None = None
    step_u_pub: float | None = None
    step_u_priv: float | None = None
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
    eta_w = model.lam / math.sqrt(T * (model.G ** 2 + d * schedule.sigma1 ** 2))
    eta_u_pub = m ** 1.5 / (math.sqrt(T) * a ** 2 * (B + b_bar))
    eta_u_priv = n ** 1.5 / math.sqrt(T * (om ** 4 * b_bar ** 2 + n ** 4 * schedule.sigma2 ** 2))
    return eta_w, eta_u_pub, eta_u_priv


def default_T_convex(n: int, m: int, d: int, alpha: float, eps_opt: float,
                     delta: float, B: float, b_bar: float,
                     ceiling: int = DEFAULT_T_CEILING) -> int:
    """Smallest iteration count satisfying the convergence analysis,
    capped by a configurable ceiling (the analytic lower bound grows like
    (eps*n)^2 and is impractical at desk scale)."""
    if delta >= 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if math.isinf(eps_opt):
        return ceiling
    log_term = math.log(1.0 / delta)
    terms = [
        1.0,
        n ** 2 * eps_opt ** 2 / (d * (1.0 - alpha) ** 2 * log_term),
        b_bar ** 2 * eps_opt ** 2 / (B ** 2 * log_term),
        eps_opt ** 2 * b_bar ** 2 * n ** 3 / (log_term * B ** 2 * m ** 3),
    ]
    return int(min(math.ceil(max(terms)), ceiling))


def noisy_pgd(grad: BlockGradient, p: FeasiblePoint, eta: np.ndarray, sigma1: np.ndarray,
              sigma2: np.ndarray, steps: int, lam: float, alpha: float,
              rng: np.random.Generator, average: bool, lanes: int = 1):
    """Run ``steps`` noisy projected gradient steps on E problems from the
    feasible point p and return one point per problem: the projected
    average of its iterates if ``average``, else its last iterate.

    ``grad`` computes the block gradients of every problem, split by
    u-block.  Row j of eta (E, 3) holds problem j's step sizes for w, u_pub
    and u_priv, and sigma1[j], sigma2[j] scale its noise on w and u_priv.
    A problem with zero sigmas takes no noise, and a run whose sigmas are
    all zero draws nothing from the stream.  With lanes = 2 a run of at
    least LANE_MIN_ROW_STEPS steps the private block on a forked process
    (``_two_lanes``); the points are the same bits either way.
    """
    m, n, d = p.u_pub.size, p.u_priv.size, p.w.size
    if not is_feasible(p, lam, alpha, m, n):
        raise ValueError("initial point is infeasible")
    E = eta.shape[0]
    run = functools.partial(_lane_steps, grad, p, eta, sigma1, sigma2, steps, lam, alpha,
                            rng, average)
    # both lanes' rows of two steps, and the noise of three steps
    shapes = [(2, 2, d + grad.REDUCTIONS, E), (3, d + n)]
    if lanes == 1 or min(m, n) * steps < LANE_MIN_ROW_STEPS:
        W, U = run((0, 1), *map(np.empty, shapes), None)
        U_pub, U_priv = U[0], U[1]
    else:
        W, U_pub, U_priv = _two_lanes(run, shapes, (E, n))
    return [FeasiblePoint(W[:, j], U_pub[j], U_priv[j]) for j in range(E)]


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
    stream's order: step t + 1's while the other lane computes step t.
    """
    m, n, d = p.u_pub.size, p.u_priv.size, p.w.size
    E = eta.shape[0]
    noisy_w, noisy_u = sigma1.any(), sigma2.any()
    draws = 0 in lanes and (noisy_w or noisy_u)
    sigma2 = sigma2[:, None]
    lower = m / alpha, n / (1.0 - alpha)
    W = np.repeat(p.w[:, None], E, axis=1)
    U = {lane: np.repeat(u[None, :], E, axis=0)
         for lane, u in enumerate((p.u_pub, p.u_priv)) if lane in lanes}
    g_w = np.empty((d, E))
    if 1 in lanes and noisy_u:
        noise_priv = np.empty((E, n))
    blocks = ([W] if 0 in lanes else []) + [U[lane] for lane in lanes]
    if average:
        sums = [np.zeros_like(block) for block in blocks]

    def draw(z):
        if noisy_w:
            rng.standard_normal(out=z[:d])
        if noisy_u:
            rng.standard_normal(out=z[d:])

    if draws:
        draw(ring[0])
    for t in range(steps):
        part = parts[t % 2]
        states = {lane: grad.part(lane, W, U[lane], part[lane]) for lane in lanes}
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
            g = grad.finish(lane, U[lane], shared, states[lane])
            if lane == 1 and noisy_u:
                g += np.multiply(sigma2, z[d:], out=noise_priv)
            g *= eta[:, 1 + lane, None]
            U[lane] -= g
            np.maximum(U[lane], lower[lane], out=U[lane])
        if average:
            for total, block in zip(sums, blocks):
                total += block
    if average:
        for total in sums:
            total /= steps
        if 0 in lanes:
            W = sums[0]
            project_ball(W, lam)
        for lane, total in zip(lanes, sums[-len(lanes):]):
            U[lane] = np.maximum(total, lower[lane], out=total)
    return W, U


def _two_lanes(run, shapes: list, private_shape: tuple) -> tuple:
    """``run`` with its public lane here and its private lane on a process
    forked for this run (``processes.fork``); returns (W, U_pub, U_priv).

    The lanes share one anonymous mmap holding the rows and the noise ring
    of ``run``, and signal each other through the fork's pipe pair once a
    step; the private lane sends its output, of ``private_shape``, through
    the pipe.  An exception in the private lane is raised here; a private
    lane that exits early raises RuntimeError.
    """
    sizes = [math.prod(shape) for shape in shapes]
    shared = mmap.mmap(-1, 8 * sum(sizes))
    offsets = itertools.accumulate([0] + sizes)
    parts, ring = (np.frombuffer(shared, float, size, 8 * offset).reshape(shape)
                   for shape, size, offset in zip(shapes, sizes, offsets))

    def private(link):
        _, U = run((1,), parts, ring, link)
        link.signal(DONE)
        link.send(U[1])

    with fork(private, "the private lane of a two-lane run") as link:
        W, U = run((0,), parts, ring, link)
        link.wait(DONE)
        return W, U[0], link.receive(np.empty(private_shape))


def fit_convex_columns(data: AdaptDataset, columns: list[tuple[PrivacyBudget, float]],
                       reg: RegularizerConfig, run: ConvexRunConfig, model: LossModel,
                       rng: np.random.Generator | None = None,
                       lanes: int = 1) -> list[AdaptationResult]:
    """Run T noisy projected gradient steps on one convex objective per
    (budget, d_dp) column, all on one noise stream, and return each
    column's averaged iterate.

    Every column gets its own sigma and step sizes from its budget; a
    column with epsilon = inf takes no noise, and a run with no finite
    epsilon draws nothing from the stream.  ``lanes`` is the engine's: 2
    lets a long enough run step the private block on a second process,
    with the same results.
    """
    if not columns:
        raise ValueError("at least one (budget, d_dp) column is required")
    ctxs = [ConvexObjectiveContext(data, d_dp, reg, model) for _, d_dp in columns]
    m, n, d = data.m, data.n, data.d
    p = run.init if run.init is not None else reference_point(reg.alpha, m, n, d)
    if rng is None:
        rng = derive_rng(run.seed, "fit-convex")

    schedules = [calibrate(budget, reg.alpha, model.G, model.B, n, run.T)
                 for budget, _ in columns]
    eta = np.array([default_step_sizes(model, reg, s, m, n, d) for s in schedules])
    for j, step in enumerate((run.step_w, run.step_u_pub, run.step_u_priv)):
        if step is not None:
            eta[:, j] = step
    averages = noisy_pgd(
        ConvexGradient(data, reg, np.array([d_dp for _, d_dp in columns])), p, eta,
        np.array([s.sigma1 for s in schedules]), np.array([s.sigma2 for s in schedules]),
        run.T, model.lam, reg.alpha, rng, average=True, lanes=lanes)
    return [AdaptationResult(point=avg, objective_value=eval_F(ctx, avg),
                             privacy_spent=budget.spent, T_used=run.T)
            for (budget, _), ctx, avg in zip(columns, ctxs, averages)]


def fit_convex(data: AdaptDataset, budget: PrivacyBudget, reg: RegularizerConfig,
               run: ConvexRunConfig, model: LossModel, d_dp: float = 0.0,
               rng: np.random.Generator | None = None, lanes: int = 1) -> AdaptationResult:
    """Run T noisy projected gradient steps on the convex objective and
    return the averaged iterate."""
    return fit_convex_columns(data, [(budget, d_dp)], reg, run, model, rng, lanes)[0]
