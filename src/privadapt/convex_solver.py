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
"""

from __future__ import annotations

import math
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
    ConvexObjectiveContext,
    GradientWorkspace,
    block_gradient,
    eval_F,
    project_columns,
)
from .mechanisms import NoiseSchedule, calibrate, derive_rng, gaussian_vector

DEFAULT_T_CEILING = 200_000


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


def noisy_pgd(grad, p: FeasiblePoint, eta: np.ndarray, sigma1: np.ndarray,
              sigma2: np.ndarray, steps: int, lam: float, alpha: float,
              rng: np.random.Generator, average: bool):
    """Run ``steps`` noisy projected gradient steps on E problems from the
    feasible point p and return one point per problem: the projected
    average of its iterates if ``average``, else its last iterate.

    ``grad(W, U_pub, U_priv)`` returns the block gradients of every problem,
    shaped like their blocks; the engine overwrites them.  Row j of eta
    (E, 3) holds problem j's step sizes for w, u_pub and u_priv, and
    sigma1[j], sigma2[j] scale its noise on w and u_priv.  A problem with
    zero sigmas takes no noise, and a run whose sigmas are all zero draws
    nothing from the stream.
    """
    m, n, d = p.u_pub.size, p.u_priv.size, p.w.size
    if not is_feasible(p, lam, alpha, m, n):
        raise ValueError("initial point is infeasible")
    E = eta.shape[0]
    # per-problem scalars, shaped to broadcast over W's columns or the u-rows
    etas = eta[:, 0], eta[:, 1, None], eta[:, 2, None]
    sigma2 = sigma2[:, None]
    W = np.repeat(p.w[:, None], E, axis=1)
    U_pub = np.repeat(p.u_pub[None, :], E, axis=0)
    U_priv = np.repeat(p.u_priv[None, :], E, axis=0)
    if average:
        sums = np.zeros_like(W), np.zeros_like(U_pub), np.zeros_like(U_priv)
    noise_priv = np.empty((E, n))
    noisy_w, noisy_u = sigma1.any(), sigma2.any()
    for _ in range(steps):
        g_w, g_pub, g_priv = grads = grad(W, U_pub, U_priv)
        if noisy_w:
            g_w += np.outer(gaussian_vector(d, 1.0, rng), sigma1)
        if noisy_u:
            g_priv += np.multiply(sigma2, gaussian_vector(n, 1.0, rng), out=noise_priv)
        for block, g, eta_b in zip((W, U_pub, U_priv), grads, etas):
            g *= eta_b
            block -= g
        project_columns(W, U_pub, U_priv, lam, alpha, m, n)
        if average:
            for total, block in zip(sums, (W, U_pub, U_priv)):
                total += block
    if average:
        for total in sums:
            total /= steps
        project_columns(*sums, lam, alpha, m, n)
        W, U_pub, U_priv = sums
    return [FeasiblePoint(W[:, j], U_pub[j], U_priv[j]) for j in range(E)]


def fit_convex_columns(data: AdaptDataset, columns: list[tuple[PrivacyBudget, float]],
                       reg: RegularizerConfig, run: ConvexRunConfig, model: LossModel,
                       rng: np.random.Generator | None = None) -> list[AdaptationResult]:
    """Run T noisy projected gradient steps on one convex objective per
    (budget, d_dp) column, all on one noise stream, and return each
    column's averaged iterate.

    Every column gets its own sigma and step sizes from its budget; a
    column with epsilon = inf takes no noise, and a run with no finite
    epsilon draws nothing from the stream.
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
    d_dp = np.array([d_dp for _, d_dp in columns])
    ws = GradientWorkspace(d, m, n, len(columns))
    averages = noisy_pgd(
        lambda W, U_pub, U_priv: block_gradient(data, reg, d_dp, W, U_pub, U_priv, ws),
        p, eta, np.array([s.sigma1 for s in schedules]),
        np.array([s.sigma2 for s in schedules]), run.T, model.lam, reg.alpha, rng,
        average=True)
    return [AdaptationResult(point=avg, objective_value=eval_F(ctx, avg),
                             privacy_spent=budget.spent, T_used=run.T)
            for (budget, _), ctx, avg in zip(columns, ctxs, averages)]


def fit_convex(data: AdaptDataset, budget: PrivacyBudget, reg: RegularizerConfig,
               run: ConvexRunConfig, model: LossModel, d_dp: float = 0.0,
               rng: np.random.Generator | None = None) -> AdaptationResult:
    """Run T noisy projected gradient steps on the convex objective and
    return the averaged iterate."""
    return fit_convex_columns(data, [(budget, d_dp)], reg, run, model, rng)[0]
