"""Noisy projected gradient descent on the convex objective.

Gaussian noise is added to the w-gradient and the private-weight gradient
only; the public-weight block stays noiseless.  Each block has its own step
size and the returned point is the uniform average of the iterates.

One engine, ``fit_convex_columns``, runs E problems that share the data, T,
the start point, the step-size overrides and one noise stream as a single
block of iterates: w as a (d, E) block, one column per problem, and the
u-blocks as (E, m) and (E, n), one row per problem, so the elementwise work
of a step runs along the long sample axis.  Each step draws one standard
normal vector per noisy block and every problem scales it by its own sigma,
so problem j follows the trajectory of a single run with its own budget and
d_dp on a stream in the same state.  ``fit_convex`` is the one-problem case.

The step writes into buffers allocated once per fit (the iterates, their
running sums, a ``GradientWorkspace`` and the noise block): the residual,
r/u for g_w, the u-gradients, the noise, the step and the projection are
done in place, one pass over the data per operation.
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
    if run.T < 1:
        raise ValueError("T must be >= 1")
    if not columns:
        raise ValueError("at least one (budget, d_dp) column is required")
    ctxs = [ConvexObjectiveContext(data, d_dp, reg, model) for _, d_dp in columns]
    m, n, d = data.m, data.n, data.d
    lam, alpha = model.lam, reg.alpha

    p = run.init if run.init is not None else reference_point(alpha, m, n, d)
    if not is_feasible(p, lam, alpha, m, n):
        raise ValueError("initial point is infeasible")
    if rng is None:
        rng = derive_rng(run.seed, "fit-convex")

    schedules = [calibrate(budget, alpha, model.G, model.B, n, run.T)
                 for budget, _ in columns]
    eta = np.array([default_step_sizes(model, reg, s, m, n, d) for s in schedules])
    for j, step in enumerate((run.step_w, run.step_u_pub, run.step_u_priv)):
        if step is not None:
            eta[:, j] = step
    # per-problem scalars, shaped to broadcast over W's columns or the u-rows
    eta_w, eta_pub, eta_priv = eta[:, 0], eta[:, 1, None], eta[:, 2, None]
    sigma1 = np.array([s.sigma1 for s in schedules])
    sigma2 = np.array([[s.sigma2] for s in schedules])
    d_dp = np.array([d_dp for _, d_dp in columns])

    E = len(columns)
    W = np.repeat(p.w[:, None], E, axis=1)
    U_pub = np.repeat(p.u_pub[None, :], E, axis=0)
    U_priv = np.repeat(p.u_priv[None, :], E, axis=0)
    sum_w, sum_pub, sum_priv = np.zeros_like(W), np.zeros_like(U_pub), np.zeros_like(U_priv)
    ws = GradientWorkspace(d, m, n, E)
    noise_priv = np.empty((E, n))
    noisy_w, noisy_u = sigma1.any(), sigma2.any()
    for _ in range(run.T):
        g_w, g_pub, g_priv = block_gradient(data, reg, d_dp, W, U_pub, U_priv, ws)
        if noisy_w:
            g_w += np.outer(gaussian_vector(d, 1.0, rng), sigma1)
        if noisy_u:
            g_priv += np.multiply(sigma2, gaussian_vector(n, 1.0, rng), out=noise_priv)
        g_w *= eta_w
        W -= g_w
        g_pub *= eta_pub
        U_pub -= g_pub
        g_priv *= eta_priv
        U_priv -= g_priv
        project_columns(W, U_pub, U_priv, lam, alpha, m, n)
        sum_w += W
        sum_pub += U_pub
        sum_priv += U_priv

    for block in (sum_w, sum_pub, sum_priv):
        block /= run.T
    project_columns(sum_w, sum_pub, sum_priv, lam, alpha, m, n)
    results = []
    for j, ((budget, _), ctx) in enumerate(zip(columns, ctxs)):
        avg = FeasiblePoint(sum_w[:, j], sum_pub[j], sum_priv[j])
        results.append(AdaptationResult(
            point=avg,
            objective_value=eval_F(ctx, avg),
            privacy_spent=(budget.epsilon_opt, budget.delta if budget.is_private else 0.0),
            T_used=run.T,
        ))
    return results


def fit_convex(data: AdaptDataset, budget: PrivacyBudget, reg: RegularizerConfig,
               run: ConvexRunConfig, model: LossModel, d_dp: float = 0.0,
               rng: np.random.Generator | None = None) -> AdaptationResult:
    """Run T noisy projected gradient steps on the convex objective and
    return the averaged iterate."""
    return fit_convex_columns(data, [(budget, d_dp)], reg, run, model, rng)[0]
