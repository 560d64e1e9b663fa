"""Noisy projected gradient descent on the smoothed non-convex objective.

Same noise placement and calibration as the convex solver, a single step
size 1/beta_bar for all blocks, and the output is one iterate sampled
uniformly from the trajectory.
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
from .convex_objective import project
from .mechanisms import calibrate, derive_rng, gaussian_vector
from .nonconvex_objective import (
    NonConvexContext,
    eval_J,
    grad_J,
    gradient_mapping_norm,
    smoothness_beta_bar,
    uniform_bound_M,
)

DEFAULT_T_CEILING = 200_000


@dataclass
class NonConvexRunConfig:
    T: int | None  # None -> default_T_nonconvex
    init: FeasiblePoint | None = None
    seed: int = 0


def default_T_nonconvex(n: int, d: int, alpha: float, eps_opt: float,
                        delta: float, G: float, B: float, beta_bar: float,
                        M: float, ceiling: int = DEFAULT_T_CEILING) -> int:
    """Iteration count balancing descent progress against injected noise:
    sqrt(beta_bar*M) * eps * n^{3/2} / ((1-a) sqrt(ln(2/delta)) *
    sqrt(40 G^2 d n + (1-a)^2 B^2)), at least 1, capped."""
    if delta >= 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if math.isinf(eps_opt):
        return ceiling
    om = 1.0 - alpha
    t = (math.sqrt(beta_bar * M) * eps_opt * n ** 1.5
         / (om * math.sqrt(math.log(2.0 / delta))
            * math.sqrt(40.0 * G ** 2 * d * n + om ** 2 * B ** 2)))
    return int(min(max(round(t), 1), ceiling))


def _run_steps(ctx: NonConvexContext, p: FeasiblePoint, steps: int, eta: float,
               schedule, rng) -> FeasiblePoint:
    lam, alpha = ctx.model.lam, ctx.config.alpha
    m, n, d = ctx.data.m, ctx.data.n, ctx.data.d
    for _ in range(steps):
        g_w, g_pub, g_priv = grad_J(ctx, p)
        z = gaussian_vector(d, schedule.sigma1, rng)
        z2 = gaussian_vector(n, schedule.sigma2, rng)
        p = project(
            p.w - eta * (g_w + z),
            p.u_pub - eta * g_pub,
            p.u_priv - eta * (g_priv + z2),
            lam, alpha, m, n,
        )
    return p


def fit_nonconvex(data: AdaptDataset, budget: PrivacyBudget,
                  reg: RegularizerConfig, run: NonConvexRunConfig,
                  model: LossModel, d_dp: float = 0.0,
                  rng: np.random.Generator | None = None) -> AdaptationResult:
    """Draw t* uniformly from {1, ..., T}, run t* noisy projected gradient
    steps and return the last iterate: the iterate at a uniformly sampled
    index of a T-step run.

    t* is the first draw of the stream, so the trajectory does not depend
    on its value.  T = None takes the analytic default_T_nonconvex.
    """
    ctx = NonConvexContext(data, d_dp, reg, model)
    m, n, d = data.m, data.n, data.d
    beta_bar = smoothness_beta_bar(ctx)
    T = run.T if run.T is not None else default_T_nonconvex(
        n, d, reg.alpha, budget.epsilon_opt, budget.delta, model.G, model.B,
        beta_bar, uniform_bound_M(ctx))
    if T < 1:
        raise ValueError("T must be >= 1")

    p0 = run.init if run.init is not None else reference_point(reg.alpha, m, n, d)
    if not is_feasible(p0, model.lam, reg.alpha, m, n):
        raise ValueError("initial point is infeasible")
    if rng is None:
        rng = derive_rng(run.seed, "fit-nonconvex")

    schedule = calibrate(budget, reg.alpha, model.G, model.B, n, T)
    t_star = int(rng.integers(1, T + 1))
    out = _run_steps(ctx, p0, t_star, 1.0 / beta_bar, schedule, rng)

    return AdaptationResult(
        point=out,
        objective_value=eval_J(ctx, out),
        privacy_spent=(budget.epsilon_opt, budget.delta if budget.is_private else 0.0),
        T_used=T,
        grad_mapping_norm=gradient_mapping_norm(ctx, out, beta_bar),
        t_star=t_star,
    )
