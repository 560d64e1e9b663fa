"""Noisy projected gradient descent on the smoothed non-convex objective.

The solver runs on the convex solver's engine (``convex_solver.noisy_pgd``)
with the same noise placement and calibration and one step size 1/beta_bar
for all blocks.  Its output is one iterate sampled uniformly from the
trajectory: t* is drawn from {1, ..., T} first, and the engine stops after
t* steps.  ``fit_nonconvex_columns`` runs one objective per (budget, d_dp)
column on one stream, so every column draws the same t*;
``fit_nonconvex`` is the one-column case.
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
    reference_point,
)
from .convex_solver import DEFAULT_T_CEILING, noisy_pgd
from .mechanisms import calibrate, derive_rng
from .nonconvex_objective import (
    NonConvexContext,
    SmoothGradient,
    eval_J,
    gradient_mapping_norm,
    smoothness_beta_bar,
    uniform_bound_M,
)


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


def fit_nonconvex_columns(data: AdaptDataset, columns: list[tuple[PrivacyBudget, float]],
                          reg: RegularizerConfig, run: NonConvexRunConfig,
                          model: LossModel, rng: np.random.Generator | None = None,
                          lanes: int = 1) -> list[AdaptationResult]:
    """Draw t* uniformly from {1, ..., T}, run t* noisy projected gradient
    steps on one smoothed objective per (budget, d_dp) column, all on one
    noise stream, and return each column's last iterate: the iterate at a
    uniformly sampled index of a T-step run.

    t* is the first draw of the stream, so the trajectory does not depend
    on its value.  T = None takes the analytic default_T_nonconvex of each
    column's budget; the columns must agree on it.  ``lanes`` is the
    engine's: 2 lets a long enough run step the private block on a second
    process, with the same results.
    """
    if not columns:
        raise ValueError("at least one (budget, d_dp) column is required")
    ctxs = [NonConvexContext(data, d_dp, reg, model) for _, d_dp in columns]
    m, n, d = data.m, data.n, data.d
    beta_bar = smoothness_beta_bar(ctxs[0])  # beta_bar and M do not depend on d_dp
    Ts = {run.T} if run.T is not None else {default_T_nonconvex(
        n, d, reg.alpha, budget.epsilon_opt, budget.delta, model.G, model.B, beta_bar,
        uniform_bound_M(ctxs[0])) for budget, _ in columns}
    if len(Ts) > 1:
        raise ValueError(f"the columns resolve to different T: {sorted(Ts)}")
    T = Ts.pop()

    p0 = run.init if run.init is not None else reference_point(reg.alpha, m, n, d)
    if rng is None:
        rng = derive_rng(run.seed, "fit-nonconvex")
    schedules = [calibrate(budget, reg.alpha, model.G, model.B, n, T) for budget, _ in columns]
    t_star = int(rng.integers(1, T + 1))
    outs = noisy_pgd(
        SmoothGradient(data, reg, model, np.array([d_dp for _, d_dp in columns])), p0,
        np.full((len(columns), 3), 1.0 / beta_bar),
        np.array([s.sigma1 for s in schedules]), np.array([s.sigma2 for s in schedules]),
        t_star, model.lam, reg.alpha, rng, average=False, lanes=lanes)
    return [AdaptationResult(point=out, objective_value=eval_J(ctx, out),
                             privacy_spent=budget.spent, T_used=T,
                             grad_mapping_norm=gradient_mapping_norm(ctx, out, beta_bar),
                             t_star=t_star)
            for (budget, _), ctx, out in zip(columns, ctxs, outs)]


def fit_nonconvex(data: AdaptDataset, budget: PrivacyBudget,
                  reg: RegularizerConfig, run: NonConvexRunConfig,
                  model: LossModel, d_dp: float = 0.0,
                  rng: np.random.Generator | None = None, lanes: int = 1) -> AdaptationResult:
    """Run t* noisy projected gradient steps on the smoothed objective and
    return the last iterate: the one-column case of fit_nonconvex_columns."""
    return fit_nonconvex_columns(data, [(budget, d_dp)], reg, run, model, rng, lanes)[0]
