"""Noisy projected gradient descent on the smoothed non-convex objective.

The solver runs on the convex solver's engine (``convex_solver.noisy_pgd``)
with the same noise placement and calibration (``mechanisms.calibrate``),
the same rule for two lanes (the process's slots) and one step size
1/beta_bar for all blocks.  Its output is one iterate sampled uniformly
from the trajectory: t* is drawn from {1, ..., T} first, and the engine
stops after t* steps.  ``fit_nonconvex_columns`` runs one objective per (budget, d_dp)
column, grouped into engine runs by ``convex_solver.column_runs``, so the
columns of one run draw the same t*; ``fit_nonconvex`` is the one-column
case.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AdaptDataset,
    AdaptationResult,
    LossModel,
    PrivacyBudget,
    RegularizerConfig,
    reference_point,
)
from .convex_solver import ConvexRunConfig, column_runs, noisy_pgd, per_run
from .mechanisms import calibrate, derive_rng
from .nonconvex_objective import (
    NonConvexContext,
    SmoothGradient,
    eval_J,
    gradient_mapping_norm,
    smoothness_beta_bar,
    uniform_bound_M,
)


NonConvexRunConfig = ConvexRunConfig  # T = None takes default_T_nonconvex


def default_T_nonconvex(budget: PrivacyBudget, n: int, d: int, alpha: float, G: float,
                        B: float, beta_bar: float, M: float) -> int | float:
    """Iteration count of a finite budget, balancing descent against noise:
    sqrt(beta_bar*M) * eps * n^{3/2} / ((1-a) sqrt(ln(2/delta)) *
    sqrt(40 G^2 d n + (1-a)^2 B^2)), at least 1, or inf past the float
    range; ``column_runs`` caps it."""
    if not budget.is_private:
        raise ValueError("the analytic T needs a finite epsilon")
    om = 1.0 - alpha
    t = (math.sqrt(beta_bar * M) * budget.epsilon_opt * n ** 1.5
         / (om * math.sqrt(math.log(2.0 / budget.delta))
            * math.sqrt(40.0 * G ** 2 * d * n + om ** 2 * B ** 2)))
    return max(round(t), 1) if t < math.inf else math.inf


def fit_nonconvex_columns(data: AdaptDataset, columns: list[tuple[PrivacyBudget, float]],
                          reg: RegularizerConfig, run: NonConvexRunConfig,
                          model: LossModel,
                          rng: np.random.Generator | None = None) -> list[AdaptationResult]:
    """Run one smoothed objective per (budget, d_dp) column, one engine
    run per step count T of ``convex_solver.column_runs``, and return each
    column's iterate at a uniformly sampled index of its T-step run.

    A run draws t* uniformly from {1, ..., T} first, then takes t* noisy
    projected gradient steps, so its trajectory does not depend on t*'s
    value.  T = None takes the analytic default_T_nonconvex.
    """
    if not columns:
        raise ValueError("at least one (budget, d_dp) column is required")
    ctxs = [NonConvexContext(data, d_dp, reg, model) for _, d_dp in columns]
    m, n, d = data.m, data.n, data.d
    beta_bar = smoothness_beta_bar(ctxs[0])  # beta_bar and M do not depend on d_dp
    p0 = run.init if run.init is not None else reference_point(reg.alpha, m, n, d)
    if rng is None:
        rng = derive_rng(run.seed, "fit-nonconvex")
    steps = column_runs(run.T, [budget for budget, _ in columns], lambda budget: (
        default_T_nonconvex(budget, n, d, reg.alpha, model.G, model.B, beta_bar,
                            uniform_bound_M(ctxs[0]))))

    def solve(T, cols):
        schedules = [calibrate(columns[j][0], reg.alpha, model.G, model.B, n, T) for j in cols]
        t_star = int(rng.integers(1, T + 1))
        outs = noisy_pgd(
            SmoothGradient(data, reg, model, np.array([columns[j][1] for j in cols])), p0,
            np.full((len(cols), 3), 1.0 / beta_bar),
            np.array([s.sigma1 for s in schedules]), np.array([s.sigma2 for s in schedules]),
            t_star, model.lam, reg.alpha, rng, average=False)
        return {j: (out, t_star) for j, out in zip(cols, outs)}

    return [AdaptationResult(point=out, objective_value=eval_J(ctx, out),
                             privacy_spent=budget.spent, T_used=T,
                             grad_mapping_norm=gradient_mapping_norm(ctx, out, beta_bar),
                             t_star=t_star)
            for (budget, _), ctx, (out, t_star), T in zip(columns, ctxs,
                                                          per_run(steps, rng, solve), steps)]


def fit_nonconvex(data: AdaptDataset, budget: PrivacyBudget,
                  reg: RegularizerConfig, run: NonConvexRunConfig,
                  model: LossModel, d_dp: float = 0.0,
                  rng: np.random.Generator | None = None) -> AdaptationResult:
    """Run t* noisy projected gradient steps on the smoothed objective and
    return the last iterate: the one-column case of fit_nonconvex_columns."""
    return fit_nonconvex_columns(data, [(budget, d_dp)], reg, run, model, rng)[0]
