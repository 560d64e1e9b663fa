"""Reference learners: target-only ERM, its noisy-gradient private variant,
and fixed alpha-mixture ERM."""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AdaptDataset,
    AdaptationResult,
    LossModel,
    PrivacyBudget,
    FeasiblePoint,
    loss_and_slope,
    loss_values,
)
from .mechanisms import derive_rng, gaussian_vector

TARGET_ONLY = "target_only"
TARGET_ONLY_DP = "target_only_dp"
MIXTURE_ALPHA = "mixture_alpha"
KINDS = (TARGET_ONLY, TARGET_ONLY_DP, MIXTURE_ALPHA)


def _weights(kind: str, data: AdaptDataset, alpha: float):
    if kind == MIXTURE_ALPHA:
        return (np.full(data.m, alpha / data.m),
                np.full(data.n, (1.0 - alpha) / data.n))
    return (np.zeros(data.m), np.full(data.n, 1.0 / data.n))


def weighted_loss(model: LossModel, data: AdaptDataset, w, c_pub, c_priv) -> float:
    val = 0.0
    if c_pub.any():
        val += float(c_pub @ loss_values(model, w, data.public_x, data.public_y))
    val += float(c_priv @ loss_values(model, w, data.private_x, data.private_y))
    return val


def fit_baseline(kind: str, data: AdaptDataset, model: LossModel, T: int,
                 seed: int = 0, budget: PrivacyBudget | None = None,
                 alpha: float = 0.5,
                 rng: np.random.Generator | None = None) -> AdaptationResult:
    """Projected gradient descent on a fixed-weight empirical loss.

    target_only_dp adds per-step Gaussian noise with
    sigma = 2 * (2G/n) * sqrt(T * ln(3/delta)) / eps_opt, the full-gradient
    analogue of the adaptation solver's w-noise with all weight on the
    private sample.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    if T < 1:
        raise ValueError("T must be >= 1")
    if kind == TARGET_ONLY_DP:
        if budget is None:
            raise ValueError("the private baseline requires a budget")
        if math.isinf(budget.epsilon_opt):
            sigma = 0.0
        else:
            sigma = (2.0 * (2.0 * model.G / data.n)
                     * math.sqrt(T * math.log(3.0 / budget.delta))
                     / budget.epsilon_opt)
    else:
        sigma = 0.0
    if rng is None:
        rng = derive_rng(seed, "baseline", kind)

    c_pub, c_priv = _weights(kind, data, alpha)
    d = data.d
    eta = model.lam / math.sqrt(T * (model.G ** 2 + d * sigma ** 2))

    # final iterate (not an average): in the noiseless cases plain projected
    # GD converges linearly on these smooth objectives
    w = np.zeros(d)
    for _ in range(T):
        _, slope = loss_and_slope(model, w, data.private_x, data.private_y)
        g = data.private_x.T @ (c_priv * slope)
        if c_pub.any():
            _, slope = loss_and_slope(model, w, data.public_x, data.public_y)
            g = g + data.public_x.T @ (c_pub * slope)
        w = w - eta * (g + gaussian_vector(d, sigma, rng))
        nrm = np.linalg.norm(w)
        if nrm > model.lam:
            w = model.lam * w / nrm
    w_bar = w

    # nominal reciprocal weights for the report; alpha = 0 (pure target
    # weighting) puts no mass on the public sample
    u_pub = np.full(data.m, data.m / alpha) if alpha > 0 else np.full(data.m, np.inf)
    point = FeasiblePoint(w_bar, u_pub,
                          np.full(data.n, data.n / (1.0 - alpha)))
    eps_spent = budget.epsilon_opt if (budget and kind == TARGET_ONLY_DP) else math.inf
    delta_spent = budget.delta if (budget and kind == TARGET_ONLY_DP
                                   and budget.is_private) else 0.0
    return AdaptationResult(
        point=point,
        objective_value=weighted_loss(model, data, w_bar, c_pub, c_priv),
        privacy_spent=(eps_spent, delta_spent),
        T_used=T,
    )
