"""Reference learners: target-only ERM, its noisy-gradient private variant
(the solvers' calibration at alpha = 0), and fixed alpha-mixture ERM."""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AdaptDataset,
    AdaptationResult,
    LossModel,
    PrivacyBudget,
    FeasiblePoint,
    SQUARED,
    loss_and_slope,
    loss_values,
    weight_bounds,
)
from .mechanisms import calibrate, derive_rng, gaussian_vector, w_step

TARGET_ONLY = "target_only"
TARGET_ONLY_DP = "target_only_dp"
MIXTURE_ALPHA = "mixture_alpha"
KINDS = (TARGET_ONLY, TARGET_ONLY_DP, MIXTURE_ALPHA)


def weighted_loss(model: LossModel, data: AdaptDataset, w, c_pub, c_priv) -> float:
    val = 0.0
    if c_pub.any():
        val += float(c_pub @ loss_values(model, w, data.public_x, data.public_y))
    val += float(c_priv @ loss_values(model, w, data.private_x, data.private_y))
    return val


def fit_baseline(kind: str, data: AdaptDataset, model: LossModel, T: int,
                 budget: PrivacyBudget | None = None, alpha: float = 0.5,
                 rng: np.random.Generator | None = None) -> AdaptationResult:
    """Projected gradient descent on a fixed-weight empirical loss.

    target_only_dp adds per-step Gaussian noise at the solvers' w-noise
    level with all the weight on the private sample (``calibrate`` at
    alpha = 0); every kind steps by ``w_step`` and, as the solvers do,
    refuses rows outside ``model.r``.  The target-only kinds put no weight
    on the public sample, whatever ``alpha``, and report the box of
    alpha = 0.  A missing rng takes a fixed stream.  For the squared loss
    each step is one d x d matrix-vector product; the logistic loss takes
    a pass over the data.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    if T < 1:
        raise ValueError("T must be >= 1")
    if not 0.0 <= alpha < 1.0:  # alpha = 1 would leave no weight on the private sample
        raise ValueError("alpha must lie in [0, 1)")
    data.check_feature_bound(model.r)  # G, and so the noise, holds within r only
    private = kind == TARGET_ONLY_DP
    if private and budget is None:
        raise ValueError("the private baseline requires a budget")
    sigma = calibrate(budget, 0.0, model.G, model.B, data.n, T).sigma1 if private else 0.0
    if rng is None:
        rng = derive_rng(0, "baseline", kind)

    if kind != MIXTURE_ALPHA:
        alpha = 0.0  # all the weight on the target sample
    # every example of a block weighs the same
    c_pub, c_priv = alpha / data.m, (1.0 - alpha) / data.n
    d = data.d
    eta = w_step(model.lam, model.G, d, sigma, T)

    # (weight, lane, X, y) of each weighted sample, the private one first
    blocks = [(c, lane, *data.samples[lane]) for c, lane in ((c_priv, 1), (c_pub, 0)) if c > 0]
    if model.kind == SQUARED:
        # the squared-loss gradient is affine in w, A w - b with A = 2 sum
        # c_i x_i x_i' and b = 2 sum c_i y_i x_i, from the dataset's moments
        A = sum(2.0 * c * data.moments[lane][0] for c, lane, _, _ in blocks)
        b = sum(2.0 * c * data.moments[lane][1] for c, lane, _, _ in blocks)

        def grad(w):
            return A @ w - b
    else:
        def grad(w):
            return sum(X.T @ (c * loss_and_slope(model, w, X, y)[1]) for c, _, X, y in blocks)

    # final iterate (not an average): in the noiseless cases plain projected
    # GD converges linearly on these smooth objectives
    w = np.zeros(d)
    for _ in range(T):
        w = w - eta * (grad(w) + gaussian_vector(d, sigma, rng))
        nrm = np.linalg.norm(w)
        if nrm > model.lam:
            w = model.lam * w / nrm

    # the reciprocal weights of the fit for the report: u_pub = inf at alpha = 0
    lb_pub, lb_priv = weight_bounds(alpha, data.m, data.n)
    point = FeasiblePoint(w, np.full(data.m, lb_pub), np.full(data.n, lb_priv))
    return AdaptationResult(
        point=point,
        objective_value=weighted_loss(model, data, w, np.full(data.m, c_pub),
                                      np.full(data.n, c_priv)),
        privacy_spent=budget.spent if private else (math.inf, 0.0),
        T_used=T,
    )
