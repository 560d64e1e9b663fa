"""Smoothed non-convex adaptation objective for Lipschitz + smooth losses.

The max-norm regularizer is replaced by its mu-softmax approximation so the
objective is smooth; the smoothness constant and the gradient-mapping
stationarity measure live here too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    AdaptDataset,
    FeasiblePoint,
    LossModel,
    RegularizerConfig,
    is_feasible,
    loss_and_slope,
    loss_values,
)
from .convex_objective import project


@dataclass(frozen=True)
class NonConvexContext:
    data: AdaptDataset
    d_dp: float
    config: RegularizerConfig
    model: LossModel
    beta: float | None = None  # smoothness of the per-example loss

    def __post_init__(self):
        if self.beta is None:
            object.__setattr__(self, "beta", self.model.beta)
        if not (0.0 <= self.d_dp <= self.model.B + 1e-9):
            raise ValueError("d_dp must lie in [0, B]")
        self.data.check_feature_bound(self.model.r)
        m, n = self.data.m, self.data.n
        mu = self.config.softmax_mu(m, n)
        if mu > (m + n) ** (2.0 / 3.0):
            warnings.warn("mu exceeds (m+n)^(2/3); the smoothness analysis "
                          "precondition is violated", stacklevel=3)
        if n > m ** 3 or m > n ** 3:
            warnings.warn("sample-size imbalance violates the smoothness "
                          "analysis preconditions", stacklevel=3)

    @property
    def mu(self) -> float:
        return self.config.softmax_mu(self.data.m, self.data.n)


def _check_feasible(ctx, p: FeasiblePoint):
    if not is_feasible(p, ctx.model.lam, ctx.config.alpha, ctx.data.m, ctx.data.n):
        raise ValueError("point violates the feasible set")


def softmax_of_reciprocals(u: np.ndarray, mu: float) -> float:
    """(1/mu) log sum exp(mu / u_i), computed in shifted form."""
    a = mu / u
    c = a.max()
    return float(c + np.log(np.sum(np.exp(a - c)))) / mu


def eval_J(ctx: NonConvexContext, p: FeasiblePoint) -> float:
    _check_feasible(ctx, p)
    cfg = ctx.config
    num_pub = loss_values(ctx.model, p.w, ctx.data.public_x, ctx.data.public_y) + ctx.d_dp
    num_priv = loss_values(ctx.model, p.w, ctx.data.private_x, ctx.data.private_y)
    inv_u = np.concatenate([1.0 / p.u_pub, 1.0 / p.u_priv])
    val = float(np.sum(num_pub / p.u_pub) + np.sum(num_priv / p.u_priv))
    if cfg.lambda1 > 0:
        val += cfg.lambda1 * (1.0 - inv_u.sum())
    if cfg.lambda2 > 0:
        val += cfg.lambda2 * math.sqrt(float(np.sum(inv_u ** 2)))
    if cfg.lambda_inf > 0:
        u_all = np.concatenate([p.u_pub, p.u_priv])
        val += cfg.lambda_inf * softmax_of_reciprocals(u_all, ctx.mu)
    return val


def grad_J(ctx: NonConvexContext, p: FeasiblePoint):
    _check_feasible(ctx, p)
    cfg = ctx.config
    m = ctx.data.m
    data = ctx.data
    loss_pub, slope_pub = loss_and_slope(ctx.model, p.w, data.public_x, data.public_y)
    num_priv, slope_priv = loss_and_slope(ctx.model, p.w, data.private_x, data.private_y)
    num_pub = loss_pub + ctx.d_dp
    g_w = data.public_x.T @ (slope_pub / p.u_pub) + data.private_x.T @ (slope_priv / p.u_priv)

    u_all = np.concatenate([p.u_pub, p.u_priv])
    g_u = np.concatenate([-num_pub / p.u_pub ** 2, -num_priv / p.u_priv ** 2])
    if cfg.lambda1 > 0:
        g_u = g_u + cfg.lambda1 / u_all ** 2
    if cfg.lambda2 > 0:
        root = math.sqrt(float(np.sum(1.0 / u_all ** 2)))
        g_u = g_u - cfg.lambda2 / (u_all ** 3 * root)
    if cfg.lambda_inf > 0:
        a = ctx.mu / u_all
        weights = np.exp(a - a.max())
        weights /= weights.sum()
        g_u = g_u - cfg.lambda_inf * weights / u_all ** 2
    return g_w, g_u[:m], g_u[m:]


def smoothness_beta_bar(ctx: NonConvexContext) -> float:
    """Closed-form smoothness constant: beta + beta' + the cross-block term,
    with beta' bounding the Frobenius norm of the u-block Hessian."""
    cfg = ctx.config
    m, n = ctx.data.m, ctx.data.n
    a, om = cfg.alpha, 1.0 - cfg.alpha
    B, G = ctx.model.B, ctx.model.G
    l1, l2, li = cfg.lambda1, cfg.lambda2, cfg.lambda_inf
    mu = ctx.mu
    beta_prime = (
        l2 * a ** 3 / m ** 2
        + 2.0 * a ** 3 * (abs(2.0 * B - l1) + l2 * math.sqrt(n) + li) / m ** 2.5
        + li * mu * a ** 4 * (1.0 / m ** 3 + 1.0 / m ** 3.5)
        + l2 * om ** 3 / n ** 2
        + 2.0 * om ** 3 * (abs(B - l1) + l2 * math.sqrt(m) + li) / n ** 2.5
        + li * mu * om ** 4 * (1.0 / n ** 3 + 1.0 / n ** 3.5)
        + 2.0 * li * mu * a ** 2 * om ** 2 / (m ** 1.5 * n ** 1.5)
    )
    return ctx.beta + beta_prime + G * (a ** 2 / m ** 1.5 + om ** 2 / n ** 1.5)


def uniform_bound_M(ctx: NonConvexContext) -> float:
    """Uniform bound on the objective over the feasible set."""
    cfg = ctx.config
    m, n = ctx.data.m, ctx.data.n
    return (2.0 * ctx.model.B + cfg.lambda1
            + cfg.lambda2 * (cfg.alpha / math.sqrt(m) + (1.0 - cfg.alpha) / math.sqrt(n))
            + cfg.lambda_inf * max(cfg.alpha / m, (1.0 - cfg.alpha) / n))


def gradient_mapping_norm(ctx: NonConvexContext, p: FeasiblePoint,
                          gamma: float) -> float:
    """Norm of gamma * (v - Proj(v - (1/gamma) * grad J(v))), the standard
    stationarity measure for constrained smooth problems; computed with the
    exact (noiseless) gradient."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    g_w, g_pub, g_priv = grad_J(ctx, p)
    stepped = project(
        p.w - g_w / gamma,
        p.u_pub - g_pub / gamma,
        p.u_priv - g_priv / gamma,
        ctx.model.lam, ctx.config.alpha, ctx.data.m, ctx.data.n,
    )
    disp = p.as_vector() - stepped.as_vector()
    return float(gamma * np.linalg.norm(disp))
