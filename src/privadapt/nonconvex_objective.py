"""Smoothed non-convex adaptation objective for Lipschitz + smooth losses.

The max-norm regularizer is replaced by its mu-softmax approximation so the
objective is smooth; the smoothness constant and the gradient-mapping
stationarity measure live here too.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import (
    AdaptDataset,
    FeasiblePoint,
    LossModel,
    RegularizerConfig,
    score_loss_and_slope,
)
from .convex_objective import (
    BlockGradient,
    ObjectiveContext,
    check_feasible,
    project,
    weighted_loss_term,
)


class NonConvexContext(ObjectiveContext):
    def __post_init__(self):
        super().__post_init__()
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


def softmax_of_reciprocals(u: np.ndarray, mu: float) -> float:
    """(1/mu) log sum exp(mu / u_i), computed in shifted form."""
    a = mu / u
    c = a.max()
    return float(c + np.log(np.sum(np.exp(a - c)))) / mu


def eval_J(ctx: NonConvexContext, p: FeasiblePoint) -> float:
    val = weighted_loss_term(ctx, p)
    cfg = ctx.config
    inv_u = np.concatenate([1.0 / p.u_pub, 1.0 / p.u_priv])
    if cfg.lambda1 > 0:
        val += cfg.lambda1 * (1.0 - inv_u.sum())
    if cfg.lambda2 > 0:
        val += cfg.lambda2 * math.sqrt(float(np.sum(inv_u ** 2)))
    if cfg.lambda_inf > 0:
        u_all = np.concatenate([p.u_pub, p.u_priv])
        val += cfg.lambda_inf * softmax_of_reciprocals(u_all, ctx.mu)
    return val


class SmoothGradient(BlockGradient):
    """Block gradients of E smoothed objectives.

    g_w = X^T (slope/u) and g_u = (lambda1 - numerator - lambda2 (1/u) / root
    - lambda_inf softmax) / u^2, with the root and the softmax of mu/u taken
    along each problem's (u_pub, u_priv) row.  A lane's reductions are, per
    problem, its sum of 1/u^2, its max of mu/u and its sum of exp(mu/u -
    that max); the finish rescales the two sums to the larger max.  The
    scores W^T X^T are formed from the dataset's contiguous X^T, so the
    loss, the slope and every later pass run on C-contiguous (E, rows)
    arrays.  The engine keeps the iterates feasible, so nothing is checked
    here, and no problem is ever held.
    """

    def __init__(self, data: AdaptDataset, cfg: RegularizerConfig, model: LossModel,
                 d_dp: np.ndarray):
        super().__init__(data, d_dp)
        self.cfg, self.model = cfg, model
        self.mu = cfg.softmax_mu(data.m, data.n)

    def part(self, lane: int, W: np.ndarray, U: np.ndarray, out: np.ndarray, held: int = 0):
        X, y, shift = self.blocks[lane]
        cfg, d = self.cfg, self.d
        num, slope = score_loss_and_slope(self.model, W.T @ X.T, y)
        if shift is not None:
            num += shift
        inv = 1.0 / U
        slope *= inv
        np.matmul(X.T, slope.T, out=out[:d])
        g = np.subtract(cfg.lambda1, num, out=num)
        sq = inv * inv
        if cfg.lambda2 > 0:
            sq.sum(axis=1, out=out[d])
        soft = None
        if cfg.lambda_inf > 0:
            soft = np.multiply(self.mu, inv)
            top = soft.max(axis=1, out=out[d + 1])
            soft -= top[:, None]
            np.exp(soft, out=soft)
            soft.sum(axis=1, out=out[d + 2])
        return 0, (g, inv, sq, soft)

    def combine(self, parts: np.ndarray, g_w: np.ndarray):
        cfg, d = self.cfg, self.d
        np.add(parts[0, :d], parts[1, :d], out=g_w)
        l2 = linf = None
        if cfg.lambda2 > 0:
            l2 = (cfg.lambda2 / np.sqrt(parts[0, d] + parts[1, d]))[:, None]
        if cfg.lambda_inf > 0:
            tops = parts[:, d + 1]
            rescale = np.exp(tops - tops.max(axis=0))  # 1 for the block holding the max
            sums = parts[:, d + 2] * rescale
            linf = cfg.lambda_inf * rescale / (sums[0] + sums[1])  # each block's share
        return l2, linf

    def finish(self, lane: int, U: np.ndarray, shared, state):
        g, inv, sq, soft = state
        l2, linf = shared
        if l2 is not None:
            g -= l2 * inv
        if linf is not None:
            g -= linf[lane][:, None] * soft
        g *= sq
        return g


def grad_J(ctx: NonConvexContext, p: FeasiblePoint):
    """Block gradients (g_w, g_u_pub, g_u_priv) at one feasible point: the
    single problem case of ``SmoothGradient``."""
    check_feasible(ctx, p)
    g_w, g_pub, g_priv = SmoothGradient(ctx.data, ctx.config, ctx.model, np.array([ctx.d_dp]))(
        p.w[:, None], p.u_pub[None, :], p.u_priv[None, :])
    return g_w[:, 0], g_pub[0], g_priv[0]


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
    return ctx.model.beta + beta_prime + G * (a ** 2 / m ** 1.5 + om ** 2 / n ** 1.5)


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
