"""The reparameterized jointly convex adaptation objective.

With reciprocal weights u_i = 1/q_i, the weighted empirical loss becomes a
sum of quadratic-over-linear terms, jointly convex in (w, u) over the box
u_pub >= m/alpha, u_priv >= n/(1-alpha) and the ball ||w|| <= Lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AdaptDataset,
    FeasiblePoint,
    LossModel,
    RegularizerConfig,
    SQUARED,
    is_feasible,
    loss_and_slope,
    loss_values,
)


@dataclass(frozen=True)
class ConvexObjectiveContext:
    data: AdaptDataset
    d_dp: float
    config: RegularizerConfig
    model: LossModel

    def __post_init__(self):
        if self.model.kind != SQUARED:
            raise ValueError("the convex objective requires the squared loss")
        if not (0.0 <= self.d_dp <= self.model.B + 1e-9):
            raise ValueError("d_dp must lie in [0, B]")
        self.data.check_feature_bound(self.model.r)


def _check_feasible(ctx, p: FeasiblePoint):
    if not is_feasible(p, ctx.model.lam, ctx.config.alpha, ctx.data.m, ctx.data.n):
        raise ValueError("point violates the feasible set")


def eval_F(ctx: ConvexObjectiveContext, p: FeasiblePoint) -> float:
    _check_feasible(ctx, p)
    cfg = ctx.config
    m, n = ctx.data.m, ctx.data.n
    num_pub = loss_values(ctx.model, p.w, ctx.data.public_x, ctx.data.public_y) + ctx.d_dp
    num_priv = loss_values(ctx.model, p.w, ctx.data.private_x, ctx.data.private_y)
    val = float(np.sum(num_pub / p.u_pub) + np.sum(num_priv / p.u_priv))
    if cfg.kappa1 > 0:
        bracket = ((cfg.alpha / m) ** 2 * p.u_pub.sum()
                   + ((1.0 - cfg.alpha) / n) ** 2 * p.u_priv.sum() - 1.0)
        val += cfg.kappa1 * bracket
    if cfg.kappa2 > 0:
        inv_sq = np.sum(1.0 / p.u_pub ** 2) + np.sum(1.0 / p.u_priv ** 2)
        val += cfg.kappa2 * np.sqrt(inv_sq)
    if cfg.kappa_inf > 0:
        val += cfg.kappa_inf / min(p.u_pub.min(), p.u_priv.min())
    return val


def block_gradient(data: AdaptDataset, model: LossModel, cfg: RegularizerConfig,
                   d_dp: np.ndarray, W: np.ndarray, U_pub: np.ndarray,
                   U_priv: np.ndarray):
    """Block gradients (g_w, g_u_pub, g_u_priv) of E objectives at once.

    Column j of W (d, E), U_pub (m, E) and U_priv (n, E) is a point of the
    objective with discrepancy d_dp[j]; each result has the shape of its
    block.  One pass over the data: g_w = X^T (l'/u) never forms per-example
    gradient rows.  The kappa_inf subgradient puts full mass on the
    lowest-index minimizer of u over the concatenated (u_pub, u_priv) column.
    """
    m, n = data.m, data.n
    loss_pub, slope_pub = loss_and_slope(model, W, data.public_x, data.public_y)
    loss_priv, slope_priv = loss_and_slope(model, W, data.private_x, data.private_y)
    slope_pub /= U_pub
    slope_priv /= U_priv
    g_w = data.public_x.T @ slope_pub + data.private_x.T @ slope_priv

    # g_u = -numerator / u^2, computed in the loss buffers
    loss_pub += d_dp
    loss_pub /= U_pub * U_pub
    g_pub = np.negative(loss_pub, out=loss_pub)
    loss_priv /= U_priv * U_priv
    g_priv = np.negative(loss_priv, out=loss_priv)
    if cfg.kappa1 > 0:
        g_pub += cfg.kappa1 * (cfg.alpha / m) ** 2
        g_priv += cfg.kappa1 * ((1.0 - cfg.alpha) / n) ** 2
    if cfg.kappa2 > 0:
        root = np.sqrt(np.sum(1.0 / U_pub ** 2, axis=0) + np.sum(1.0 / U_priv ** 2, axis=0))
        g_pub -= cfg.kappa2 / (U_pub ** 3 * root)
        g_priv -= cfg.kappa2 / (U_priv ** 3 * root)
    if cfg.kappa_inf > 0:
        cols = np.arange(W.shape[1])
        i_pub, i_priv = U_pub.argmin(axis=0), U_priv.argmin(axis=0)
        min_pub, min_priv = U_pub[i_pub, cols], U_priv[i_priv, cols]
        on_pub = min_pub <= min_priv  # ties go to the public block, which comes first
        g_pub[i_pub[on_pub], cols[on_pub]] -= cfg.kappa_inf / min_pub[on_pub] ** 2
        on_priv = ~on_pub
        g_priv[i_priv[on_priv], cols[on_priv]] -= cfg.kappa_inf / min_priv[on_priv] ** 2
    return g_w, g_pub, g_priv


def grad_F(ctx: ConvexObjectiveContext, p: FeasiblePoint):
    """Block gradients (g_w, g_u_pub, g_u_priv) at one point: the single
    column case of ``block_gradient``."""
    _check_feasible(ctx, p)
    g_w, g_pub, g_priv = block_gradient(
        ctx.data, ctx.model, ctx.config, np.array([ctx.d_dp]),
        p.w[:, None], p.u_pub[:, None], p.u_priv[:, None])
    return g_w[:, 0], g_pub[:, 0], g_priv[:, 0]


def project_columns(W: np.ndarray, U_pub: np.ndarray, U_priv: np.ndarray,
                    lam: float, alpha: float, m: int, n: int) -> None:
    """Euclidean projection of column-batched points, in place: rescale each
    column of W to the ball, clamp U to the box."""
    nrm = np.linalg.norm(W, axis=0)
    over = nrm > lam
    if over.any():
        W[:, over] *= lam / nrm[over]
    np.maximum(U_pub, m / alpha, out=U_pub)
    np.maximum(U_priv, n / (1.0 - alpha), out=U_priv)


def project(w: np.ndarray, u_pub: np.ndarray, u_priv: np.ndarray,
            lam: float, alpha: float, m: int, n: int) -> FeasiblePoint:
    """Euclidean projection: rescale w to the ball, clamp u to the box."""
    cols = [np.array(v, dtype=float).reshape(-1, 1) for v in (w, u_pub, u_priv)]
    project_columns(*cols, lam, alpha, m, n)
    return FeasiblePoint(*(c[:, 0] for c in cols))


def gradient_bounds(ctx: ConvexObjectiveContext):
    """Uniform bounds on the three block-gradient norms over the feasible
    set: (G, alpha^2 (B + Bbar) / m^{3/2}, (1-alpha)^2 Bbar / n^{3/2})."""
    cfg = ctx.config
    B = ctx.model.B
    b_bar = cfg.b_bar(B)
    m, n = ctx.data.m, ctx.data.n
    return (
        ctx.model.G,
        cfg.alpha ** 2 * (B + b_bar) / m ** 1.5,
        (1.0 - cfg.alpha) ** 2 * b_bar / n ** 1.5,
    )
