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
    loss_values,
)


@dataclass(frozen=True)
class ObjectiveContext:
    """The data, released discrepancy, hyperparameters and loss of one
    adaptation objective, convex or non-convex."""

    data: AdaptDataset
    d_dp: float
    config: RegularizerConfig
    model: LossModel

    def __post_init__(self):
        if not (0.0 <= self.d_dp <= self.model.B + 1e-9):
            raise ValueError("d_dp must lie in [0, B]")
        self.data.check_feature_bound(self.model.r)


class ConvexObjectiveContext(ObjectiveContext):
    def __post_init__(self):
        if self.model.kind != SQUARED:
            raise ValueError("the convex objective requires the squared loss")
        super().__post_init__()


def check_feasible(ctx: ObjectiveContext, p: FeasiblePoint):
    """Raise ValueError unless p lies in the feasible set of ``ctx``."""
    if not is_feasible(p, ctx.model.lam, ctx.config.alpha, ctx.data.m, ctx.data.n):
        raise ValueError("point violates the feasible set")


def weighted_loss_term(ctx: ObjectiveContext, p: FeasiblePoint) -> float:
    """sum (loss + d_dp)/u (public) + sum loss/u (private) at a feasible p."""
    check_feasible(ctx, p)
    num_pub = loss_values(ctx.model, p.w, ctx.data.public_x, ctx.data.public_y) + ctx.d_dp
    num_priv = loss_values(ctx.model, p.w, ctx.data.private_x, ctx.data.private_y)
    return float(np.sum(num_pub / p.u_pub) + np.sum(num_priv / p.u_priv))


def eval_F(ctx: ConvexObjectiveContext, p: FeasiblePoint) -> float:
    val = weighted_loss_term(ctx, p)
    cfg = ctx.config
    m, n = ctx.data.m, ctx.data.n
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


class GradientWorkspace:
    """Buffers for ``block_gradient`` at one (d, m, n, E) shape, allocated
    once and overwritten by every call.

    The u-blocks are laid out (E, rows), one row per problem, so the
    elementwise passes run along the long axis.  The forward product
    W^T X^T, read from the dataset's row-contiguous X^T, writes straight
    into them: there is no product buffer and no transposing pass.
    """

    def __init__(self, d: int, m: int, n: int, E: int):
        self.g_pub, self.g_priv = np.empty((E, m)), np.empty((E, n))
        self.g_w, self.g_w_priv = np.empty((d, E)), np.empty((d, E))


def _residual_over_u(X, y, W, U, out):
    """(x.w - y) / u for every problem, into ``out`` (E, rows)."""
    np.matmul(W.T, X.T, out=out)
    out -= y
    out /= U
    return out


def block_gradient(data: AdaptDataset, cfg: RegularizerConfig, d_dp: np.ndarray,
                   W: np.ndarray, U_pub: np.ndarray, U_priv: np.ndarray,
                   ws: GradientWorkspace | None = None):
    """Block gradients (g_w, g_u_pub, g_u_priv) of E squared-loss objectives
    at once, written into the workspace ``ws`` (a fresh one if None).

    Problem j is column j of W (d, E) and row j of U_pub (E, m) and
    U_priv (E, n), with discrepancy d_dp[j]; each result has the shape of
    its block.  With q = (x.w - y)/u, g_w = 2 X^T q and
    g_u = -(q^2 + d_dp/u^2) on the public block, -q^2 on the private one,
    plus the regularizer terms.  Every pass over a u-block runs on a
    C-contiguous (E, rows) array.  The kappa_inf subgradient puts full mass
    on the lowest-index minimizer of u over the concatenated (u_pub, u_priv)
    row.
    """
    m, n = data.m, data.n
    if ws is None:
        ws = GradientWorkspace(data.d, m, n, W.shape[1])
    q_pub = _residual_over_u(data.public_x, data.public_y, W, U_pub, ws.g_pub)
    q_priv = _residual_over_u(data.private_x, data.private_y, W, U_priv, ws.g_priv)
    g_w = np.matmul(data.public_x.T, q_pub.T, out=ws.g_w)
    g_w += np.matmul(data.private_x.T, q_priv.T, out=ws.g_w_priv)
    g_w *= 2.0

    # q^2 + d_dp/u^2 = ((q u)^2 + d_dp) / u^2, formed in place
    q_pub *= U_pub
    q_pub *= q_pub
    q_pub += d_dp[:, None]
    q_pub /= U_pub
    q_pub /= U_pub
    q_priv *= q_priv
    # g_u = kappa1 c - numerator / u^2, negated in the same pass
    g_pub = np.subtract(cfg.kappa1 * (cfg.alpha / m) ** 2, q_pub, out=q_pub)
    g_priv = np.subtract(cfg.kappa1 * ((1.0 - cfg.alpha) / n) ** 2, q_priv, out=q_priv)
    if cfg.kappa2 > 0:
        root = np.sqrt(np.sum(1.0 / U_pub ** 2, axis=1)
                       + np.sum(1.0 / U_priv ** 2, axis=1))[:, None]
        g_pub -= cfg.kappa2 / (U_pub ** 3 * root)
        g_priv -= cfg.kappa2 / (U_priv ** 3 * root)
    if cfg.kappa_inf > 0:
        rows = np.arange(W.shape[1])
        i_pub, i_priv = U_pub.argmin(axis=1), U_priv.argmin(axis=1)
        min_pub, min_priv = U_pub[rows, i_pub], U_priv[rows, i_priv]
        on_pub = min_pub <= min_priv  # ties go to the public block, which comes first
        g_pub[rows[on_pub], i_pub[on_pub]] -= cfg.kappa_inf / min_pub[on_pub] ** 2
        on_priv = ~on_pub
        g_priv[rows[on_priv], i_priv[on_priv]] -= cfg.kappa_inf / min_priv[on_priv] ** 2
    return g_w, g_pub, g_priv


def grad_F(ctx: ConvexObjectiveContext, p: FeasiblePoint):
    """Block gradients (g_w, g_u_pub, g_u_priv) at one point: the single
    problem case of ``block_gradient``."""
    check_feasible(ctx, p)
    g_w, g_pub, g_priv = block_gradient(
        ctx.data, ctx.config, np.array([ctx.d_dp]),
        p.w[:, None], p.u_pub[None, :], p.u_priv[None, :])
    return g_w[:, 0], g_pub[0], g_priv[0]


def project_columns(W: np.ndarray, U_pub: np.ndarray, U_priv: np.ndarray,
                    lam: float, alpha: float, m: int, n: int) -> None:
    """Euclidean projection of batched points, in place: rescale each
    column of W (d, E) to the ball, clamp the u-blocks (any layout) to
    the box."""
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

