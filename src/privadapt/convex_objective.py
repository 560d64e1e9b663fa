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
    TOL,
    is_feasible,
    loss_values,
    weight_bounds,
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


def check_convex_loss(model: LossModel) -> None:
    """Raise ValueError unless the convex objective can take ``model``'s loss."""
    if model.kind != SQUARED:
        raise ValueError("the convex objective requires the squared loss")


class ConvexObjectiveContext(ObjectiveContext):
    def __post_init__(self):
        check_convex_loss(self.model)
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


class BlockGradient:
    """The gradient of E objectives, split by u-block so that the public and
    the private block can step on two processes.

    Lane 0 is the public block, lane 1 the private one.  Problem j is column
    j of W (d, E) and row j of each u-block (E, rows), with discrepancy
    d_dp[j] on its public losses.  ``held[lane]`` trailing problems, fixed
    by ``certify`` before a run's first step, stay at the lower bound for
    the whole run.  ``part(lane, W, U, out)`` does what the lane can alone:
    it writes the lane's share of the w-gradient into ``out[:d]`` and its
    per-problem reductions of U into the ``REDUCTIONS`` rows below, and
    returns the state that serves the finish of the live problems before
    the held ones (None if there are none).  Once both lanes' rows are
    filled (``parts``, shaped (2, d + REDUCTIONS, E)), ``combine`` forms
    g_w and the cross-block terms, once a step in each process, and
    ``finish`` the lane's u-gradient of its live problems.  Every pass over
    a u-block runs on a C-contiguous (live problems, rows) array.
    """

    REDUCTIONS = 3

    def __init__(self, data: AdaptDataset, d_dp: np.ndarray):
        self.d = data.d
        self.blocks = [(x, y, shift) for (x, y), shift in zip(data.samples, (d_dp[:, None], None))]
        self.held = (0, 0)

    def __call__(self, W: np.ndarray, U_pub: np.ndarray, U_priv: np.ndarray):
        """(g_w, g_u_pub, g_u_priv): both lanes' parts, then their finishes."""
        parts = np.empty((2, self.d + self.REDUCTIONS, W.shape[1]))
        us = (U_pub, U_priv)
        states = [self.part(lane, W, U, parts[lane]) for lane, U in enumerate(us)]
        g_w = np.empty_like(W)
        shared = self.combine(parts, g_w)
        return g_w, *(self.finish(lane, us[lane], shared, states[lane]) for lane in (0, 1))

    def certify(self, lam: float, free: list):
        """Once a run, before any step: hold those of each lane's ``free`` last
        problems (noise-free, at lb) that no w of the lam-ball moves (here none)."""


class ConvexGradient(BlockGradient):
    """Block gradients of E squared-loss objectives.

    With q = (x.w - y)/u, g_w = 2 X^T q and g_u = kappa1 c - (q^2 + d_dp/u^2)
    on the public block, kappa1 c - q^2 on the private one, plus the kappa2
    term, whose root sums 1/u^2 over both blocks, and the kappa_inf
    subgradient, which puts full mass on the lowest-index minimizer of u
    over the concatenated (u_pub, u_priv) row.  A lane's reductions are, per
    problem, its sum of 1/u^2, its min u and that minimizer's index.  The
    forward product W^T X^T, read from the dataset's row-contiguous X^T,
    writes straight into the lane's gradient buffer, made at its first
    step in the process that runs the lane and overwritten by every step.
    With kappa2 = kappa_inf = 0, a held problem forms its share from A =
    X^T X and b = X^T y, the dataset's moments, and the row path runs on
    views of the live prefix of W and U.
    """

    def __init__(self, data: AdaptDataset, cfg: RegularizerConfig, d_dp: np.ndarray):
        super().__init__(data, d_dp)
        self.data, self.cfg = data, cfg
        self.c = (cfg.kappa1 * (cfg.alpha / data.m) ** 2,
                  cfg.kappa1 * ((1.0 - cfg.alpha) / data.n) ** 2)
        self.g = [None, None]
        self.lower = weight_bounds(cfg.alpha, data.m, data.n)

    def certify(self, lam: float, free: list):
        if self.cfg.kappa2 == self.cfg.kappa_inf == 0:
            # at lb, g_u = kappa1 c - (r^2 + d_dp)/lb^2 with c lb^2 = 1 stays > 0, and u at
            # lb, while |r| <= x_top ||w|| + y_top at the rim: ||w|| <= lam (1 + TOL) +
            # TOL (is_feasible, project_ball), and TOL more for summation order
            rim, shift = (lam * (1.0 + TOL) + TOL) * (1.0 + TOL), self.blocks[0][2][:, 0]
            self.held = []
            for f, (x_top, y_top), s in zip(free, self.data.tops, (shift, np.zeros_like(shift))):
                bound = (x_top * rim + y_top) ** 2 + s
                fails = np.flatnonzero(~(bound <= self.cfg.kappa1 * (1.0 - 1e-9)))
                self.held.append(min(f, len(s) - int(max(fails + 1, default=0))))

    def part(self, lane: int, W: np.ndarray, U: np.ndarray, out: np.ndarray):
        X, y, shift = self.blocks[lane]
        cfg, d, E = self.cfg, self.d, W.shape[1]
        k = E - self.held[lane]
        if k < E:
            A, b, _ = self.data.moments[lane]
            np.matmul(A, W[:, k:], out=out[:d, k:])  # X^T (X W - y) / lb
            out[:d, k:] -= b[:, None]
            out[:d, k:] /= self.lower[lane]
        if not k:
            return None
        if self.g[lane] is None:
            self.g[lane] = np.empty(U.shape)
        U = U[:k]  # the row path runs on the live problems
        q = np.matmul(W[:, :k].T, X.T, out=self.g[lane][:k])  # q = (x.w - y) / u
        q -= y
        q /= U
        np.matmul(X.T, q.T, out=out[:d, :k])
        if shift is None:
            q *= q
        else:  # q^2 + d_dp/u^2 = ((q u)^2 + d_dp) / u^2, formed in place
            q *= U
            q *= q
            q += shift[:k]
            q /= U
            q /= U
        # g_u = kappa1 c - numerator / u^2, negated in the same pass
        np.subtract(self.c[lane], q, out=q)
        if cfg.kappa2 > 0:
            np.sum(1.0 / U ** 2, axis=1, out=out[d])
        if cfg.kappa_inf > 0:
            i = U.argmin(axis=1)
            out[d + 1] = U[np.arange(i.size), i]
            out[d + 2] = i
        return q

    def combine(self, parts: np.ndarray, g_w: np.ndarray):
        cfg, d = self.cfg, self.d
        np.add(parts[0, :d], parts[1, :d], out=g_w)
        g_w *= 2.0
        root = np.sqrt(parts[0, d] + parts[1, d])[:, None] if cfg.kappa2 > 0 else None
        # ties go to the public block, which comes first
        on_pub = parts[0, d + 1] <= parts[1, d + 1] if cfg.kappa_inf > 0 else None
        return parts, root, on_pub

    def finish(self, lane: int, U: np.ndarray, shared, g: np.ndarray):
        parts, root, on_pub = shared
        if root is not None:
            g -= self.cfg.kappa2 / (U ** 3 * root)
        if on_pub is not None:
            here = np.flatnonzero(on_pub if lane == 0 else ~on_pub)  # problems whose min is here
            mins, cols = parts[lane, self.d + 1:][:, here]
            g[here, cols.astype(np.intp)] -= self.cfg.kappa_inf / mins ** 2
        return g


def grad_F(ctx: ConvexObjectiveContext, p: FeasiblePoint):
    """Block gradients (g_w, g_u_pub, g_u_priv) at one point: the single
    problem case of ``ConvexGradient``."""
    check_feasible(ctx, p)
    g_w, g_pub, g_priv = ConvexGradient(ctx.data, ctx.config, np.array([ctx.d_dp]))(
        p.w[:, None], p.u_pub[None, :], p.u_priv[None, :])
    return g_w[:, 0], g_pub[0], g_priv[0]


def project_ball(W: np.ndarray, lam: float) -> None:
    """Rescale each column of W (d, E) onto the lam-ball, in place."""
    nrm = np.linalg.norm(W, axis=0)
    over = nrm > lam
    if over.any():
        W[:, over] *= lam / nrm[over]


def project(w: np.ndarray, u_pub: np.ndarray, u_priv: np.ndarray,
            lam: float, alpha: float, m: int, n: int) -> FeasiblePoint:
    """Euclidean projection: rescale w to the ball, clamp u to the box."""
    W = np.array(w, dtype=float).reshape(-1, 1)
    project_ball(W, lam)
    lb_pub, lb_priv = weight_bounds(alpha, m, n)
    return FeasiblePoint(W[:, 0], np.maximum(u_pub, lb_pub), np.maximum(u_priv, lb_priv))
