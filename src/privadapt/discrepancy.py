"""Empirical labeled-discrepancy estimation between the two samples.

The estimate is sup over feasible predictors of
|mean private loss - mean public loss|.  Two solvers are provided: an
exact trust-region solve for the squared loss in any dimension (one
eigendecomposition per sign of the gap), and a brute-force grid oracle
restricted to d <= 2.  Both read a squared-loss gap from the dataset's
moments (``AdaptDataset.moments``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import AdaptDataset, LossModel, SQUARED, loss_values


@dataclass
class DiscrepancyEstimate:
    d_hat: float
    solver: str
    witness_w: np.ndarray


def loss_gap(data: AdaptDataset, model: LossModel, w: np.ndarray) -> float:
    """Mean private loss minus mean public loss at w."""
    lp = loss_values(model, w, data.private_x, data.private_y).mean()
    lq = loss_values(model, w, data.public_x, data.public_y).mean()
    return float(lp - lq)


def check_solver(policy, model: LossModel, d: int) -> None:
    """Raise ValueError where the d_hat solver ``policy`` cannot run: the
    exact solve ("dca") takes the squared loss only, the grid oracle d <= 2.
    Any other policy passes."""
    if policy == "dca" and model.kind != SQUARED:
        raise ValueError("the exact solver supports the squared loss only")
    if policy == "grid" and d > 2:
        raise ValueError("grid oracle is restricted to d <= 2")


@functools.lru_cache(maxsize=4)
def _candidate_grid(d: int, lam: float, grid_points: int) -> np.ndarray:
    """The grid points of the Lambda-ball, read-only: cached, so every call
    with the same (d, lam, grid_points) shares one array."""
    axes = [np.linspace(-lam, lam, grid_points)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    norms = np.linalg.norm(pts, axis=1)
    inside = pts[norms <= lam]
    # project the remaining grid points onto the sphere so the boundary,
    # where the maximizer often sits, is sampled too
    outside = pts[norms > lam]
    if outside.size:
        boundary = lam * outside / np.linalg.norm(outside, axis=1, keepdims=True)
        inside = np.vstack([inside, boundary])
    inside.flags.writeable = False
    return inside


def _gap_quadratic(data: AdaptDataset):
    """The squared-loss gap as (A, g, c): gap(w) = w'Aw - 2 g'w + c."""
    (Gq, bq, cq), (Gp, bp, cp) = data.moments
    m, n = data.m, data.n
    return Gp / n - Gq / m, bp / n - bq / m, cp / n - cq / m


def _quadratic_gaps(quad, W: np.ndarray) -> np.ndarray:
    """w'Aw - 2 g'w + c at each row w of W, for quad = (A, g, c)."""
    A, g, c = quad
    return np.einsum("ij,ij->i", W @ A, W) - 2.0 * (W @ g) + c


def discrepancy_grid(data: AdaptDataset, model: LossModel,
                     grid_points: int = 201) -> DiscrepancyEstimate:
    """Brute-force oracle: maximize |loss gap| over a uniform grid of the
    Lambda-ball.  Restricted to d <= 2.

    For the squared loss the gap is scanned through the data's second
    moments, and the value reported is ``loss_gap`` at the best point.
    """
    check_solver("grid", model, data.d)
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    cand = _candidate_grid(data.d, model.lam, grid_points)
    quad = _gap_quadratic(data) if model.kind == SQUARED else None
    best_val = -1.0
    best_w = np.zeros(data.d)
    chunk = 200_000
    for start in range(0, cand.shape[0], chunk):
        W = cand[start:start + chunk]
        if quad is not None:
            gaps = np.abs(_quadratic_gaps(quad, W))
        else:
            sp = data.private_x @ W.T
            sq = data.public_x @ W.T
            lp = np.logaddexp(0.0, -data.private_y[:, None] * sp).mean(axis=0)
            lq = np.logaddexp(0.0, -data.public_y[:, None] * sq).mean(axis=0)
            gaps = np.abs(lp - lq)
        i = int(np.argmax(gaps))
        if gaps[i] > best_val:
            best_val = float(gaps[i])
            best_w = W[i].copy()
    if quad is not None:
        best_val = abs(loss_gap(data, model, best_w))
    return DiscrepancyEstimate(best_val, "grid", best_w)


def _trust_region_max(A: np.ndarray, g: np.ndarray, lam: float):
    """Global maximizer of w'Aw - 2 g'w over the ball ||w|| <= lam.

    The KKT conditions (nu I - A) w = -g with nu >= max(lambda_max(A), 0)
    and nu = 0 or ||w|| = lam are sufficient for this trust-region
    subproblem (More & Sorensen, 1983).  In the eigenbasis of A they leave
    one scalar unknown nu: either the interior point nu = 0, the hard case
    (g has no component on the singular directions of nu I - A at the
    smallest admissible nu, which are then filled up to the sphere), or
    the root of the decreasing secular function ||w(nu)|| = lam, bracketed
    and bisected to machine precision.
    """
    evals, Q = np.linalg.eigh(A)
    gam = Q.T @ g
    lo = max(evals[-1], 0.0)
    gap = lo - evals
    singular = gap <= 1e-12 * max(1.0, np.abs(evals).max())
    c = np.zeros_like(gam)
    c[~singular] = -gam[~singular] / gap[~singular]
    if np.all(np.abs(gam[singular]) <= 1e-12 * max(1.0, np.linalg.norm(g))) \
            and np.linalg.norm(c) <= lam:
        if singular.any():
            c[np.argmax(singular)] = np.sqrt(lam ** 2 - c @ c)
    else:
        # ||w(nu)|| <= ||g|| / (nu - lambda_max) <= lam at the upper end
        hi = lo + np.linalg.norm(g) / lam
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if np.linalg.norm(gam / (mid - evals)) > lam:
                lo = mid
            else:
                hi = mid
        c = -gam / (hi - evals)
        c *= lam / np.linalg.norm(c)
    w = Q @ c
    return float(w @ (A @ w) - 2.0 * g @ w), w


def discrepancy_dca(data: AdaptDataset, model: LossModel) -> DiscrepancyEstimate:
    """Exact squared-loss discrepancy over the Lambda-ball.

    The loss gap is the quadratic w'(M_p - M_q)w - 2(b_p - b_q)'w + c, so
    each sign of the absolute value is a trust-region subproblem, solved
    globally by one eigendecomposition.  The name (and the "dca" solver
    label) is historical: it once named a difference-of-convex iteration.
    """
    check_solver("dca", model, data.d)
    A, g, c = _gap_quadratic(data)
    best = (0.0, np.zeros(data.d))
    for sign in (1.0, -1.0):
        val, w = _trust_region_max(sign * A, sign * g, model.lam)
        if val + sign * c > best[0]:
            best = (val + sign * c, w)
    return DiscrepancyEstimate(float(best[0]), "dca", best[1])
