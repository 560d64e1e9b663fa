"""Domain types (a dataset forms each sample's squared-loss moments once, for
every module that reads them), loss models, and the solvers' shared rules."""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

SQUARED = "squared"
LOGISTIC = "logistic"
# the relative slack of the feature bound and of the feasible set
TOL = 1e-9


def _as_matrix(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d feature array, got shape {a.shape}")
    return a


def sample_major(x: np.ndarray) -> np.ndarray:
    """x in the ``AdaptDataset`` feature layout: itself, or one copy."""
    return x if x.strides[0] == x.itemsize else np.ascontiguousarray(x.T).T


def row_norms(x: np.ndarray) -> np.ndarray:
    """The norm of each row of a finite x, with the same bits in either
    layout.  A row whose squares sum to zero, a subnormal or inf is first
    divided by its largest |entry|, so tiny and huge rows keep their norm."""
    with np.errstate(over="ignore"):  # such rows are rescaled below
        sq = np.add.reduce(np.multiply(x, x, order="C"), axis=1)
    norms = np.sqrt(sq)
    if (odd := np.flatnonzero((sq < np.finfo(float).tiny) | (sq == np.inf))).size:
        top = np.abs(x[odd]).max(axis=1, initial=0.0)
        rows = x[odd] / np.where(top > 0.0, top, 1.0)[:, None]
        norms[odd] = top * np.sqrt(np.add.reduce(np.multiply(rows, rows, order="C"), axis=1))
    return norms


def take_rows(x, rows) -> np.ndarray:
    """x[rows] for an index array, gathered column by column straight into
    the ``AdaptDataset`` feature layout; x, in any layout, is never copied
    whole, so a strided view of a parsed file costs no extra copy.  For a
    list of arrays x with one index array each in rows, their selections
    in order, gathered the same way without joining the arrays."""
    if not isinstance(x, list):
        x, rows = [x], [rows]
    out = np.empty((x[0].shape[1], sum(map(len, rows))))
    for row, *columns in zip(out, *(part.T for part in x)):
        np.concatenate([column[pick] for column, pick in zip(columns, rows)], out=row)
    return out.T


@dataclass(frozen=True)
class AdaptDataset:
    """A labeled public sample of size m and a labeled private sample of size n.

    Feature rows share dimension d and labels lie in [-1, 1]
    (classification labels are encoded as -1/+1).

    Features are stored sample-major: each (rows, d) array has unit stride
    along the sample axis, so X.T is a row-contiguous (d, rows) view that
    the gradient products read without a transpose.  Other input is copied
    once into that layout here; the constructors in ``data_io`` and
    ``harness`` build it with ``sample_major`` and ``take_rows`` instead.
    """

    public_x: np.ndarray
    public_y: np.ndarray
    private_x: np.ndarray
    private_y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "public_x", sample_major(_as_matrix(self.public_x)))
        object.__setattr__(self, "private_x", sample_major(_as_matrix(self.private_x)))
        object.__setattr__(self, "public_y", np.asarray(self.public_y, dtype=float).ravel())
        object.__setattr__(self, "private_y", np.asarray(self.private_y, dtype=float).ravel())
        if self.public_x.shape[0] < 1 or self.private_x.shape[0] < 1:
            raise ValueError("both samples must contain at least one point")
        if self.public_x.shape[1] != self.private_x.shape[1]:
            raise ValueError("public and private samples must share the feature dimension")
        if self.public_x.shape[0] != self.public_y.shape[0]:
            raise ValueError("public feature/label count mismatch")
        if self.private_x.shape[0] != self.private_y.shape[0]:
            raise ValueError("private feature/label count mismatch")
        for a in (self.public_x, self.public_y, self.private_x, self.private_y):
            if not np.all(np.isfinite(a)):
                raise ValueError("features and labels must be finite")
        for y in (self.public_y, self.private_y):
            if np.max(np.abs(y)) > 1.0 + 1e-12:
                raise ValueError("labels must lie in [-1, 1]")

    @property
    def m(self) -> int:
        return self.public_x.shape[0]

    @property
    def n(self) -> int:
        return self.private_x.shape[0]

    @property
    def d(self) -> int:
        return self.public_x.shape[1]

    @property
    def samples(self) -> tuple:
        """((public_x, public_y), (private_x, private_y)): the lane order."""
        return (self.public_x, self.public_y), (self.private_x, self.private_y)

    @functools.cached_property
    def tops(self) -> tuple:
        """Per sample, in lane order: (the largest row norm, the largest |y|)."""
        return tuple((row_norms(x).max(), np.abs(y).max()) for x, y in self.samples)

    @functools.cached_property
    def moments(self) -> tuple:
        """Per sample, in lane order: (X^T X, X^T y, y.y), the squared loss's."""
        return tuple((x.T @ x, x.T @ y, float(y @ y)) for x, y in self.samples)

    def max_feature_norm(self) -> float:
        return float(max(self.tops[0][0], self.tops[1][0]))

    def check_feature_bound(self, r: float):
        if self.max_feature_norm() > r * (1.0 + TOL):  # rows scaled to r round to it
            raise ValueError(f"feature norms exceed the bound r={r}")


@dataclass(frozen=True)
class LossModel:
    """A pluggable per-example loss with its geometric constants.

    ``kind`` is "squared" (regression, linear predictors) or "logistic"
    (margin-form classification loss on -1/+1 labels).  ``r`` bounds the
    feature norms and ``lam`` the predictor norm; the derived constants are

    - squared:  B = (lam*r + 1)^2,  G = 2*r*(lam*r + 1),  beta = 2*r^2
    - logistic: G = r,  beta = r^2 / 4,  B = G * lam
    """

    kind: str = SQUARED
    r: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        if self.kind not in (SQUARED, LOGISTIC):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not (0.0 < self.r < math.inf and 0.0 < self.lam < math.inf):  # NaN fails too
            raise ValueError("r and lam must be positive and finite")
        try:  # the step sizes and the analytic T divide by these squares
            squares = [c * c for c in (self.B, self.G, self.beta)]
        except OverflowError:
            squares = [math.inf]
        if not all(sys.float_info.min <= sq < math.inf for sq in squares):
            raise ValueError(f"r={self.r!r} and lam={self.lam!r} put the square of B, G or "
                             "beta outside the float range")

    @property
    def B(self) -> float:
        if self.kind == SQUARED:
            return (self.lam * self.r + 1.0) ** 2
        return self.G * self.lam

    @property
    def G(self) -> float:
        if self.kind == SQUARED:
            return 2.0 * self.r * (self.lam * self.r + 1.0)
        return self.r

    @property
    def beta(self) -> float:
        if self.kind == SQUARED:
            return 2.0 * self.r ** 2
        return self.r ** 2 / 4.0


def loss_and_slope(model: LossModel, w: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Per-example losses and their slopes l'(x.w) from a single ``X @ w``.

    The gradient of example i in w is slope_i * x_i, so a weighted gradient
    sum is ``X.T @ (slope * c)``.
    """
    w = np.asarray(w, dtype=float)
    X = _as_matrix(X)
    if w.ndim != 1 or X.shape[1] != w.shape[0]:
        raise ValueError("dimension mismatch between w and features")
    return score_loss_and_slope(model, X @ w, np.asarray(y, dtype=float).ravel())


def score_loss_and_slope(model: LossModel, s: np.ndarray, y: np.ndarray):
    """Per-example losses and slopes at the scores s = x.w, which it
    overwrites; the last axis of s runs over the examples of y."""
    if model.kind == SQUARED:
        s -= y  # the residual, in the scores' buffer
        loss = s * s
        s *= 2.0
        return loss, s
    # at z = y s, with e = exp(-|z|): log(1 + exp(-z)) = log1p(e) - min(z, 0)
    # and the slope -y sigmoid(-z) = -y (e if z > 0 else 1) / (1 + e)
    z = np.multiply(s, y, out=s)
    e = np.exp(-np.abs(z))
    slope = np.where(z > 0.0, e, 1.0) / (1.0 + e) * -y
    return np.log1p(e) - np.minimum(z, 0.0), slope


def loss_values(model: LossModel, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vector of per-example losses at predictor w."""
    return loss_and_slope(model, np.asarray(w, dtype=float).ravel(), X, y)[0]


def loss_grads(model: LossModel, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix of per-example loss gradients in w, one row per example."""
    _, slope = loss_and_slope(model, np.asarray(w, dtype=float).ravel(), X, y)
    return slope[:, None] * _as_matrix(X)


@dataclass(frozen=True)
class FeasiblePoint:
    """Predictor w plus the weight-reciprocal blocks (u_pub, u_priv)."""

    w: np.ndarray
    u_pub: np.ndarray
    u_priv: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float).ravel())
        object.__setattr__(self, "u_pub", np.asarray(self.u_pub, dtype=float).ravel())
        object.__setattr__(self, "u_priv", np.asarray(self.u_priv, dtype=float).ravel())

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.w, self.u_pub, self.u_priv])


def weight_bounds(alpha: float, m: int, n: int) -> tuple[float, float]:
    """The lower bounds (m/alpha, n/(1-alpha)) of the reciprocal weights
    u_pub and u_priv: at them the weights are the alpha-mixture's.  alpha = 0
    puts no weight on the public sample, so its bound is inf."""
    return (m / alpha if alpha > 0 else math.inf), n / (1.0 - alpha)


def is_feasible(p: FeasiblePoint, lam: float, alpha: float, m: int, n: int) -> bool:
    if np.linalg.norm(p.w) > lam * (1.0 + TOL) + TOL:
        return False
    if p.u_pub.shape[0] != m or p.u_priv.shape[0] != n:
        return False
    lb_pub, lb_priv = weight_bounds(alpha, m, n)
    return not (np.any(p.u_pub < lb_pub - TOL * lb_pub)
                or np.any(p.u_priv < lb_priv - TOL * lb_priv))


def reference_point(alpha: float, m: int, n: int, d: int) -> FeasiblePoint:
    """w = 0, u at the box lower bounds, i.e. the weights equal the
    alpha-mixture reference."""
    lb_pub, lb_priv = weight_bounds(alpha, m, n)
    return FeasiblePoint(np.zeros(d), np.full(m, lb_pub), np.full(n, lb_priv))


def check_integer(name: str, value, least: float = -math.inf) -> None:
    """Raise ValueError unless ``value`` is an integer (a bool is not) of at
    least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        bound = f" >= {least}" if least > -math.inf else ""
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


# The least epsilon, part of an epsilon, delta and alpha accepted: the noise
# levels scale as 1/epsilon and sqrt(ln(1/delta)), and the public u-step as
# 1/alpha^2, and these must stay within the float range.
FLOOR = 1e-100


def check_epsilon(epsilon: float) -> None:
    """PrivacyBudget's rule for epsilon, which SweepSpec and the CLI apply too."""
    if not epsilon > 0:  # NaN fails
        raise ValueError(f"epsilon must be positive or inf, got {epsilon!r}")
    if epsilon < FLOOR:
        raise ValueError(f"epsilon must be at least {FLOOR} or inf, got {epsilon!r}")


@dataclass(frozen=True)
class PrivacyBudget:
    """Total (epsilon, delta) budget and its split between the discrepancy
    release (pure-DP Laplace) and the noisy optimization."""

    epsilon_total: float
    delta: float
    disc_fraction: float = 0.5

    def __post_init__(self):
        check_epsilon(self.epsilon_total)
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.delta < FLOOR:  # the noise levels grow as sqrt(ln(1/delta))
            raise ValueError(f"delta must be at least {FLOOR}, got {self.delta!r}")
        if not (0.0 < self.disc_fraction < 1.0):
            raise ValueError("disc_fraction must lie in (0, 1)")
        if min(self.epsilon_disc, self.epsilon_opt) < FLOOR:
            raise ValueError(f"disc_fraction={self.disc_fraction!r} leaves a part of "
                             f"epsilon={self.epsilon_total!r} below {FLOOR}")

    @property
    def epsilon_disc(self) -> float:
        return self.disc_fraction * self.epsilon_total  # inf stays inf

    @property
    def epsilon_opt(self) -> float:
        return (1.0 - self.disc_fraction) * self.epsilon_total

    @property
    def is_private(self) -> bool:
        return not math.isinf(self.epsilon_total)

    @property
    def spent(self) -> tuple:
        """The (epsilon, delta) a private optimizer run reports."""
        return self.epsilon_opt, self.delta if self.is_private else 0.0


def non_private(delta: float = 0.01) -> PrivacyBudget:
    return PrivacyBudget(math.inf, delta)


@dataclass(frozen=True)
class RegularizerConfig:
    """Hyperparameters of both objectives.

    alpha is the public/private mixture weight of the reference weighting.
    The kappas regularize the convex objective, the lambdas the non-convex
    one; mu is the softmax sharpness (None means sqrt(m + n) at use time).
    """

    alpha: float = 0.5
    kappa1: float = 0.0
    kappa2: float = 0.0
    kappa_inf: float = 0.0
    lambda1: float = 0.0
    lambda2: float = 0.0
    lambda_inf: float = 0.0
    mu: float | None = None

    def __post_init__(self):
        if not (FLOOR <= self.alpha < 1.0):
            raise ValueError(f"alpha must lie in [{FLOOR}, 1)")
        for name in ("kappa1", "kappa2", "kappa_inf", "lambda1", "lambda2", "lambda_inf"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if self.mu is not None and not 0.0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")

    def b_bar(self, B: float) -> float:
        return B + self.kappa1 + self.kappa2 + self.kappa_inf

    def softmax_mu(self, m: int, n: int) -> float:
        return self.mu if self.mu is not None else math.sqrt(m + n)


@dataclass
class AdaptationResult:
    """Output of a fit: the returned point plus run diagnostics."""

    point: FeasiblePoint
    objective_value: float
    privacy_spent: tuple = (math.inf, 0.0)
    T_used: int = 0
    grad_mapping_norm: float | None = None
    t_star: int | None = None

    def to_dict(self) -> dict:
        out = {
            "w": self.point.w.tolist(),
            "objective_value": self.objective_value,
            "privacy_spent": list(self.privacy_spent),
            "T_used": self.T_used,
        }
        if self.grad_mapping_norm is not None:
            out["grad_mapping_norm"] = self.grad_mapping_norm
        if self.t_star is not None:
            out["t_star"] = self.t_star
        return out
