"""Noise primitives, the noise levels of both private solvers and the
target-only DP baseline (``calibrate``), and the w-step (``w_step``).

RNG contract: every consumer derives an independent substream from one
master seed via ``derive_rng(master_seed, *key)``; the key parts are the
module or stage name plus any trial indices.  Two runs with the same master
seed and keys see bitwise-identical streams.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .core import PrivacyBudget


def derive_rng(master_seed: int, *key) -> np.random.Generator:
    """Independent substream keyed by (master_seed, key...)."""
    parts = [int(master_seed) & 0xFFFFFFFF]
    for k in key:
        if isinstance(k, (int, np.integer)):
            parts.append(int(k) & 0xFFFFFFFF)
        else:
            parts.append(zlib.crc32(str(k).encode()))
    return np.random.default_rng(np.random.SeedSequence(parts))


def laplace_sample(scale: float, rng: np.random.Generator) -> float:
    """One draw from the Laplace density (1/2b) exp(-|x|/b), b = scale."""
    if scale <= 0:
        raise ValueError("Laplace scale must be positive")
    return float(rng.laplace(0.0, scale))


def gaussian_vector(dim: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. N(0, sigma^2) vector; sigma = 0 yields zeros without
    consuming randomness."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return np.zeros(dim)
    return sigma * rng.standard_normal(dim)


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-iteration Gaussian noise levels for the two private gradient
    blocks, with their sensitivities."""

    sigma1: float
    sigma2: float
    s1: float
    s2: float
    T: int


def calibrate(budget: PrivacyBudget, alpha: float, G: float, B: float,
              n: int, T: int) -> NoiseSchedule:
    """Noise levels sigma_i = 2 * s_i * sqrt(T * ln(3/delta)) / eps_opt with
    s1 = 2(1-alpha)G/n (parameter gradient) and s2 = (1-alpha)^2 B / n^2
    (private-weight gradient).  eps_opt = inf gives the non-private run;
    alpha = 0, all the weight on the private sample, the target-only one."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 <= alpha < 1.0):  # alpha = 1 would leave no weight on the private sample
        raise ValueError("alpha must lie in [0, 1)")
    s1 = 2.0 * (1.0 - alpha) * G / n
    s2 = (1.0 - alpha) ** 2 * B / n ** 2
    eps = budget.epsilon_opt
    if math.isinf(eps):
        return NoiseSchedule(0.0, 0.0, s1, s2, T)
    scale = 2.0 * math.sqrt(T * math.log(3.0 / budget.delta)) / eps
    return NoiseSchedule(s1 * scale, s2 * scale, s1, s2, T)


def w_step(lam: float, G: float, d: int, sigma: float, T: int) -> float:
    """The step on w, lam / sqrt(T (G^2 + d sigma^2)), matched to the
    gradient-norm bound G and the noise level sigma of a T-step run."""
    try:
        return lam / math.sqrt(T * (G ** 2 + d * sigma ** 2))
    except OverflowError:  # sigma's square past the float range: the same step unsquared
        return lam / (math.sqrt(T) * math.hypot(G, math.sqrt(d) * sigma))


def privatize_discrepancy(d_hat: float, B: float, epsilon_disc: float,
                          n: int, rng: np.random.Generator) -> float:
    """Laplace release of the discrepancy estimate, clamped back to [0, B].

    The Laplace scale is 2B/(epsilon_disc * n), matching the B/n sensitivity
    of the estimate with half the budget spent here.  epsilon_disc = inf, or
    one so large that the scale rounds to 0, returns d_hat, but still takes
    the draw, so the stream after a release stands in the same state for
    every budget.
    """
    if not (0.0 <= d_hat <= B + 1e-12):
        raise ValueError("d_hat must lie in [0, B]")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not epsilon_disc > 0:  # NaN and -inf fail too
        raise ValueError("epsilon_disc must be positive")
    scale = 2.0 * B / (epsilon_disc * n)
    if scale == 0.0:  # an infinite epsilon_disc, or one whose noise is below the float range
        rng.laplace()
        return float(d_hat)
    noisy = d_hat + laplace_sample(scale, rng)
    return float(min(max(noisy, 0.0), B))
