"""End-to-end acceptance suite.

Each test exercises one release gate for the package: gradient and bound
correctness at scale, convexity/smoothness certificates, oracle agreement
for the discrepancy solvers, solver convergence, the privacy-utility curve
of the full pipeline, mechanism statistics, and determinism of the sweep
harness.  The scales and tolerances here are the contract; the per-module
test files hold lighter versions of some of these checks plus hand-traced
values.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from privadapt.convex_objective import (
    ConvexObjectiveContext,
    eval_F,
    grad_F,
)
from privadapt.convex_solver import ConvexRunConfig, fit_convex
from privadapt.core import (
    AdaptDataset,
    FeasiblePoint,
    LossModel,
    RegularizerConfig,
    non_private,
)
from privadapt.data_io import SyntheticShiftSpec
from privadapt.discrepancy import discrepancy_dca, discrepancy_grid
from privadapt.harness import SweepSpec, emit_results, run_sweep
from privadapt.mechanisms import (
    calibrate,
    derive_rng,
    gaussian_vector,
    laplace_sample,
)
from privadapt.nonconvex_objective import (
    NonConvexContext,
    eval_J,
    grad_J,
    smoothness_beta_bar,
    softmax_of_reciprocals,
)
from privadapt.nonconvex_solver import NonConvexRunConfig, fit_nonconvex
from tests.test_convex_objective import (
    gradient_bounds,
    numeric_grad,
    point_from_vector,
    random_dataset,
    random_feasible_point,
)
from tests.test_convex_solver import grid_oracle_F

SQ = LossModel("squared", r=1.0, lam=1.0)
LG = LossModel("logistic", r=1.0, lam=1.0)


# ---------------------------------------------------------------------------
# 1. analytic gradients of both objectives match central finite differences


def test_gradients_match_finite_differences_at_scale():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    checked = 0
    while checked < 200:
        m, n, d = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 4)
        data = random_dataset(rng, m, n, d, SQ)
        cfg = RegularizerConfig(alpha=rng.uniform(0.2, 0.8),
                                kappa1=rng.uniform(0, 2),
                                kappa2=rng.uniform(0, 2),
                                kappa_inf=rng.uniform(0, 2))
        ctx = ConvexObjectiveContext(data, rng.uniform(0, 2), cfg, SQ)
        p = random_feasible_point(rng, SQ, cfg.alpha, m, n, d)
        # the min-u penalty is differentiable only where the smallest u is
        # unique with margin wider than the finite-difference step
        u_all = np.sort(np.concatenate([p.u_pub, p.u_priv]))
        if u_all.size > 1 and u_all[1] - u_all[0] < 1e-3:
            continue
        if np.linalg.norm(p.w) > SQ.lam - 1e-3:
            continue
        g = np.concatenate(grad_F(ctx, p))
        fd = numeric_grad(
            lambda v: eval_F(ctx, point_from_vector(v, d, m, n)),
            p.as_vector())
        assert np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-8) <= 1e-5
        checked += 1

    checked = 0
    while checked < 200:
        m, n, d = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 4)
        kind = LG if rng.random() < 0.5 else SQ
        data = random_dataset(rng, m, n, d, kind)
        if kind is LG:
            data = AdaptDataset(data.public_x, np.sign(data.public_y + 1e-9),
                                data.private_x, np.sign(data.private_y + 1e-9))
        cfg = RegularizerConfig(alpha=rng.uniform(0.2, 0.8),
                                lambda1=rng.uniform(0, 2),
                                lambda2=rng.uniform(0, 2),
                                lambda_inf=rng.uniform(0, 2),
                                mu=rng.uniform(0.5, 3.0))
        ctx = NonConvexContext(data, rng.uniform(0, kind.B), cfg, kind)
        p = random_feasible_point(rng, kind, cfg.alpha, m, n, d)
        if np.linalg.norm(p.w) > kind.lam - 1e-3:
            continue
        g = np.concatenate(grad_J(ctx, p))
        fd = numeric_grad(
            lambda v: eval_J(ctx, point_from_vector(v, d, m, n)),
            p.as_vector())
        assert np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-8) <= 1e-5
        checked += 1

    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 2. per-block gradient-norm bounds and replace-one-row sensitivities


def test_gradient_norm_bounds_hold_everywhere():
    rng = np.random.default_rng(102)
    for _ in range(10_000):
        m, n, d = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 4)
        data = random_dataset(rng, m, n, d, SQ)
        cfg = RegularizerConfig(alpha=rng.uniform(0.2, 0.8),
                                kappa1=rng.uniform(0, 2),
                                kappa2=rng.uniform(0, 2),
                                kappa_inf=rng.uniform(0, 2))
        ctx = ConvexObjectiveContext(data, rng.uniform(0, SQ.B), cfg, SQ)
        p = random_feasible_point(rng, SQ, cfg.alpha, m, n, d,
                                  spread=rng.uniform(0.1, 50))
        g_w, g_pub, g_priv = grad_F(ctx, p)
        bw, bpub, bpriv = gradient_bounds(ctx)
        assert np.linalg.norm(g_w) <= bw + 1e-9
        assert np.linalg.norm(g_pub) <= bpub + 1e-9
        assert np.linalg.norm(g_priv) <= bpriv + 1e-9


def test_private_row_sensitivities_hold_everywhere():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        m, n, d = rng.integers(1, 4), rng.integers(1, 6), rng.integers(1, 4)
        alpha = rng.uniform(0.2, 0.8)
        data = random_dataset(rng, m, n, d, SQ)
        x_new = rng.standard_normal(d)
        x_new *= SQ.r * rng.random() / max(np.linalg.norm(x_new), 1e-12)
        row = int(rng.integers(0, n))
        xt = data.private_x.copy()
        yt = data.private_y.copy()
        xt[row], yt[row] = x_new, rng.uniform(-1, 1)
        data2 = AdaptDataset(data.public_x, data.public_y, xt, yt)

        p = random_feasible_point(rng, SQ, alpha, m, n, d)
        cfg = RegularizerConfig(alpha=alpha)
        g1 = grad_F(ConvexObjectiveContext(data, 0.0, cfg, SQ), p)
        g2 = grad_F(ConvexObjectiveContext(data2, 0.0, cfg, SQ), p)
        assert np.linalg.norm(g1[0] - g2[0]) <= 2 * (1 - alpha) * SQ.G / n + 1e-9
        assert (np.linalg.norm(g1[2] - g2[2])
                <= (1 - alpha) ** 2 * SQ.B / n ** 2 + 1e-9)


# ---------------------------------------------------------------------------
# 3. the weighted objective is jointly convex (midpoint check)


def test_weighted_objective_midpoint_convex():
    rng = np.random.default_rng(104)
    for _ in range(1000):
        m, n, d = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 3)
        data = random_dataset(rng, m, n, d, SQ)
        cfg = RegularizerConfig(alpha=rng.uniform(0.2, 0.8),
                                kappa1=rng.uniform(0, 1),
                                kappa2=rng.uniform(0, 1),
                                kappa_inf=rng.uniform(0, 1))
        ctx = ConvexObjectiveContext(data, rng.uniform(0, 2), cfg, SQ)
        p1 = random_feasible_point(rng, SQ, cfg.alpha, m, n, d)
        p2 = random_feasible_point(rng, SQ, cfg.alpha, m, n, d)
        mid = point_from_vector((p1.as_vector() + p2.as_vector()) / 2,
                                        d, m, n)
        assert eval_F(ctx, mid) <= (eval_F(ctx, p1) + eval_F(ctx, p2)) / 2 + 1e-9


# ---------------------------------------------------------------------------
# 4. the smooth objective's gradient is Lipschitz with the derived constant


def test_smoothness_constant_dominates_gradient_lipschitz():
    rng = np.random.default_rng(105)
    for _ in range(10_000):
        m, n, d = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 4)
        kind = LG if rng.random() < 0.5 else SQ
        data = random_dataset(rng, m, n, d, kind)
        if kind is LG:
            data = AdaptDataset(data.public_x, np.sign(data.public_y + 1e-9),
                                data.private_x, np.sign(data.private_y + 1e-9))
        cfg = RegularizerConfig(alpha=rng.uniform(0.2, 0.8),
                                lambda1=rng.uniform(0, 2),
                                lambda2=rng.uniform(0, 2),
                                lambda_inf=rng.uniform(0, 2))
        ctx = NonConvexContext(data, rng.uniform(0, kind.B), cfg, kind)
        beta_bar = smoothness_beta_bar(ctx)
        p1 = random_feasible_point(rng, kind, cfg.alpha, m, n, d)
        p2 = random_feasible_point(rng, kind, cfg.alpha, m, n, d)
        dg = np.concatenate(grad_J(ctx, p1)) - np.concatenate(grad_J(ctx, p2))
        dp = p1.as_vector() - p2.as_vector()
        assert np.linalg.norm(dg) <= beta_bar * np.linalg.norm(dp) + 1e-9


# ---------------------------------------------------------------------------
# 5. the soft maximum of reciprocal weights sandwiches the true maximum


def test_soft_maximum_sandwich():
    rng = np.random.default_rng(106)
    for _ in range(10_000):
        m, n = rng.integers(1, 10), rng.integers(1, 10)
        mu = rng.uniform(0.1, 20)
        u = np.concatenate([m / 0.5 + rng.uniform(0, 50, m),
                            n / 0.5 + rng.uniform(0, 50, n)])
        gap = softmax_of_reciprocals(u, mu) - (1.0 / u).max()
        assert -1e-12 <= gap <= math.log(m + n) / mu + 1e-12


# ---------------------------------------------------------------------------
# 6. the difference-of-convex solver agrees with brute-force grid search


def test_dca_matches_grid_oracle_on_random_instances():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    for _ in range(50):
        m = int(rng.integers(2, 31))
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 3))
        data = random_dataset(rng, m, n, d, SQ)
        dca = discrepancy_dca(data, SQ).d_hat
        grid = discrepancy_grid(data, SQ, grid_points=2001).d_hat
        assert dca == pytest.approx(grid, abs=1e-3)
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# 7. noiseless convex solver converges to the grid-search optimum


CONVEX_TINY = AdaptDataset([[1.0]], [1.0], [[1.0]], [0.0])


def test_convex_solver_reaches_grid_optimum():
    reg = RegularizerConfig(kappa1=SQ.B)
    ctx = ConvexObjectiveContext(CONVEX_TINY, 0.5, reg, SQ)
    f_star = grid_oracle_F(ctx, SQ.lam, reg.alpha)
    res = fit_convex(CONVEX_TINY, non_private(), reg, ConvexRunConfig(T=10_000),
                     SQ, d_dp=0.5)
    assert res.objective_value - f_star <= 1e-2
    assert res.objective_value >= f_star - 1e-9


def test_convex_gap_strictly_decreasing_in_steps():
    reg = RegularizerConfig(kappa1=SQ.B)
    ctx = ConvexObjectiveContext(CONVEX_TINY, 0.5, reg, SQ)
    f_star = grid_oracle_F(ctx, SQ.lam, reg.alpha)
    gaps = []
    for T in (100, 1000, 10_000):
        vals = []
        for seed in range(20):
            rng = derive_rng(seed, "init")
            init = FeasiblePoint([rng.uniform(-1, 1)],
                                 [2.0 + rng.uniform(0, 5)],
                                 [2.0 + rng.uniform(0, 5)])
            res = fit_convex(CONVEX_TINY, non_private(), reg,
                             ConvexRunConfig(T=T, init=init), SQ, d_dp=0.5)
            vals.append(res.objective_value - f_star)
        gaps.append(np.mean(vals))
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# 8. noiseless smooth solver moves toward stationarity as steps grow


def test_gradient_mapping_norm_shrinks_with_steps():
    rng = np.random.default_rng(108)
    size = 8
    xs = rng.standard_normal((size, 2))
    xs /= np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
    xt = rng.standard_normal((size, 2))
    xt /= np.maximum(np.linalg.norm(xt, axis=1, keepdims=True), 1.0)
    data = AdaptDataset(xs, np.sign(rng.standard_normal(size) + 1e-9),
                        xt, np.sign(rng.standard_normal(size) + 1e-9))
    reg = RegularizerConfig(lambda1=0.3)
    norms = []
    for T in (100, 10_000):
        vals = []
        for seed in range(20):
            r = derive_rng(seed, "stationarity-init")
            w0 = r.standard_normal(2)
            w0 *= 0.9 / np.linalg.norm(w0)
            init = FeasiblePoint(w0,
                                 np.full(size, 16.0) + r.uniform(0, 3, size),
                                 np.full(size, 16.0) + r.uniform(0, 3, size))
            res = fit_nonconvex(data, non_private(), reg,
                                NonConvexRunConfig(T=T, seed=seed, init=init),
                                LG)
            vals.append(res.grad_mapping_norm)
        norms.append(np.mean(vals))
    assert norms[1] < norms[0]


# ---------------------------------------------------------------------------
# 9 & 10. the full private pipeline: utility approaches the non-private fit
# as the budget grows, and adapting beats training on the target alone


@pytest.fixture(scope="module")
def regression_sweep():
    model = LossModel("squared", r=1.0, lam=1.0)
    spec = SweepSpec(
        dataset=SyntheticShiftSpec(d=20, noise_std=0.1),
        algorithm="convex",
        epsilons=[0.5, 1.0, 5.0, 15.0, math.inf],
        target_sizes=[10_000],
        trials=10,
        master_seed=20260826,
        model=model,
        reg=RegularizerConfig(alpha=0.5, kappa1=model.B),
        T=2000,
        baseline_T=2000,
        m=7000,
        test_size=1000,
    )
    return run_sweep(spec)


def test_privacy_utility_curve(regression_sweep):
    means = {a["epsilon"]: a["metric_mean"] for a in regression_sweep.aggregates}
    eps_grid = [0.5, 1.0, 5.0, 15.0, math.inf]
    ordered = [means[e] for e in eps_grid]
    # mean relative MSE never worsens as the budget grows
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))
    # at epsilon = 15 the private fit is within 10% of the non-private one
    assert abs(means[15.0] - means[math.inf]) <= 0.10 * means[math.inf]
    assert regression_sweep.wall_time < 1800.0


def test_adaptation_beats_target_only(regression_sweep):
    means = {a["epsilon"]: a["metric_mean"] for a in regression_sweep.aggregates}
    # relative MSE < 1 means the adapted fit beats the target-only baseline,
    # whose relative MSE is 1 by construction
    assert means[math.inf] < 1.0


# ---------------------------------------------------------------------------
# 11. noise mechanism statistics and calibration formulas


def test_mechanism_statistics():
    rng = derive_rng(109, "accept-lap")
    x = np.array([laplace_sample(1.0, rng) for _ in range(200_000)])
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 2.0) / 2.0 < 0.05
    assert stats.kstest(x[:100_000], stats.laplace(scale=1.0).cdf).pvalue > 1e-3

    rng = derive_rng(109, "accept-gauss")
    g = gaussian_vector(200_000, 1.5, rng)
    assert abs(g.mean()) < 0.02
    assert abs(g.var() - 2.25) / 2.25 < 0.05
    assert stats.kstest(g[:100_000], stats.norm(scale=1.5).cdf).pvalue > 1e-3


def test_calibration_hand_values():
    # alpha=0.5, G=B=1, n=100, T=4, eps_opt=2 and log(3/delta)=1:
    # per-step w sensitivity 2*(1-alpha)*G/n = 0.01 -> sigma1 = 0.02;
    # private-weight sensitivity (1-alpha)^2*B/n^2 = 2.5e-5 -> sigma2 = 5e-5
    class Budget:
        delta = 3.0 / math.e
        epsilon_opt = 2.0

    sch = calibrate(Budget(), 0.5, G=1.0, B=1.0, n=100, T=4)
    assert sch.s1 == pytest.approx(0.01)
    assert sch.sigma1 == pytest.approx(0.02)
    assert sch.s2 == pytest.approx(2.5e-5)
    assert sch.sigma2 == pytest.approx(5e-5)
    quiet = calibrate(non_private(), 0.5, 1.0, 1.0, 100, 4)
    assert quiet.sigma1 == 0.0 and quiet.sigma2 == 0.0


# ---------------------------------------------------------------------------
# 12. sweep reruns are byte-identical


def test_sweep_rerun_byte_identical(tmp_path):
    model = LossModel("squared", r=1.0, lam=1.0)

    def spec():
        return SweepSpec(
            dataset=SyntheticShiftSpec(d=2, noise_std=0.1),
            algorithm="convex",
            epsilons=[1.0, math.inf],
            target_sizes=[40],
            trials=2,
            master_seed=12,
            model=model,
            reg=RegularizerConfig(alpha=0.5, kappa1=model.B),
            T=100,
            baseline_T=100,
            m=50,
            test_size=30,
        )

    for name in ("first.jsonl", "second.jsonl"):
        emit_results(run_sweep(spec()), str(tmp_path / name))
    a = (tmp_path / "first.jsonl").read_bytes().splitlines()
    b = (tmp_path / "second.jsonl").read_bytes().splitlines()
    # every record line is byte-identical; only the trailing aggregate line
    # carries wall time
    assert a[:-1] == b[:-1]
    assert json.loads(a[-1])["aggregates"] == json.loads(b[-1])["aggregates"]
