import math

import numpy as np
import pytest

from privadapt.core import (
    AdaptDataset,
    FeasiblePoint,
    LossModel,
    PrivacyBudget,
    RegularizerConfig,
    is_feasible,
    non_private,
)
from privadapt.nonconvex_objective import (
    NonConvexContext,
    eval_J,
    smoothness_beta_bar,
    uniform_bound_M,
)
from privadapt.nonconvex_solver import (
    NonConvexRunConfig,
    default_T_nonconvex,
    fit_nonconvex,
)
from privadapt.mechanisms import derive_rng

LG = LossModel("logistic", r=1.0, lam=1.0)
# public (x=1, y=+1), private (x=1, y=-1)
TINY = AdaptDataset([[1.0]], [1.0], [[1.0]], [-1.0])


class TestSingleStep:
    def test_hand_trace_noiseless(self):
        # lambdas 0, d_dp=0, init (w=0, u=(2,2)), T=1 (so t*=1).
        # beta_bar = beta + beta' + G/2 with beta' = 2*(1/8)*2B + 2*(1/8)*B
        # = 0.75, so beta_bar = 0.25 + 0.75 + 0.5 = 1.5 and eta = 2/3.
        # g_w = (-sigma(0)*1 + sigma(0)*1)/2 = 0; g_u = -ln2/4 per entry.
        reg = RegularizerConfig()
        ctx = NonConvexContext(TINY, 0.0, reg, LG)
        assert smoothness_beta_bar(ctx) == pytest.approx(1.5)
        res = fit_nonconvex(TINY, non_private(), reg, NonConvexRunConfig(T=1), LG)
        assert res.t_star == 1
        assert res.point.w == pytest.approx([0.0])
        expected_u = 2.0 + (2.0 / 3.0) * math.log(2.0) / 4.0
        assert res.point.u_pub == pytest.approx([expected_u])
        assert res.point.u_priv == pytest.approx([expected_u])

    def test_result_diagnostics(self):
        res = fit_nonconvex(TINY, non_private(), RegularizerConfig(),
                            NonConvexRunConfig(T=5), LG)
        assert 1 <= res.t_star <= 5
        assert res.grad_mapping_norm is not None and res.grad_mapping_norm >= 0
        assert res.T_used == 5


    def test_stops_at_t_star(self, monkeypatch):
        # t* gradient steps in the engine plus one for the gradient-mapping
        # norm, each one part per u-block; no replay
        from privadapt.nonconvex_objective import SmoothGradient
        calls = []
        original = SmoothGradient.part

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(SmoothGradient, "part", counted)
        res = fit_nonconvex(TINY, PrivacyBudget(1.0, 0.05), RegularizerConfig(),
                            NonConvexRunConfig(T=40, seed=2), LG)
        assert res.t_star < 40
        assert len(calls) == 2 * (res.t_star + 1)

    def test_T_none_takes_analytic_default(self):
        reg, budget = RegularizerConfig(), PrivacyBudget(1.0, 0.05)
        ctx = NonConvexContext(TINY, 0.0, reg, LG)
        T = default_T_nonconvex(1, 1, reg.alpha, budget.epsilon_opt, budget.delta,
                                LG.G, LG.B, smoothness_beta_bar(ctx),
                                uniform_bound_M(ctx))
        res = fit_nonconvex(TINY, budget, reg, NonConvexRunConfig(T=None), LG)
        assert res.T_used == T


class TestDeterminism:
    def test_same_seed_identical_output_and_tstar(self):
        budget = PrivacyBudget(1.0, 0.05)
        a = fit_nonconvex(TINY, budget, RegularizerConfig(),
                          NonConvexRunConfig(T=40, seed=9), LG)
        b = fit_nonconvex(TINY, budget, RegularizerConfig(),
                          NonConvexRunConfig(T=40, seed=9), LG)
        assert a.t_star == b.t_star
        assert np.array_equal(a.point.as_vector(), b.point.as_vector())

    def test_trajectory_shared_across_output_draws(self):
        # different seeds draw different t* but identical noiseless
        # trajectories: with sigma=0 two runs agree whenever t* coincides
        outs = {}
        for seed in range(30):
            res = fit_nonconvex(TINY, non_private(), RegularizerConfig(),
                                NonConvexRunConfig(T=10, seed=seed), LG)
            if res.t_star in outs:
                assert np.array_equal(res.point.as_vector(), outs[res.t_star])
            outs[res.t_star] = res.point.as_vector()
        assert len(outs) > 1  # several distinct t* were drawn


class TestDescent:
    def test_noiseless_objective_non_increasing(self):
        # with sigma = 0 and step 1/beta_bar, projected GD on a smooth
        # function never increases the objective; step the solver's own
        # engine one step at a time along the trajectory
        from privadapt.convex_solver import noisy_pgd
        from privadapt.core import reference_point
        from privadapt.nonconvex_objective import SmoothGradient

        rng = np.random.default_rng(2)
        for _ in range(5):
            d = int(rng.integers(1, 3))
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            xs = rng.standard_normal((m, d))
            xs /= np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
            xt = rng.standard_normal((n, d))
            xt /= np.maximum(np.linalg.norm(xt, axis=1, keepdims=True), 1.0)
            data = AdaptDataset(xs, np.sign(rng.standard_normal(m) + 1e-9),
                                xt, np.sign(rng.standard_normal(n) + 1e-9))
            reg = RegularizerConfig(lambda1=0.5, lambda2=0.2, lambda_inf=0.1)
            ctx = NonConvexContext(data, 0.1, reg, LG)
            eta = np.full((1, 3), 1.0 / smoothness_beta_bar(ctx))
            grad = SmoothGradient(data, reg, LG, np.array([0.1]))
            p = reference_point(reg.alpha, m, n, d)
            js = [eval_J(ctx, p)]
            for _ in range(20):
                p, = noisy_pgd(grad, p, eta, np.zeros(1), np.zeros(1), 1, LG.lam,
                               reg.alpha, derive_rng(0), average=False)
                js.append(eval_J(ctx, p))
            assert np.all(np.diff(js) <= 1e-9)

    def test_feasible_output(self):
        budget = PrivacyBudget(0.5, 0.05)
        res = fit_nonconvex(TINY, budget, RegularizerConfig(lambda1=1.0),
                            NonConvexRunConfig(T=50, seed=4), LG)
        assert is_feasible(res.point, LG.lam, 0.5, 1, 1)

    def test_stationarity_improves_with_T(self):
        # light version of the convergence-trend check (the acceptance
        # suite runs the full 20-seed version)
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((8, 2))
        xs /= np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
        xt = rng.standard_normal((8, 2))
        xt /= np.maximum(np.linalg.norm(xt, axis=1, keepdims=True), 1.0)
        data = AdaptDataset(xs, np.sign(rng.standard_normal(8) + 1e-9),
                            xt, np.sign(rng.standard_normal(8) + 1e-9))
        reg = RegularizerConfig(lambda1=0.3)
        norms = []
        for T in (10, 1000):
            vals = []
            for seed in range(5):
                r = derive_rng(seed, "nc-init")
                w0 = r.standard_normal(2)
                w0 *= 0.9 / np.linalg.norm(w0)
                init = FeasiblePoint(w0, np.full(8, 16.0) + r.uniform(0, 3, 8),
                                     np.full(8, 16.0) + r.uniform(0, 3, 8))
                res = fit_nonconvex(data, non_private(), reg,
                                    NonConvexRunConfig(T=T, seed=seed, init=init),
                                    LG)
                vals.append(res.grad_mapping_norm)
            norms.append(np.mean(vals))
        assert norms[1] < norms[0]


class TestRejections:
    def test_bad_T(self):
        with pytest.raises(ValueError):
            fit_nonconvex(TINY, non_private(), RegularizerConfig(),
                          NonConvexRunConfig(T=0), LG)

    def test_infeasible_init(self):
        bad = FeasiblePoint([5.0], [2.0], [2.0])
        with pytest.raises(ValueError):
            fit_nonconvex(TINY, non_private(), RegularizerConfig(),
                          NonConvexRunConfig(T=1, init=bad), LG)


class TestDefaultT:
    def test_hand_example_unit_constants(self):
        # all constants 1, alpha=0.5, n=d=1, delta=2/e:
        # sqrt(1*1)*1*1 / (0.5 * sqrt(ln e) * sqrt(40 + 0.25)) ~ 0.3152 -> 1
        T = default_T_nonconvex(1, 1, 0.5, 1.0, 2.0 / math.e, 1.0, 1.0, 1.0, 1.0)
        assert T == 1

    def test_epsilon_to_zero_floor(self):
        assert default_T_nonconvex(100, 3, 0.5, 1e-9, 0.01, 1.0, 1.0, 1.0, 1.0) == 1

    def test_linear_in_epsilon(self):
        a = default_T_nonconvex(10**4, 3, 0.5, 1.0, 0.01, 1.0, 1.0, 1.0, 1.0)
        b = default_T_nonconvex(10**4, 3, 0.5, 2.0, 0.01, 1.0, 1.0, 1.0, 1.0)
        assert b == pytest.approx(2 * a, rel=1e-3)

    def test_ceiling_and_inf(self):
        assert default_T_nonconvex(10**7, 1, 0.5, 50.0, 0.01,
                                   1.0, 1.0, 1.0, 1.0) == 200_000
        assert default_T_nonconvex(10, 1, 0.5, math.inf, 0.01,
                                   1.0, 1.0, 1.0, 1.0) == 200_000

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            default_T_nonconvex(10, 1, 0.5, 1.0, 1.2, 1.0, 1.0, 1.0, 1.0)
