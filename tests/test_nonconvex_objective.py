import math
import warnings

import numpy as np
import pytest

from privadapt.core import (
    AdaptDataset,
    FeasiblePoint,
    LossModel,
    RegularizerConfig,
)
from privadapt.nonconvex_objective import (
    NonConvexContext,
    eval_J,
    grad_J,
    gradient_mapping_norm,
    smoothness_beta_bar,
    softmax_of_reciprocals,
    uniform_bound_M,
)
from tests.test_convex_objective import (
    numeric_grad,
    random_dataset,
    random_feasible_point,
)

LG = LossModel("logistic", r=1.0, lam=1.0)
# 1+1-sample classification instance with labels +1 / -1
TINY = AdaptDataset([[1.0]], [1.0], [[1.0]], [-1.0])


def _ctx(d_dp=0.0, model=LG, data=TINY, **kw):
    return NonConvexContext(data, d_dp, RegularizerConfig(**kw), model)


class TestEvalJ:
    def test_hand_value_plain(self):
        # logistic at w=0 is ln 2 for both points; u=(2,2) -> ln2/2 + ln2/2
        p = FeasiblePoint([0.0], [2.0], [2.0])
        assert eval_J(_ctx(), p) == pytest.approx(math.log(2.0))

    def test_lambda_inf_hand_value(self):
        # zero-loss data, lambda_inf only, u=(2,2), mu=1:
        # (1/1) log(2 e^{1/2}) = 0.5 + ln 2
        data = AdaptDataset([[0.0]], [1.0], [[0.0]], [-1.0])
        model = LossModel("squared", r=1.0, lam=1.0)
        # squared loss at w with x=0: (0 - y)^2 = 1 for both... use w-free check
        cfg = RegularizerConfig(lambda_inf=1.0, mu=1.0)
        ctx = NonConvexContext(data, 0.0, cfg, model)
        p = FeasiblePoint([0.0], [2.0], [2.0])
        loss_part = (1.0 / 2.0) + (1.0 / 2.0)
        assert eval_J(ctx, p) == pytest.approx(loss_part + 0.5 + math.log(2.0))

    def test_lambda1_vanishes_at_lower_bounds(self):
        p = FeasiblePoint([0.0], [2.0], [2.0])  # m/alpha = n/(1-alpha) = 2
        with_l1 = eval_J(_ctx(lambda1=3.0), p)
        without = eval_J(_ctx(), p)
        assert with_l1 == pytest.approx(without)

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            eval_J(_ctx(), FeasiblePoint([0.0], [1.0], [2.0]))


class TestSoftmax:
    def test_sandwich_fuzz(self):
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            m, n = rng.integers(1, 10), rng.integers(1, 10)
            mu = rng.uniform(0.1, 20)
            u = np.concatenate([m / 0.5 + rng.uniform(0, 50, m),
                                n / 0.5 + rng.uniform(0, 50, n)])
            sm = softmax_of_reciprocals(u, mu)
            gap = sm - (1.0 / u).max()
            assert -1e-12 <= gap <= math.log(m + n) / mu + 1e-12

    def test_overflow_safe(self):
        u = np.full(4, 2.0)
        assert math.isfinite(softmax_of_reciprocals(u, 1e6))

    def test_overflow_safe_in_eval(self):
        ctx = _ctx(lambda_inf=1.0, mu=1e6)
        p = FeasiblePoint([0.0], [2.0], [2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert math.isfinite(eval_J(ctx, p))


@pytest.mark.parametrize("mu, match", [(None, "imbalance"), (100.0, "mu exceeds")])
def test_context_warnings_point_at_caller(mu, match):
    # m = 1, n = 2 breaks n <= m^3; mu = 100 exceeds (m + n)^(2/3)
    data = AdaptDataset([[0.5]], [1.0], [[0.5], [0.2]], [1.0, -1.0])
    with pytest.warns(UserWarning, match=match) as record:
        NonConvexContext(data, 0.0, RegularizerConfig(mu=mu), LG)
    assert {w.filename for w in record} == {__file__}


class TestGradJ:
    def test_softmax_weights_symmetric_point(self):
        # equal u -> softmax weights 1/2 each; softmax-term gradient entry
        # is -lambda_inf * (1/2) / u^2 = -lambda_inf / 8 at u=2
        li = 0.7
        data = AdaptDataset([[0.0]], [1.0], [[0.0]], [-1.0])
        model = LossModel("squared", r=1.0, lam=1.0)
        cfg = RegularizerConfig(lambda_inf=li, mu=1.0)
        ctx = NonConvexContext(data, 0.0, cfg, model)
        p = FeasiblePoint([0.0], [2.0], [2.0])
        _, g_pub, g_priv = grad_J(ctx, p)
        # loss part: -(0-y)^2/u^2 = -1/4 for both rows
        assert g_pub == pytest.approx([-0.25 - li / 8.0])
        assert g_priv == pytest.approx([-0.25 - li / 8.0])

    def test_zero_loss_flat(self):
        data = AdaptDataset([[1.0]], [1.0], [[1.0]], [1.0])
        model = LossModel("squared", r=1.0, lam=1.0)
        ctx = NonConvexContext(data, 0.0, RegularizerConfig(), model)
        p = FeasiblePoint([1.0], [3.0], [5.0])
        g = np.concatenate(grad_J(ctx, p))
        assert np.allclose(g, 0.0)

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(31)
        model = LossModel(kind, r=1.0, lam=1.0)
        for _ in range(200):
            m, n, d = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 4)
            data = random_dataset(rng, m, n, d, model)
            if kind == "logistic":
                data = AdaptDataset(data.public_x, np.sign(data.public_y + 1e-9),
                                    data.private_x, np.sign(data.private_y + 1e-9))
            cfg = RegularizerConfig(alpha=rng.uniform(0.2, 0.8),
                                    lambda1=rng.uniform(0, 2),
                                    lambda2=rng.uniform(0, 2),
                                    lambda_inf=rng.uniform(0, 2),
                                    mu=rng.uniform(0.5, 3.0))
            ctx = NonConvexContext(data, rng.uniform(0, model.B), cfg, model)
            p = random_feasible_point(rng, model, cfg.alpha, m, n, d)
            if np.linalg.norm(p.w) > model.lam - 1e-3:
                continue
            g = np.concatenate(grad_J(ctx, p))

            def f(v):
                return eval_J(ctx, FeasiblePoint.from_vector(v, d, m, n))

            fd = numeric_grad(f, p.as_vector())
            assert np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-8) <= 1e-5


class TestBetaBar:
    def test_plain_lambda_zero(self):
        # with all lambdas zero the only surviving u-curvature terms are the
        # data-driven ones, 2 a^3 * 2B / m^2.5 and 2 (1-a)^3 * B / n^2.5
        ctx = _ctx()
        a = 0.5
        beta_prime = 2 * a**3 * 2 * LG.B + 2 * a**3 * LG.B  # m = n = 1
        expected = LG.beta + beta_prime + LG.G * (a**2 + a**2)
        assert smoothness_beta_bar(ctx) == pytest.approx(expected)

    def test_large_samples_approach_beta(self):
        rng = np.random.default_rng(2)
        big = random_dataset(rng, 400, 400, 1, LG)
        big = AdaptDataset(big.public_x, np.sign(big.public_y + 1e-9),
                           big.private_x, np.sign(big.private_y + 1e-9))
        ctx = NonConvexContext(big, 0.0, RegularizerConfig(lambda1=1.0, lambda2=1.0,
                                                           lambda_inf=1.0), LG)
        assert smoothness_beta_bar(ctx) == pytest.approx(LG.beta, abs=0.01)

    def test_term_by_term_m4(self):
        # m=n=4, alpha=0.5, lambda2=1, others 0, logistic r=1 (B=1, beta=.25, G=1)
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 4, 4, 1, LG)
        data = AdaptDataset(data.public_x, np.sign(data.public_y + 1e-9),
                            data.private_x, np.sign(data.private_y + 1e-9))
        cfg = RegularizerConfig(lambda2=1.0)
        ctx = NonConvexContext(data, 0.0, cfg, LG)
        a = 0.5
        beta_prime = (a**3 / 16 + 2 * a**3 * (abs(2 * 1 - 0) + math.sqrt(4)) / 32
                      + a**3 / 16 + 2 * a**3 * (abs(1 - 0) + math.sqrt(4)) / 32)
        expected = 0.25 + beta_prime + 1.0 * (a**2 / 8 + a**2 / 8)
        assert smoothness_beta_bar(ctx) == pytest.approx(expected)

    def test_empirical_smoothness_fuzz(self):
        rng = np.random.default_rng(13)
        violations = 0
        for _ in range(2000):
            m, n, d = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 3))
            if n > m ** 3 or m > n ** 3:
                continue
            model = LossModel("logistic", r=1.0, lam=1.0)
            data = random_dataset(rng, m, n, d, model)
            data = AdaptDataset(data.public_x, np.sign(data.public_y + 1e-9),
                                data.private_x, np.sign(data.private_y + 1e-9))
            cfg = RegularizerConfig(alpha=rng.uniform(0.3, 0.7),
                                    lambda1=rng.uniform(0, 1),
                                    lambda2=rng.uniform(0, 1),
                                    lambda_inf=rng.uniform(0, 1))
            ctx = NonConvexContext(data, rng.uniform(0, model.B), cfg, model)
            bb = smoothness_beta_bar(ctx)
            p1 = random_feasible_point(rng, model, cfg.alpha, m, n, d)
            p2 = random_feasible_point(rng, model, cfg.alpha, m, n, d)
            lhs = np.linalg.norm(np.concatenate(grad_J(ctx, p1))
                                 - np.concatenate(grad_J(ctx, p2)))
            rhs = bb * np.linalg.norm(p1.as_vector() - p2.as_vector())
            if lhs > rhs + 1e-9:
                violations += 1
        assert violations == 0


class TestUniformBoundM:
    def test_formula(self):
        ctx = _ctx(lambda1=1.0, lambda2=2.0, lambda_inf=3.0)
        m = n = 1
        expected = 2 * LG.B + 1.0 + 2.0 * (0.5 + 0.5) + 3.0 * max(0.5, 0.5)
        assert uniform_bound_M(ctx) == pytest.approx(expected)

    def test_bounds_J_empirically(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            m, n, d = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 3)
            model = LossModel("logistic", r=1.0, lam=1.0)
            data = random_dataset(rng, m, n, d, model)
            data = AdaptDataset(data.public_x, np.sign(data.public_y + 1e-9),
                                data.private_x, np.sign(data.private_y + 1e-9))
            cfg = RegularizerConfig(lambda1=rng.uniform(0, 1),
                                    lambda2=rng.uniform(0, 1),
                                    lambda_inf=rng.uniform(0, 1))
            ctx = NonConvexContext(data, rng.uniform(0, model.B), cfg, model)
            p = random_feasible_point(rng, model, 0.5, m, n, d)
            # B = G*lam understates the logistic maximum by ln 2; allow it
            assert abs(eval_J(ctx, p)) <= uniform_bound_M(ctx) + math.log(2.0)


class TestGradientMapping:
    def test_zero_at_stationary_interior(self):
        data = AdaptDataset([[1.0]], [1.0], [[1.0]], [1.0])
        model = LossModel("squared", r=1.0, lam=1.0)
        ctx = NonConvexContext(data, 0.0, RegularizerConfig(), model)
        p = FeasiblePoint([1.0], [3.0], [3.0])
        assert gradient_mapping_norm(ctx, p, 1.0) == pytest.approx(0.0)

    def test_equals_grad_norm_when_step_feasible(self):
        p = FeasiblePoint([0.0], [4.0], [4.0])
        ctx = _ctx()
        gamma = 100.0  # small step keeps the point interior
        g = np.concatenate(grad_J(ctx, p))
        assert gradient_mapping_norm(ctx, p, gamma) == pytest.approx(
            float(np.linalg.norm(g)))

    def test_clipped_at_lower_bound(self):
        # u at the lower bound with a positive u-gradient: that component
        # of the mapping is zero because the projection clips back
        li = 0.0
        data = AdaptDataset([[1.0]], [1.0], [[1.0]], [1.0])
        model = LossModel("squared", r=1.0, lam=1.0)
        ctx = NonConvexContext(data, 0.0, RegularizerConfig(lambda1=5.0), model)
        p = FeasiblePoint([1.0], [2.0], [2.0])  # zero loss, lambda1 pushes u down
        g_w, g_pub, g_priv = grad_J(ctx, p)
        assert g_pub[0] > 0  # pushes u below the bound
        assert gradient_mapping_norm(ctx, p, 1.0) == pytest.approx(0.0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            gradient_mapping_norm(_ctx(), FeasiblePoint([0.0], [2.0], [2.0]), 0.0)


def test_warnings_on_precondition_violations():
    with pytest.warns(UserWarning):
        _ctx(mu=100.0)  # mu > (m+n)^(2/3) = 2^(2/3)
    rng = np.random.default_rng(1)
    data = random_dataset(rng, 1, 2, 1, LG)
    data = AdaptDataset(data.public_x, np.sign(data.public_y + 1e-9),
                        data.private_x, np.sign(data.private_y + 1e-9))
    with pytest.warns(UserWarning):
        NonConvexContext(data, 0.0, RegularizerConfig(), LG)  # n > m^3
