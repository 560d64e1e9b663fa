import math
import re
import sys

import numpy as np
import pytest

from privadapt.core import (
    AdaptDataset,
    FeasiblePoint,
    LossModel,
    PrivacyBudget,
    RegularizerConfig,
    non_private,
)
from privadapt.convex_objective import ConvexObjectiveContext, eval_F
from privadapt.convex_solver import (
    DEFAULT_T_CEILING,
    ConvexRunConfig,
    column_runs,
    default_T_convex,
    default_step_sizes,
    fit_convex,
)
from privadapt.mechanisms import calibrate, derive_rng

SQ = LossModel("squared", r=1.0, lam=1.0)
TINY = AdaptDataset([[1.0]], [1.0], [[1.0]], [0.0])


class TestSingleStep:
    def test_hand_trace_noiseless(self):
        # 1+1 instance, d_dp=0.5, kappas 0, T=1, init (w=0, u=(2,2)).
        # Gradients: g_w=-1, g_u_pub=-(1+0.5)/4=-0.375, g_u_priv=0.
        # Steps: eta_w = 1/(sqrt(1)*G)=0.25, eta_pub = 1/(0.25*(B+B))=0.5,
        # eta_priv = 1/(0.25*B)=1 -> w=0.25, u_pub=2.1875, u_priv=2.
        reg = RegularizerConfig()
        res = fit_convex(TINY, non_private(), reg, ConvexRunConfig(T=1), SQ,
                         d_dp=0.5)
        assert res.point.w == pytest.approx([0.25])
        assert res.point.u_pub == pytest.approx([2.1875])
        assert res.point.u_priv == pytest.approx([2.0])
        assert res.T_used == 1

    def test_average_excludes_init(self):
        # with T=1 the averaged point is iterate 1, not the midpoint with w0
        res = fit_convex(TINY, non_private(), RegularizerConfig(),
                         ConvexRunConfig(T=1), SQ, d_dp=0.5)
        assert res.point.w[0] != pytest.approx(0.125)


class TestDeterminismAndNoise:
    def test_same_seed_identical(self):
        budget = PrivacyBudget(1.0, 0.05)
        a = fit_convex(TINY, budget, RegularizerConfig(),
                       ConvexRunConfig(T=50, seed=3), SQ, d_dp=0.5)
        b = fit_convex(TINY, budget, RegularizerConfig(),
                       ConvexRunConfig(T=50, seed=3), SQ, d_dp=0.5)
        assert np.array_equal(a.point.as_vector(), b.point.as_vector())
        assert a.objective_value == b.objective_value

    def test_different_seeds_differ(self):
        budget = PrivacyBudget(1.0, 0.05)
        a = fit_convex(TINY, budget, RegularizerConfig(),
                       ConvexRunConfig(T=50, seed=3), SQ, d_dp=0.5)
        b = fit_convex(TINY, budget, RegularizerConfig(),
                       ConvexRunConfig(T=50, seed=4), SQ, d_dp=0.5)
        assert not np.array_equal(a.point.as_vector(), b.point.as_vector())

    def test_u_pub_block_noiseless(self):
        # the public-weight block takes no noise: with huge noise on the
        # other blocks, u_pub still follows the deterministic trajectory
        budget = PrivacyBudget(1e-3, 0.05)  # enormous sigma
        noisy = fit_convex(TINY, budget, RegularizerConfig(),
                           ConvexRunConfig(T=1, seed=0), SQ, d_dp=0.5)
        clean = fit_convex(TINY, non_private(), RegularizerConfig(),
                           ConvexRunConfig(T=1, seed=0),
                           SQ, d_dp=0.5)
        # same first-step u_pub requires the same step size; compare the
        # step directions instead: u_pub moved by +eta_pub * 0.375 in both
        sch_noisy = calibrate(budget, 0.5, SQ.G, SQ.B, 1, 1)
        eta_noisy = default_step_sizes(SQ, RegularizerConfig(), sch_noisy, 1, 1, 1)[1]
        sch_clean = calibrate(non_private(), 0.5, SQ.G, SQ.B, 1, 1)
        eta_clean = default_step_sizes(SQ, RegularizerConfig(), sch_clean, 1, 1, 1)[1]
        assert noisy.point.u_pub[0] - 2.0 == pytest.approx(eta_noisy * 0.375)
        assert clean.point.u_pub[0] - 2.0 == pytest.approx(eta_clean * 0.375)

    def test_u_priv_step_of_a_huge_kappa(self):
        # b_bar = 1e300 once raised OverflowError in a sweep cell: its
        # square passes the float range, the step n^1.5 / (sqrt(T) (1-a)^2
        # b_bar) does not
        sch = calibrate(PrivacyBudget(1.0, 0.05), 0.5, SQ.G, SQ.B, 10, 5)
        etas = default_step_sizes(SQ, RegularizerConfig(kappa1=1e300), sch, 10, 10, 2)
        assert all(0.0 < eta < math.inf for eta in etas)
        assert etas[2] == pytest.approx(10 ** 1.5 / (math.sqrt(5) * 0.25 * 1e300), rel=1e-9)

    def test_privacy_spent_recorded(self):
        budget = PrivacyBudget(2.0, 0.05)
        res = fit_convex(TINY, budget, RegularizerConfig(),
                         ConvexRunConfig(T=5), SQ)
        assert res.privacy_spent == (1.0, 0.05)

    def test_rejects_bad_runs(self):
        with pytest.raises(ValueError):
            fit_convex(TINY, non_private(), RegularizerConfig(),
                       ConvexRunConfig(T=0), SQ)
        bad_init = FeasiblePoint([5.0], [2.0], [2.0])
        with pytest.raises(ValueError):
            fit_convex(TINY, non_private(), RegularizerConfig(),
                       ConvexRunConfig(T=1, init=bad_init), SQ)


def grid_oracle_F(ctx, lam, alpha, w_pts=401, u_pts=81, u_span=10.0):
    """Brute-force minimum of F over the 1+1-sample box, vectorized for the
    d=1, m=n=1 instance with the kappa1 regularizer only."""
    assert ctx.data.m == ctx.data.n == 1 and ctx.data.d == 1
    assert ctx.config.kappa2 == 0 and ctx.config.kappa_inf == 0
    w = np.linspace(-lam, lam, w_pts)[:, None, None]
    up = np.linspace(1 / alpha, 1 / alpha + u_span, u_pts)[None, :, None]
    uv = np.linspace(1 / (1 - alpha), 1 / (1 - alpha) + u_span, u_pts)[None, None, :]
    xs, ys = ctx.data.public_x[0, 0], ctx.data.public_y[0]
    xt, yt = ctx.data.private_x[0, 0], ctx.data.private_y[0]
    F = (((w * xs - ys) ** 2 + ctx.d_dp) / up + (w * xt - yt) ** 2 / uv
         + ctx.config.kappa1 * (alpha ** 2 * up + (1 - alpha) ** 2 * uv - 1.0))
    # spot-check the vectorized formula against eval_F at one grid node
    p = FeasiblePoint([float(w[5, 0, 0])], [float(up[0, 3, 0])], [float(uv[0, 0, 7])])
    assert eval_F(ctx, p) == pytest.approx(float(F[5, 3, 7]))
    return float(F.min())


class TestConvergence:
    def test_noiseless_T1e4_matches_grid_oracle(self):
        reg = RegularizerConfig(kappa1=SQ.B)
        ctx = ConvexObjectiveContext(TINY, 0.5, reg, SQ)
        f_star = grid_oracle_F(ctx, SQ.lam, reg.alpha)
        res = fit_convex(TINY, non_private(), reg, ConvexRunConfig(T=10_000),
                         SQ, d_dp=0.5)
        assert res.objective_value - f_star <= 1e-2
        assert res.objective_value >= f_star - 1e-9

    def test_mean_gap_strictly_decreasing_in_T(self):
        reg = RegularizerConfig(kappa1=SQ.B)
        ctx = ConvexObjectiveContext(TINY, 0.5, reg, SQ)
        f_star = grid_oracle_F(ctx, SQ.lam, reg.alpha)
        gaps = []
        for T in (100, 1000, 10_000):
            vals = []
            for seed in range(20):
                rng = derive_rng(seed, "init")
                init = FeasiblePoint([rng.uniform(-1, 1)],
                                     [2.0 + rng.uniform(0, 5)],
                                     [2.0 + rng.uniform(0, 5)])
                res = fit_convex(TINY, non_private(), reg,
                                 ConvexRunConfig(T=T, init=init), SQ, d_dp=0.5)
                vals.append(res.objective_value - f_star)
            gaps.append(np.mean(vals))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_all_iterates_feasible(self):
        from privadapt.core import is_feasible
        budget = PrivacyBudget(0.5, 0.05)
        res = fit_convex(TINY, budget, RegularizerConfig(kappa1=1.0),
                         ConvexRunConfig(T=200, seed=1), SQ, d_dp=0.5)
        assert is_feasible(res.point, SQ.lam, 0.5, 1, 1)


def opt_budget(eps_opt: float, delta: float) -> PrivacyBudget:
    """The budget whose optimizer share (half, the default split) is eps_opt."""
    return PrivacyBudget(2.0 * eps_opt, delta)


class TestDefaultT:
    def test_hand_example_8000(self):
        # n=100, m=1000, d=5, alpha=0.5, eps=1, delta=1/e, Bbar=B:
        # dominant term n^2 eps^2/(d (1-alpha)^2 * 1) = 10^4/1.25 = 8000
        T = default_T_convex(opt_budget(1.0, 1.0 / math.e), 100, 1000, 5, 0.5, 4.0, 4.0)
        assert T == 8000

    def test_tiny_epsilon_floor(self):
        assert default_T_convex(opt_budget(1e-6, 0.1), 100, 100, 5, 0.5, 4.0, 4.0) == 1

    def test_fourth_term_reduction(self):
        # Bbar=B, m=n: fourth term = eps^2 / log(1/delta)
        T = default_T_convex(opt_budget(2.0, 1.0 / math.e), 10, 10, 1000, 0.5, 4.0, 4.0)
        # first/third terms small, second = 100*4/(1000*0.25)=1.6,
        # fourth = 4 -> ceil(4) = 4
        assert T == 4

    def test_ceiling_and_inf(self):
        # the analytic count is uncapped; column_runs alone caps it at the
        # ceiling, which an epsilon = inf column takes when no column is finite
        def T(budget):
            return default_T_convex(budget, 10**6, 10, 3, 0.5, 4.0, 4.0)
        large, small = opt_budget(100.0, 0.01), opt_budget(1e-5, 0.01)
        assert T(small) < DEFAULT_T_CEILING < T(large)
        assert column_runs(None, [large, non_private()], T) == [DEFAULT_T_CEILING] * 2
        assert column_runs(None, [small, non_private()], T) == [T(small)] * 2
        assert column_runs(None, [non_private()], T) == [DEFAULT_T_CEILING]

    @pytest.mark.parametrize("epsilon", [1e200, 1e308, sys.float_info.max])
    def test_huge_epsilon_takes_the_ceiling(self, epsilon):
        # eps_opt ** 2 passes the float range: the count is inf, not an
        # OverflowError, and column_runs caps it
        def T(budget):
            return default_T_convex(budget, 10_000, 7000, 20, 0.5, 4.0, 8.0)
        budget = PrivacyBudget(epsilon, 0.01)
        assert T(budget) == math.inf
        assert column_runs(None, [budget, non_private()], T) == [DEFAULT_T_CEILING] * 2

    def test_rejects_bad_delta(self):
        # PrivacyBudget alone checks delta, and the analytic count takes a
        # budget: it refuses a non-private one, whose count is the ceiling's
        with pytest.raises(ValueError, match=re.escape("delta must lie in (0, 1)")):
            opt_budget(1.0, 1.5)
        with pytest.raises(ValueError, match="finite epsilon"):
            default_T_convex(non_private(), 10, 10, 3, 0.5, 4.0, 4.0)


@pytest.mark.parametrize("name", ["step_w", "step_u_pub", "step_u_priv"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
def test_run_config_rejects_non_positive_or_non_finite_steps(name, value):
    # the step sizes are default_step_sizes'; the run config takes no
    # override, valid or not (a run with other steps passes eta to noisy_pgd)
    for step in (value, 1e-3):
        with pytest.raises(TypeError, match=name):
            ConvexRunConfig(T=5, **{name: step})
