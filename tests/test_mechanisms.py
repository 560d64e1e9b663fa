import math
import re

import numpy as np
import pytest
from scipy import stats

from privadapt import cli
from privadapt.core import PrivacyBudget, non_private
from privadapt.mechanisms import (
    NoiseSchedule,
    calibrate,
    derive_rng,
    gaussian_vector,
    laplace_sample,
    privatize_discrepancy,
)
from tests.test_harness import small_spec


class TestDeriveRng:
    def test_same_key_same_stream(self):
        a = derive_rng(42, "stage", 3).standard_normal(10)
        b = derive_rng(42, "stage", 3).standard_normal(10)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = derive_rng(42, "stage", 3).standard_normal(10)
        b = derive_rng(42, "stage", 4).standard_normal(10)
        c = derive_rng(43, "stage", 3).standard_normal(10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestLaplace:
    def test_moments(self):
        rng = derive_rng(0, "lap")
        x = np.array([laplace_sample(1.0, rng) for _ in range(10**6)])
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 2.0) / 2.0 < 0.05

    def test_determinism(self):
        a = [laplace_sample(0.5, derive_rng(9, "l"))]
        b = [laplace_sample(0.5, derive_rng(9, "l"))]
        assert a == b

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            laplace_sample(0.0, derive_rng(0))

    def test_ks(self):
        rng = derive_rng(1, "ks-lap")
        x = np.array([laplace_sample(1.0, rng) for _ in range(10**5)])
        assert stats.kstest(x, stats.laplace(scale=1.0).cdf).pvalue > 1e-3


class TestGaussian:
    def test_zero_sigma(self):
        rng = derive_rng(0, "g")
        state_before = rng.bit_generator.state
        v = gaussian_vector(3, 0.0, rng)
        assert np.array_equal(v, np.zeros(3))
        assert rng.bit_generator.state == state_before  # no draws consumed

    def test_shape(self):
        assert gaussian_vector(5, 1.0, derive_rng(0)).shape == (5,)

    def test_variance(self):
        rng = derive_rng(3, "gv")
        x = np.concatenate([gaussian_vector(1000, 2.0, rng) for _ in range(1000)])
        assert abs(x.var() - 4.0) / 4.0 < 0.05

    def test_ks(self):
        rng = derive_rng(4, "ks-gauss")
        x = np.concatenate([gaussian_vector(10**5, 1.5, rng)])
        assert stats.kstest(x, stats.norm(scale=1.5).cdf).pvalue > 1e-3

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gaussian_vector(0, 1.0, derive_rng(0))
        with pytest.raises(ValueError):
            gaussian_vector(3, -1.0, derive_rng(0))


class TestCalibrate:
    def test_hand_computed_example(self):
        # alpha=0.5, G=1, B=1, n=100, T=4, eps_opt=2, delta=3/e:
        # s1 = 2*0.5*1/100 = 0.01, sigma1 = 2*0.01*sqrt(4*1)/2 = 0.02
        # s2 = 0.25*1/10^4 = 2.5e-5, sigma2 = 2*2.5e-5*2/2 = 5e-5
        # delta = 3/e makes ln(3/delta) = 1; it is outside the (0,1) range
        # PrivacyBudget enforces, so substitute a bare stand-in
        class Budget:
            delta = 3.0 / math.e
            epsilon_opt = 2.0
        sch = calibrate(Budget(), 0.5, G=1.0, B=1.0, n=100, T=4)
        assert sch.s1 == pytest.approx(0.01)
        assert sch.sigma1 == pytest.approx(0.02)
        assert sch.s2 == pytest.approx(2.5e-5)
        assert sch.sigma2 == pytest.approx(5e-5)

    def test_infinite_budget_zero_noise(self):
        sch = calibrate(non_private(), 0.5, 1.0, 1.0, 100, 4)
        assert sch.sigma1 == 0.0 and sch.sigma2 == 0.0

    def test_doubling_T_scales_by_sqrt2(self):
        budget = PrivacyBudget(2.0, 0.1)
        a = calibrate(budget, 0.5, 1.0, 1.0, 100, 10)
        b = calibrate(budget, 0.5, 1.0, 1.0, 100, 20)
        assert b.sigma1 == pytest.approx(math.sqrt(2.0) * a.sigma1)
        assert b.sigma2 == pytest.approx(math.sqrt(2.0) * a.sigma2)

    def test_rejects_bad_T(self):
        with pytest.raises(ValueError):
            calibrate(PrivacyBudget(1.0, 0.99), 0.5, 1.0, 1.0, 10, 0)

    @pytest.mark.parametrize("alpha", [1.0, -0.1, math.nan])
    def test_rejects_alpha_outside_open_interval(self, alpha):
        # alpha = 1 would leave no weight on the private sample
        with pytest.raises(ValueError, match=re.escape("alpha must lie in [0, 1)")):
            calibrate(PrivacyBudget(1.0, 0.1), alpha, 1.0, 1.0, 10, 4)

    def test_alpha_zero_puts_all_weight_on_the_target(self):
        # the target-only DP baseline's case: s1 = 2G/n, s2 = B/n^2; G=1,
        # B=3, n=10, T=1, eps_opt=2 and delta=3e^-4 (ln(3/delta) = 4) give
        # the scale 2*sqrt(4)/2 = 2
        sch = calibrate(PrivacyBudget(4.0, 3.0 * math.exp(-4.0)), 0.0, 1.0, 3.0, 10, 1)
        assert (sch.s1, sch.s2) == pytest.approx((0.2, 0.03), rel=1e-15)
        assert (sch.sigma1, sch.sigma2) == pytest.approx((0.4, 0.06), rel=1e-12)


class TestPrivatizeDiscrepancy:
    def test_clamps_to_interval(self):
        rng = derive_rng(0, "pd")
        for _ in range(200):
            out = privatize_discrepancy(3.9, 4.0, 0.5, 5, rng)
            assert 0.0 <= out <= 4.0

    def test_infinite_budget_identity(self):
        assert privatize_discrepancy(1.3, 4.0, math.inf, 10, derive_rng(0)) == 1.3

    def test_infinite_budget_leaves_the_stream_as_a_finite_one(self):
        # so every sweep cell's noise stream stands in one state after its release
        finite, infinite = derive_rng(3, "pd"), derive_rng(3, "pd")
        privatize_discrepancy(1.3, 4.0, 0.5, 10, finite)
        privatize_discrepancy(1.3, 4.0, math.inf, 10, infinite)
        assert infinite.bit_generator.state == finite.bit_generator.state

    def test_laplace_scale(self):
        # B=4, eps=1, n=100 -> scale 0.08; check empirically via variance
        rng = derive_rng(5, "scale")
        draws = np.array([privatize_discrepancy(2.0, 4.0, 1.0, 100, rng)
                          for _ in range(10**5)])
        # far from the clamp boundaries, so variance ~ 2 * 0.08^2
        assert abs(draws.var() - 2 * 0.08**2) / (2 * 0.08**2) < 0.05

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            privatize_discrepancy(5.0, 4.0, 1.0, 10, derive_rng(0))
        with pytest.raises(ValueError):
            privatize_discrepancy(-0.1, 4.0, 1.0, 10, derive_rng(0))

    @pytest.mark.parametrize("epsilon_disc", [-math.inf, math.nan, -1.0, 0.0])
    def test_rejects_epsilon_that_is_not_positive(self, epsilon_disc):
        # -inf once returned d_hat without noise, and NaN a NaN release
        with pytest.raises(ValueError, match="epsilon_disc must be positive"):
            privatize_discrepancy(1.0, 4.0, epsilon_disc, 10, derive_rng(0))


def test_noise_schedule_fields():
    sch = NoiseSchedule(0.1, 0.2, 0.3, 0.4, 5)
    assert (sch.sigma1, sch.sigma2, sch.s1, sch.s2, sch.T) == (0.1, 0.2, 0.3, 0.4, 5)


@pytest.mark.parametrize("delta", [0.0, -0.1, 1.0, 2.5, math.nan])
def test_delta_outside_unit_interval_is_rejected_at_every_entry(delta, tmp_path, capsys):
    # PrivacyBudget owns the rule; a sweep spec and the fit commands check
    # their delta with it, and calibrate and the analytic step counts take
    # theirs from a budget
    message = re.escape("delta must lie in (0, 1)")
    with pytest.raises(ValueError, match=message):
        PrivacyBudget(1.0, delta)
    with pytest.raises(ValueError, match=message):
        small_spec(delta=delta)
    for command in ("fit-convex", "fit-nonconvex"):  # before the CSV, which is missing
        assert cli.main([command, "--data", str(tmp_path / "missing.csv"), "--epsilon", "1",
                         f"--delta={delta}"]) == 2
        assert capsys.readouterr().err == "privadapt: error: delta must lie in (0, 1)\n"
