import numpy as np
import pytest

from privadapt.baselines import (
    KINDS,
    MIXTURE_ALPHA,
    TARGET_ONLY,
    TARGET_ONLY_DP,
    fit_baseline,
    weighted_loss,
)
from privadapt.core import AdaptDataset, LossModel, PrivacyBudget, non_private
from privadapt.mechanisms import derive_rng

SQ = LossModel("squared", r=1.0, lam=1.0)


def test_target_only_realizable_instance():
    # private sample (x=1, y=1) is fit exactly by w=1 (on the ball boundary)
    data = AdaptDataset([[0.5]], [0.0], [[1.0]], [1.0])
    res = fit_baseline(TARGET_ONLY, data, SQ, T=2000)
    loss = float((res.point.w @ [1.0] - 1.0) ** 2)
    assert loss <= 1e-6


@pytest.mark.parametrize("kind", KINDS)
def test_rows_outside_the_loss_radius_rejected(kind):
    # rows of norm 5 against r = 1: the G = 4 of r = 1 does not bound the
    # gradients, so the private fit's (epsilon, delta) would not hold
    data = AdaptDataset([[5.0]], [1.0], [[5.0], [4.0]], [1.0, 0.5])
    with pytest.raises(ValueError, match=r"feature norms exceed the bound r=1\.0"):
        fit_baseline(kind, data, SQ, T=10, budget=PrivacyBudget(1.0, 0.01))


def test_dp_with_infinite_budget_matches_plain():
    data = AdaptDataset([[0.5]], [0.0], [[1.0], [0.3]], [1.0, 0.2])
    # on streams of their own: the noise-free run draws nothing
    a = fit_baseline(TARGET_ONLY, data, SQ, T=100, rng=derive_rng(7, "a"))
    b = fit_baseline(TARGET_ONLY_DP, data, SQ, T=100, budget=non_private(),
                     rng=derive_rng(8, "b"))
    assert np.array_equal(a.point.w, b.point.w)


def test_mixture_alpha_zero_identical_to_target_only():
    data = AdaptDataset([[0.9]], [0.9], [[1.0], [0.3]], [1.0, 0.2])
    a = fit_baseline(TARGET_ONLY, data, SQ, T=500)
    b = fit_baseline(MIXTURE_ALPHA, data, SQ, T=500, alpha=0.0)
    assert np.array_equal(a.point.w, b.point.w)


@pytest.mark.parametrize("alpha", [1.0, 1.5, -0.1, float("nan")])
def test_mixture_alpha_outside_unit_interval_rejected(alpha):
    # alpha = 1 raised ZeroDivisionError; 1.5 gave the private sample a negative weight
    data = AdaptDataset([[0.9]], [0.9], [[1.0], [0.3]], [1.0, 0.2])
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\)"):
        fit_baseline(MIXTURE_ALPHA, data, SQ, T=10, alpha=alpha)


def test_mixture_equals_target_only_on_identical_samples():
    # identical public and private samples: both converge to the same
    # objective value (noiseless, long horizon)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 2))
    x /= np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1.0)
    y = np.clip(x @ [0.4, -0.3], -1, 1)
    data = AdaptDataset(x, y, x, y)
    a = fit_baseline(TARGET_ONLY, data, SQ, T=10_000)
    b = fit_baseline(MIXTURE_ALPHA, data, SQ, T=10_000, alpha=0.5)
    la = weighted_loss(SQ, data, a.point.w, np.zeros(10), np.full(10, 0.1))
    lb = weighted_loss(SQ, data, b.point.w, np.zeros(10), np.full(10, 0.1))
    assert abs(la - lb) <= 1e-4


def test_dp_noise_changes_output_and_budget_required():
    data = AdaptDataset([[0.5]], [0.0], [[1.0]], [1.0])
    with pytest.raises(ValueError):
        fit_baseline(TARGET_ONLY_DP, data, SQ, T=10)
    budget = PrivacyBudget(1.0, 0.05)
    a = fit_baseline(TARGET_ONLY_DP, data, SQ, T=10, budget=budget, rng=derive_rng(1, "dp"))
    b = fit_baseline(TARGET_ONLY, data, SQ, T=10, rng=derive_rng(1, "dp"))
    assert not np.array_equal(a.point.w, b.point.w)
    assert a.privacy_spent == (0.5, 0.05)


def test_determinism():
    data = AdaptDataset([[0.5]], [0.0], [[1.0]], [1.0])
    budget = PrivacyBudget(1.0, 0.05)
    a = fit_baseline(TARGET_ONLY_DP, data, SQ, T=20, budget=budget, rng=derive_rng(3, "dp"))
    b = fit_baseline(TARGET_ONLY_DP, data, SQ, T=20, budget=budget, rng=derive_rng(3, "dp"))
    assert np.array_equal(a.point.w, b.point.w)
    # a missing rng takes one fixed stream
    c = fit_baseline(TARGET_ONLY_DP, data, SQ, T=20, budget=budget)
    d = fit_baseline(TARGET_ONLY_DP, data, SQ, T=20, budget=budget)
    assert np.array_equal(c.point.w, d.point.w)


def test_unknown_kind_rejected():
    data = AdaptDataset([[0.5]], [0.0], [[1.0]], [1.0])
    with pytest.raises(ValueError):
        fit_baseline("km", data, SQ, T=10)
    with pytest.raises(ValueError):
        fit_baseline(TARGET_ONLY, data, SQ, T=0)


def test_output_within_ball():
    rng = derive_rng(0, "ball")
    data = AdaptDataset([[0.5]], [0.0], [[1.0]], [1.0])
    res = fit_baseline(TARGET_ONLY_DP, data, SQ, T=30, budget=PrivacyBudget(0.1, 0.05),
                       rng=rng)
    assert np.linalg.norm(res.point.w) <= SQ.lam + 1e-12


@pytest.mark.parametrize("kind, budget", [(TARGET_ONLY, None),
                                          (TARGET_ONLY_DP, PrivacyBudget(1.0, 0.01))])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5])
def test_target_only_reports_its_own_weight_box(kind, budget, alpha):
    # no weight on the public sample whatever alpha: u_pub = inf, u_priv = n,
    # and the same fit as at the default alpha
    data = AdaptDataset([[0.5], [0.2], [0.1]], [0.0, 0.1, 0.2], [[1.0], [0.3]], [1.0, 0.2])
    res = fit_baseline(kind, data, SQ, T=50, budget=budget, alpha=alpha,
                       rng=derive_rng(1, "box"))
    assert res.point.u_pub.tolist() == [np.inf] * 3
    assert res.point.u_priv.tolist() == [2.0, 2.0]
    ref = fit_baseline(kind, data, SQ, T=50, budget=budget, rng=derive_rng(1, "box"))
    assert np.array_equal(res.point.w, ref.point.w)


@pytest.mark.parametrize("alpha", [0.25, 0.5])
def test_mixture_alpha_reports_the_alpha_box(alpha):
    data = AdaptDataset([[0.5], [0.2], [0.1]], [0.0, 0.1, 0.2], [[1.0], [0.3]], [1.0, 0.2])
    res = fit_baseline(MIXTURE_ALPHA, data, SQ, T=50, alpha=alpha)
    assert res.point.u_pub.tolist() == [3 / alpha] * 3
    assert res.point.u_priv.tolist() == [2 / (1 - alpha)] * 2
