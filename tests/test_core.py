import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privadapt.core import (
    AdaptDataset,
    FeasiblePoint,
    LossModel,
    PrivacyBudget,
    RegularizerConfig,
    is_feasible,
    loss_grads,
    loss_values,
    non_private,
    reference_point,
    row_norms,
)
from tests.test_convex_objective import point_from_vector

SQ = LossModel("squared", r=1.0, lam=1.0)
LG = LossModel("logistic", r=1.0, lam=1.0)


def loss_value(model, w, x, y):
    """The loss of one example (x, y)."""
    return float(loss_values(model, w, np.atleast_2d(np.asarray(x, dtype=float)), [y])[0])


def loss_grad_w(model, w, x, y):
    """The loss gradient in w of one example (x, y)."""
    return loss_grads(model, w, np.atleast_2d(np.asarray(x, dtype=float)), [y])[0]


class TestDataset:
    def test_shapes_and_counts(self):
        data = AdaptDataset([[1.0, 0.0]], [0.5], [[0.0, 1.0], [0.5, 0.5]], [0.0, 1.0])
        assert (data.m, data.n, data.d) == (1, 2, 2)

    def test_one_dim_features_promoted(self):
        data = AdaptDataset([1.0, 0.5], [0.0, 0.0], [0.25], [1.0])
        assert data.d == 1 and data.m == 2

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            AdaptDataset([[1.0]], [3.0], [[1.0]], [0.0])

    @pytest.mark.parametrize("where, value", [
        ("public_x", math.nan), ("private_y", math.nan),
        ("private_x", math.inf), ("public_y", -math.inf)])
    def test_rejects_non_finite(self, where, value):
        arrays = {"public_x": [[1.0]], "public_y": [0.5],
                  "private_x": [[0.5]], "private_y": [0.0]}
        arrays[where] = [[value]] if where.endswith("_x") else [value]
        with pytest.raises(ValueError, match="finite"):
            AdaptDataset(**arrays)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            AdaptDataset([[1.0, 0.0]], [0.0], [[1.0]], [0.0])

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            AdaptDataset(np.empty((0, 2)), [], [[1.0, 0.0]], [0.0])

    def test_feature_bound_check(self):
        data = AdaptDataset([[2.0]], [0.0], [[1.0]], [0.0])
        assert data.max_feature_norm() == 2.0
        with pytest.raises(ValueError):
            data.check_feature_bound(1.0)
        data.check_feature_bound(2.0)
        # the slack is relative: rows scaled to r = 5.6e16 once read about 5
        # over it and failed their sweep cell, and r = 1e-50 took rows 1e41
        # times over it
        AdaptDataset([[5.6e16 * (1 + 4e-16)]], [0.0], [[1.0]], [0.0]).check_feature_bound(5.6e16)
        with pytest.raises(ValueError):
            AdaptDataset([[1e-9]], [0.0], [[1e-9]], [0.0]).check_feature_bound(1e-50)


class TestLossModel:
    def test_constants_squared_unit(self):
        B, G, beta = SQ.B, SQ.G, SQ.beta
        assert B == 4.0 and G == 4.0

    def test_constants_logistic_unit(self):
        B, G, beta = LG.B, LG.G, LG.beta
        assert G == 1.0 and beta == 0.25 and B == 1.0

    def test_constants_squared_substitution(self):
        model = LossModel("squared", r=0.5, lam=2.0)
        assert model.B == 4.0 and model.G == 2.0

    def test_rejects_bad_kind_and_params(self):
        with pytest.raises(ValueError):
            LossModel("hinge", 1.0, 1.0)
        with pytest.raises(ValueError):
            LossModel("squared", 0.0, 1.0)
        with pytest.raises(ValueError):
            LossModel("squared", 1.0, -1.0)

    @pytest.mark.parametrize("field", ["r", "lam"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_and_negative(self, field, value):
        # lam = inf once gave NaN weights from fit-convex with exit code 0
        with pytest.raises(ValueError, match="positive and finite"):
            LossModel("squared", **{"r": 1.0, "lam": 1.0} | {field: value})

    @pytest.mark.parametrize("kind", ["squared", "logistic"])
    @pytest.mark.parametrize("r, lam", [(1e200, 1.0), (1e200, 1e-200), (1e-200, 1.0),
                                        (1.0, 1e300)])
    def test_rejects_constants_whose_squares_leave_the_float_range(self, kind, r, lam):
        # the step sizes square G (and the analytic T, B): at r = 1e200 a
        # sweep cell failed with OverflowError, at r = 1e-200 with a
        # division by zero
        with pytest.raises(ValueError, match="outside the float range"):
            LossModel(kind, r, lam)


class TestLossValues:
    def test_squared_zero_residual(self):
        assert loss_value(SQ, [1.0], [1.0], 1.0) == 0.0

    def test_squared_unit_residual(self):
        assert loss_value(SQ, [0.0], [1.0], 1.0) == 1.0

    def test_logistic_at_zero(self):
        assert loss_value(LG, [0.0], [1.0], 1.0) == pytest.approx(math.log(2.0))

    def test_grad_squared(self):
        assert loss_grad_w(SQ, [0.0], [1.0], 1.0) == pytest.approx([-2.0])

    def test_grad_squared_zero_residual(self):
        assert loss_grad_w(SQ, [1.0], [1.0], 1.0) == pytest.approx([0.0])

    def test_grad_logistic(self):
        assert loss_grad_w(LG, [0.0], [1.0], 1.0) == pytest.approx([-0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loss_value(SQ, [0.0, 1.0], [1.0], 1.0)

    def test_logistic_no_overflow(self):
        big = LossModel("logistic", r=1e6, lam=1.0)
        v = loss_value(big, [1.0], [1e6], -1.0)
        assert math.isfinite(v)


def _random_feasible(rng, model, d=3):
    w = rng.standard_normal(d)
    w *= model.lam * rng.random() / max(np.linalg.norm(w), 1e-12)
    x = rng.standard_normal(d)
    x *= model.r * rng.random() / max(np.linalg.norm(x), 1e-12)
    y = rng.uniform(-1, 1)
    if model.kind == "logistic":
        y = 1.0 if y >= 0 else -1.0
    return w, x, y


@pytest.mark.parametrize("model", [SQ, LG], ids=["squared", "logistic"])
def test_bounds_hold_on_random_points(model):
    # B is a true uniform bound for the squared loss; for the logistic loss
    # the B = G*lam convention understates the maximum log(1+e^{r*lam}) by
    # up to ln 2, so the valid uniform bound is B + ln 2.
    slack = math.log(2.0) if model.kind == "logistic" else 0.0
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        w, x, y = _random_feasible(rng, model)
        assert loss_value(model, w, x, y) <= model.B + slack + 1e-12
        assert np.linalg.norm(loss_grad_w(model, w, x, y)) <= model.G + 1e-12


@pytest.mark.parametrize("model", [SQ, LG], ids=["squared", "logistic"])
def test_grad_matches_finite_differences(model):
    rng = np.random.default_rng(5)
    for _ in range(200):
        w, x, y = _random_feasible(rng, model)
        g = loss_grad_w(model, w, x, y)
        h = 1e-5 * (1.0 + np.linalg.norm(w))
        fd = np.zeros_like(w)
        for j in range(len(w)):
            e = np.zeros_like(w)
            e[j] = h
            fd[j] = (loss_value(model, w + e, x, y)
                     - loss_value(model, w - e, x, y)) / (2 * h)
        denom = max(np.linalg.norm(g), 1e-8)
        assert np.linalg.norm(g - fd) / denom <= 1e-6


@pytest.mark.parametrize("model", [SQ, LG], ids=["squared", "logistic"])
def test_lipschitz_in_w(model):
    rng = np.random.default_rng(7)
    for _ in range(2000):
        w1, x, y = _random_feasible(rng, model)
        w2, _, _ = _random_feasible(rng, model)
        gap = abs(loss_value(model, w1, x, y) - loss_value(model, w2, x, y))
        assert gap <= model.G * np.linalg.norm(w1 - w2) + 1e-10


class TestBudget:
    def test_split(self):
        b = PrivacyBudget(2.0, 0.1)
        assert b.epsilon_disc == 1.0 and b.epsilon_opt == 1.0
        assert b.epsilon_disc + b.epsilon_opt == b.epsilon_total

    def test_custom_fraction(self):
        b = PrivacyBudget(10.0, 0.1, disc_fraction=0.2)
        assert b.epsilon_disc == pytest.approx(2.0)
        assert b.epsilon_opt == pytest.approx(8.0)

    def test_non_private(self):
        b = non_private()
        assert math.isinf(b.epsilon_disc) and math.isinf(b.epsilon_opt)
        assert not b.is_private

    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyBudget(-1.0, 0.1)
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, 1.5)
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, 0.1, disc_fraction=1.0)

    @pytest.mark.parametrize("args, match", [
        ((1e-101, 0.01), "epsilon must be at least 1e-100 or inf, got 1e-101"),
        ((1.5e-100, 0.01, 0.5), "disc_fraction=0.5 leaves a part of epsilon=1.5e-100 below"),
        ((1.0, 0.01, 1e-300), "disc_fraction=1e-300 leaves a part"),
        ((1e-90, 0.01, 1.0 - 1e-16), "leaves a part"),
        ((1.0, 2.2250738585e-313), "delta must be at least 1e-100, got 2.2250738585e-313")])
    def test_rejects_settings_below_the_floor(self, args, match):
        # the noise levels scale as 1/epsilon and sqrt(ln(1/delta)): at
        # epsilon = 5e-324 a sweep cell failed ("epsilon_disc must be
        # positive") as its half rounded to 0, and at delta = 2.2e-313 a
        # sweep wrote NaN records
        with pytest.raises(ValueError, match=match):
            PrivacyBudget(*args)

    @pytest.mark.parametrize("epsilon", [math.nan, -math.inf, -1.0, 0.0])
    def test_rejects_epsilon_that_is_not_positive(self, epsilon):
        # a NaN epsilon was accepted, and fit_convex then returned NaN weights
        with pytest.raises(ValueError, match="epsilon must be positive or inf"):
            PrivacyBudget(epsilon, 0.01)
        assert PrivacyBudget(math.inf, 0.01).epsilon_total == math.inf


class TestRegularizerConfig:
    def test_b_bar(self):
        cfg = RegularizerConfig(kappa1=1.0, kappa2=1.0, kappa_inf=1.0)
        assert cfg.b_bar(4.0) == 7.0

    def test_mu_default(self):
        cfg = RegularizerConfig()
        assert cfg.softmax_mu(3, 6) == pytest.approx(3.0)
        assert RegularizerConfig(mu=2.0).softmax_mu(3, 6) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RegularizerConfig(alpha=0.0)
        # the public u-step divides by alpha's square
        with pytest.raises(ValueError, match=r"alpha must lie in \[1e-100, 1\)"):
            RegularizerConfig(alpha=1e-101)
        with pytest.raises(ValueError):
            RegularizerConfig(kappa1=-1.0)

    @pytest.mark.parametrize("field", ["kappa1", "kappa2", "kappa_inf", "lambda1", "lambda2",
                                       "lambda_inf", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_and_negative(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .* and finite"):
            RegularizerConfig(**{field: value})


class TestFeasibility:
    def test_reference_point_is_feasible(self):
        p = reference_point(0.5, 3, 4, 2)
        assert is_feasible(p, 1.0, 0.5, 3, 4)
        assert p.u_pub == pytest.approx(np.full(3, 6.0))
        assert p.u_priv == pytest.approx(np.full(4, 8.0))

    def test_vector_round_trip(self):
        p = FeasiblePoint([0.1, -0.2], [6.0, 7.0], [8.0])
        q = point_from_vector(p.as_vector(), 2, 2, 1)
        assert q.w == pytest.approx(p.w)
        assert q.u_pub == pytest.approx(p.u_pub)
        assert q.u_priv == pytest.approx(p.u_priv)

    def test_infeasible_detected(self):
        p = FeasiblePoint([2.0], [6.0], [8.0])
        assert not is_feasible(p, 1.0, 0.5, 1, 1)
        p2 = FeasiblePoint([0.0], [1.0], [8.0])
        assert not is_feasible(p2, 1.0, 0.5, 1, 1)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.1, 5.0), st.floats(0.1, 5.0))
def test_constants_formulas_hypothesis(r, lam):
    sq = LossModel("squared", r=r, lam=lam)
    lg = LossModel("logistic", r=r, lam=lam)
    assert sq.B == pytest.approx((lam * r + 1) ** 2)
    assert sq.G == pytest.approx(2 * r * (lam * r + 1))
    assert lg.G == r and lg.beta == pytest.approx(r * r / 4)
    assert lg.B == pytest.approx(r * lam)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=3), min_size=1,
                     max_size=6),
       exponent=st.sampled_from([0, -160, -300, -320, 150, 300]))
def test_row_norms_of_tiny_and_huge_rows(rows, exponent):
    # a row whose squares sum outside the normal range is rescaled, so its
    # norm is right to a few ulps; every other row keeps the plain formula's
    # bits, in either layout
    with np.errstate(over="ignore"):
        x = np.array(rows) * 10.0 ** exponent
    x[~np.isfinite(x)] = 1.0
    got = row_norms(x)
    assert got.tobytes() == row_norms(np.asfortranarray(x)).tobytes()
    with np.errstate(over="ignore"):
        sq = np.add.reduce(x * x, axis=1)
    normal = (sq >= np.finfo(float).tiny) & (sq < np.inf)
    plain = np.sqrt(sq)
    assert got[normal].tobytes() == plain[normal].tobytes()
    top = np.abs(x).max(axis=1)
    scaled = x / np.where(top > 0, top, 1.0)[:, None]
    want = top * np.sqrt((scaled * scaled).sum(axis=1))
    np.testing.assert_allclose(got, want, rtol=1e-15)
    assert ((got > 0) == (top > 0)).all()
