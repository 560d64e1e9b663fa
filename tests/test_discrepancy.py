import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import linalg, optimize

from privadapt.core import AdaptDataset, LossModel
from privadapt.discrepancy import (
    _candidate_grid,
    _gap_quadratic,
    _quadratic_gaps,
    discrepancy_dca,
    discrepancy_grid,
    loss_gap,
)
from privadapt.data_io import SyntheticShiftSpec, generate_synthetic
from privadapt.mechanisms import derive_rng
from tests.test_convex_objective import random_dataset

SQ = LossModel("squared", r=1.0, lam=1.0)
# public (x=1, y=1), private (x=1, y=0): gap(w) = w^2 - (w-1)^2 = 2w - 1,
# max |2w - 1| over [-1, 1] is 3 at w = -1
TINY = AdaptDataset([[1.0]], [1.0], [[1.0]], [0.0])


class TestGrid:
    def test_one_dim_hand_instance(self):
        est = discrepancy_grid(TINY, SQ, grid_points=2001)
        assert est.d_hat == pytest.approx(3.0, abs=1e-6)
        assert est.witness_w == pytest.approx([-1.0], abs=1e-6)

    def test_identical_samples_zero(self):
        data = AdaptDataset([[0.5], [0.2]], [0.1, 0.9], [[0.5], [0.2]], [0.1, 0.9])
        assert discrepancy_grid(data, SQ).d_hat == pytest.approx(0.0)

    def test_degenerate_ball(self):
        model = LossModel("squared", r=1.0, lam=1e-12)
        data = AdaptDataset([[1.0]], [1.0], [[1.0]], [0.0])
        # at w ~ 0 the gap is |0 - 1| = 1
        assert discrepancy_grid(data, model).d_hat == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_resolution(self):
        rng = np.random.default_rng(1)
        data = random_dataset(rng, 10, 10, 2, SQ)
        coarse = discrepancy_grid(data, SQ, grid_points=11).d_hat
        fine = discrepancy_grid(data, SQ, grid_points=101).d_hat
        assert fine >= coarse - 1e-12

    @pytest.mark.parametrize("d", [1, 2])
    def test_moment_form_gap_equals_loss_gap(self, d):
        rng = np.random.default_rng(10 + d)
        cand = _candidate_grid(d, SQ.lam, 201)
        for _ in range(5):
            data = random_dataset(rng, int(rng.integers(1, 40)), int(rng.integers(1, 40)), d, SQ)
            W = cand[rng.integers(0, cand.shape[0], 50)]
            got = _quadratic_gaps(_gap_quadratic(data), W)
            want = np.array([loss_gap(data, SQ, w) for w in W])
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))

    def test_candidate_grid_cached_read_only(self):
        grid = _candidate_grid(2, 1.0, 11)
        assert _candidate_grid(2, 1.0, 11) is grid
        assert not grid.flags.writeable
        assert np.all(np.linalg.norm(grid, axis=1) <= 1.0 + 1e-12)

    def test_logistic_scan_equals_loss_gap_over_the_grid(self):
        # the logistic branch scans the gap with its own log-loss formula;
        # d_hat is the largest |gap| over the grid through core's loss
        lg = LossModel("logistic", r=1.0, lam=1.0)
        data = AdaptDataset([[0.6, 0.2], [-0.3, 0.5], [0.1, -0.9]], [1.0, -1.0, 1.0],
                            [[0.9, 0.0], [0.2, 0.7], [-0.5, -0.5], [0.0, 0.3]],
                            [1.0, 1.0, -1.0, -1.0])
        est = discrepancy_grid(data, lg, grid_points=21)
        gaps = np.abs([loss_gap(data, lg, w) for w in _candidate_grid(2, lg.lam, 21)])
        assert abs(est.d_hat - gaps.max()) <= 1e-12
        assert abs(abs(loss_gap(data, lg, est.witness_w)) - est.d_hat) <= 1e-12

    def test_rejects_high_dim(self):
        rng = np.random.default_rng(2)
        data = random_dataset(rng, 3, 3, 3, SQ)
        with pytest.raises(ValueError):
            discrepancy_grid(data, SQ)


def _kkt_residuals(data, est):
    """The trust-region certificate of the witness on its own sign branch:
    (stationarity residual, nu - max(lambda_max, 0), ||w||, nu)."""
    A, g, _ = _gap_quadratic(data)
    w = est.witness_w
    sign = 1.0 if loss_gap(data, SQ, w) >= 0 else -1.0
    A, g = sign * A, sign * g
    nu = w @ (A @ w - g) / (w @ w)
    resid = np.linalg.norm(nu * w - A @ w + g)
    return resid, nu - max(np.linalg.eigvalsh(A).max(), 0.0), np.linalg.norm(w), nu


class TestDCA:
    def test_one_dim_hand_instance(self):
        est = discrepancy_dca(TINY, SQ)
        assert est.d_hat == pytest.approx(3.0, abs=1e-12)
        assert est.witness_w == pytest.approx([-1.0], abs=1e-12)

    def test_hard_case_hand_instance(self):
        # public x=(1,0), y=0; private x=(0,1), y=0: gap(w) = w2^2 - w1^2,
        # so g = 0 and the maximizer lies on the top eigenvector of each branch
        data = AdaptDataset([[1.0, 0.0]], [0.0], [[0.0, 1.0]], [0.0])
        est = discrepancy_dca(data, SQ)
        assert est.d_hat == pytest.approx(1.0, abs=1e-12)
        resid, slack, norm, _ = _kkt_residuals(data, est)
        assert resid <= 1e-12 and slack >= -1e-12
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_identical_samples_zero(self):
        data = AdaptDataset([[0.5], [0.2]], [0.1, 0.9], [[0.5], [0.2]], [0.1, 0.9])
        assert discrepancy_dca(data, SQ).d_hat == pytest.approx(0.0, abs=1e-8)

    def test_rejects_logistic(self):
        with pytest.raises(ValueError):
            discrepancy_dca(TINY, LossModel("logistic", 1.0, 1.0))

    @pytest.mark.parametrize("d", [1, 2, 5, 20, 100])
    def test_kkt_certificate(self, d):
        # (nu I - A) w = -g, nu >= max(lambda_max(A), 0), and ||w|| = lam or
        # nu = 0: sufficient for the global maximum of the sign branch
        rng = np.random.default_rng(d)
        for _ in range(10):
            data = random_dataset(rng, int(rng.integers(2, 60)),
                                  int(rng.integers(2, 60)), d, SQ)
            est = discrepancy_dca(data, SQ)
            resid, slack, norm, nu = _kkt_residuals(data, est)
            assert resid <= 1e-10
            assert slack >= -1e-10
            assert norm == pytest.approx(SQ.lam, abs=1e-10) or abs(nu) <= 1e-10

    def test_matches_grid_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            data = random_dataset(rng, 20, 20, 2, SQ)
            exact = discrepancy_dca(data, SQ).d_hat
            grid = discrepancy_grid(data, SQ, grid_points=2001).d_hat
            assert exact >= grid - 1e-12  # the grid points are feasible
            assert abs(exact - grid) <= 1e-6

    def test_witness_achieves_value(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 12, 9, 2, SQ)
        est = discrepancy_dca(data, SQ)
        assert abs(loss_gap(data, SQ, est.witness_w)) == pytest.approx(
            est.d_hat, abs=1e-12)
        assert np.linalg.norm(est.witness_w) <= SQ.lam + 1e-12


def _ball_max(p: np.ndarray, gam: np.ndarray) -> float:
    """max of v'diag(p)v - 2 gam'v over ||v|| <= 1, from the root delta of
    sum gam_i^2 / (delta + a_i)^2 = 1 with a = max(p) - p, found by brentq
    on [|gam_top|, ||gam||], where f = max(p) + sum gam_i^2 (2 delta + a_i)
    / (delta + a_i)^2; or the interior point when diag(p) < 0 admits it."""
    top = int(np.argmax(p))
    a = p[top] - p

    def excess(delta):
        with np.errstate(over="ignore"):
            return float(np.sum((gam / (delta + a)) ** 2)) - 1.0
    if p[top] < 0 and excess(-p[top]) <= 0:
        return float(np.sum(gam ** 2 / -p))
    assert gam[top] != 0  # continuous random data: no hard case
    # excess(||gam||) <= 0 up to rounding, which the wider end absorbs
    lo, hi = max(abs(gam[top]), -p[top]), float(np.linalg.norm(gam)) * (1.0 + 1e-9)
    delta = optimize.brentq(excess, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps) \
        if lo < hi else lo
    return float(p[top] + np.sum(gam ** 2 * (2 * delta + a) / (delta + a) ** 2))


def _reference_d_hat(data: AdaptDataset, lam: float) -> float:
    """max |gap(w)| over ||w|| <= lam, gap(w) = w'Aw - 2 g'w + c formed from
    the rows: in v = w/lam each sign s of the gap is lam f_s + s c, f_s the
    ball maximum of v'(lam sA)v - 2 s g'v (scipy's eigh), so neither lam^2
    nor 1/lam is ever formed."""
    (xq, yq), (xp, yp) = data.samples
    m, n = len(yq), len(yp)
    A = xp.T @ xp / n - xq.T @ xq / m
    g, c = xp.T @ yp / n - xq.T @ yq / m, yp @ yp / n - yq @ yq / m
    best = 0.0
    for s in (1.0, -1.0):
        e, Q = linalg.eigh(s * A)
        best = max(best, lam * _ball_max(lam * e, Q.T @ (s * g)) + s * c)
    return best


# LossModel("squared", r=1, lam) takes every lam from the least subnormal to
# about 1.158e77, where B^2 leaves the float range
LAMS = st.one_of(st.floats(-323.3, 77.06).map(lambda e: 10.0 ** e),
                 st.sampled_from([5e-324, 1e-200, 1.0, 1.35e16, 1e20, 1.15e77]))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), lam=LAMS)
def test_d_hat_exact_at_every_accepted_lam(seed, d, lam):
    # d_hat / lam^2 within 1e-9 of the reference, compared as d_hat itself,
    # whose square-free form holds at both ends of the range
    try:
        model = LossModel("squared", r=1.0, lam=lam)
    except ValueError:
        assume(False)
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, int(rng.integers(2, 30)), int(rng.integers(2, 30)), d, model)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d_hat = discrepancy_dca(data, model).d_hat
    assert math.isfinite(d_hat) and 0.0 <= d_hat <= model.B
    assert d_hat == pytest.approx(_reference_d_hat(data, lam), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("lam", [1e8, 1.35e16, 1e20, 1e-200])
def test_d_hat_where_the_bracket_collapsed_or_underflowed(lam):
    # the bisection bracket [lo, lo + ||g|| / lam] was one float wide at
    # lam = 1.35e16 and 1e20 (d_hat read 0.0042 there), and the maximiser's
    # norm underflowed at 1e-200 (d_hat read 0): d_hat / lam^2 is about
    # 0.209 at large lam and d_hat about 0.167 at tiny lam
    data, _ = generate_synthetic(SyntheticShiftSpec(d=2, noise_std=0.1), 20, 30,
                                 derive_rng(1, "x"))
    model = LossModel("squared", r=1.0, lam=lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d_hat = discrepancy_dca(data, model).d_hat
    assert math.isfinite(d_hat) and 0.0 <= d_hat <= model.B
    assert d_hat == pytest.approx(_reference_d_hat(data, lam), rel=1e-9, abs=0.0)
    assert d_hat / (lam * lam if lam > 1.0 else 1.0) == pytest.approx(
        0.209 if lam > 1.0 else 0.167, abs=1e-3)


class TestProperties:
    def test_bounded_by_B(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            data = random_dataset(rng, 8, 8, 2, SQ)
            assert discrepancy_dca(data, SQ).d_hat <= SQ.B + 1e-9

    def test_swap_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            data = random_dataset(rng, 9, 7, 2, SQ)
            swapped = AdaptDataset(data.private_x, data.private_y,
                                   data.public_x, data.public_y)
            a = discrepancy_dca(data, SQ).d_hat
            b = discrepancy_dca(swapped, SQ).d_hat
            assert a == pytest.approx(b, abs=1e-6)

    def test_sensitivity_one_private_row(self):
        # replacing one private point moves d_hat by at most B/n
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            data = random_dataset(rng, 6, n, 2, SQ)
            xt = data.private_x.copy()
            yt = data.private_y.copy()
            row = int(rng.integers(0, n))
            v = rng.standard_normal(2)
            xt[row] = v * rng.random() / max(np.linalg.norm(v), 1e-12)
            yt[row] = rng.uniform(-1, 1)
            data2 = AdaptDataset(data.public_x, data.public_y, xt, yt)
            a = discrepancy_dca(data, SQ).d_hat
            b = discrepancy_dca(data2, SQ).d_hat
            assert abs(a - b) <= SQ.B / n + 1e-6
