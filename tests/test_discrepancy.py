import numpy as np
import pytest

from privadapt.core import AdaptDataset, LossModel
from privadapt.discrepancy import (
    _candidate_grid,
    _gap_quadratic,
    _quadratic_gaps,
    discrepancy_dca,
    discrepancy_grid,
    loss_gap,
)
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
