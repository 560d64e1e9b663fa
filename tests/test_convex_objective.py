import math

import numpy as np
import pytest

from privadapt.core import (
    AdaptDataset,
    FeasiblePoint,
    LossModel,
    RegularizerConfig,
    loss_values,
)
from privadapt.convex_objective import (
    ConvexObjectiveContext,
    eval_F,
    grad_F,
    project,
)

SQ = LossModel("squared", r=1.0, lam=1.0)
# the 1+1-sample instance: public (x=1, y=1), private (x=1, y=0)
TINY = AdaptDataset([[1.0]], [1.0], [[1.0]], [0.0])


def _ctx(d_dp=0.5, **kw):
    return ConvexObjectiveContext(TINY, d_dp, RegularizerConfig(**kw), SQ)


class TestEvalF:
    def test_hand_value_no_regularizers(self):
        # (1 + 0.5)/2 + 0/2 = 0.75
        p = FeasiblePoint([0.0], [2.0], [2.0])
        assert eval_F(_ctx(), p) == pytest.approx(0.75)

    def test_hand_value_all_kappas_one(self):
        # 0.75 + kappa1*0 + sqrt(0.5) + 0.5
        p = FeasiblePoint([0.0], [2.0], [2.0])
        ctx = _ctx(kappa1=1.0, kappa2=1.0, kappa_inf=1.0)
        expected = 0.75 + math.sqrt(0.5) + 0.5
        assert expected == pytest.approx(1.957106781, abs=1e-8)
        assert eval_F(ctx, p) == pytest.approx(expected)

    def test_zero_loss_case(self):
        data = AdaptDataset([[1.0]], [1.0], [[1.0]], [1.0])
        ctx = ConvexObjectiveContext(data, 0.0, RegularizerConfig(), SQ)
        for u in (2.0, 5.0, 11.0):
            p = FeasiblePoint([1.0], [u], [u])
            assert eval_F(ctx, p) == pytest.approx(0.0)

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            eval_F(_ctx(), FeasiblePoint([0.0], [1.0], [2.0]))

    def test_rejects_nonsquared_and_bad_ddp(self):
        with pytest.raises(ValueError):
            ConvexObjectiveContext(TINY, 0.0, RegularizerConfig(),
                                   LossModel("logistic", 1.0, 1.0))
        with pytest.raises(ValueError):
            _ctx(d_dp=5.0)


class TestGradF:
    def test_hand_gradient_w(self):
        # public: 2*(0-1)*1/2 = -1; private residual 0 -> g_w = -1
        p = FeasiblePoint([0.0], [2.0], [2.0])
        g_w, g_pub, g_priv = grad_F(_ctx(), p)
        assert g_w == pytest.approx([-1.0])
        # g_u_pub = -(1 + 0.5)/4, g_u_priv = -0/4
        assert g_pub == pytest.approx([-0.375])
        assert g_priv == pytest.approx([0.0])

    def test_zero_loss_flat(self):
        data = AdaptDataset([[1.0]], [1.0], [[1.0]], [1.0])
        ctx = ConvexObjectiveContext(data, 0.0, RegularizerConfig(), SQ)
        p = FeasiblePoint([1.0], [3.0], [3.0])
        g_w, g_pub, g_priv = grad_F(ctx, p)
        assert np.allclose(g_w, 0) and np.allclose(g_pub, 0)
        assert np.allclose(g_priv, 0)

    def test_kappa2_term_hand_value(self):
        # kappa2 only, zero losses, u=(2,2): each entry -(1/8)/sqrt(1/2)
        data = AdaptDataset([[1.0]], [1.0], [[1.0]], [1.0])
        ctx = ConvexObjectiveContext(data, 0.0, RegularizerConfig(kappa2=1.0), SQ)
        p = FeasiblePoint([1.0], [2.0], [2.0])
        _, g_pub, g_priv = grad_F(ctx, p)
        expected = -(1.0 / 8.0) / math.sqrt(0.5)
        assert expected == pytest.approx(-0.1767767, abs=1e-6)
        assert g_pub == pytest.approx([expected])
        assert g_priv == pytest.approx([expected])

    def test_kappa_inf_lowest_index_tie_break(self):
        data = AdaptDataset([[1.0], [1.0]], [1.0, 1.0], [[1.0]], [1.0])
        ctx = ConvexObjectiveContext(data, 0.0, RegularizerConfig(kappa_inf=1.0), SQ)
        p = FeasiblePoint([1.0], [4.0, 4.0], [4.0])  # all-u tie
        _, g_pub, g_priv = grad_F(ctx, p)
        assert g_pub[0] == pytest.approx(-1.0 / 16.0)
        assert g_pub[1] == 0.0 and g_priv[0] == 0.0


class TestProject:
    def test_radial(self):
        p = project([3.0, 4.0], [10.0], [10.0], 1.0, 0.5, 1, 1)
        assert p.w == pytest.approx([0.6, 0.8])

    def test_box_clamp(self):
        p = project([0.0], [1.5], [0.0], 1.0, 0.5, 1, 1)
        assert p.u_pub == pytest.approx([2.0])
        assert p.u_priv == pytest.approx([2.0])

    def test_identity_on_feasible(self):
        p0 = FeasiblePoint([0.3], [5.0], [7.0])
        p = project(p0.w, p0.u_pub, p0.u_priv, 1.0, 0.5, 1, 1)
        assert p.w == pytest.approx(p0.w)
        assert p.u_pub == pytest.approx(p0.u_pub)
        assert p.u_priv == pytest.approx(p0.u_priv)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            raw = rng.standard_normal(2), rng.uniform(0, 10, 3), rng.uniform(0, 10, 2)
            p1 = project(*raw, 1.0, 0.5, 3, 2)
            p2 = project(p1.w, p1.u_pub, p1.u_priv, 1.0, 0.5, 3, 2)
            assert np.allclose(p1.as_vector(), p2.as_vector())


class TestGradientBounds:
    def test_substitution(self):
        data = AdaptDataset(np.eye(4)[:, :1], [1.0] * 4, [[1.0]], [0.0])
        ctx = ConvexObjectiveContext(data, 0.0, RegularizerConfig(), SQ)
        bw, bpub, bpriv = gradient_bounds(ctx)
        assert bw == 4.0  # G for squared r=lam=1
        assert bpub == pytest.approx(0.25 * 8.0 / 8.0)  # alpha^2 (B+Bbar)/m^1.5

    def test_b_bar_shift(self):
        ctx = _ctx(kappa1=1.0, kappa2=1.0, kappa_inf=1.0)
        _, bpub, bpriv = gradient_bounds(ctx)
        assert bpub == pytest.approx(0.25 * (4.0 + 7.0))
        assert bpriv == pytest.approx(0.25 * 7.0)


def random_dataset(rng, m, n, d, model):
    def draw(count):
        x = rng.standard_normal((count, d))
        x *= model.r * rng.random((count, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
        return x, rng.uniform(-1, 1, count)
    xs, ys = draw(m)
    xt, yt = draw(n)
    return AdaptDataset(xs, ys, xt, yt)


def random_feasible_point(rng, model, alpha, m, n, d, spread=10.0):
    w = rng.standard_normal(d)
    w *= model.lam * rng.random() / max(np.linalg.norm(w), 1e-12)
    u_pub = m / alpha + rng.uniform(0, spread, m)
    u_priv = n / (1 - alpha) + rng.uniform(0, spread, n)
    return FeasiblePoint(w, u_pub, u_priv)


def point_from_vector(v, d, m, n):
    """The FeasiblePoint whose as_vector() is v."""
    v = np.asarray(v, dtype=float).ravel()
    return FeasiblePoint(v[:d], v[d:d + m], v[d + m:d + m + n])


def gradient_bounds(ctx):
    """Uniform bounds on the three block-gradient norms of the convex
    objective over the feasible set: (G, alpha^2 (B + Bbar) / m^{3/2},
    (1-alpha)^2 Bbar / n^{3/2})."""
    cfg = ctx.config
    B = ctx.model.B
    b_bar = cfg.b_bar(B)
    m, n = ctx.data.m, ctx.data.n
    return (
        ctx.model.G,
        cfg.alpha ** 2 * (B + b_bar) / m ** 1.5,
        (1.0 - cfg.alpha) ** 2 * b_bar / n ** 1.5,
    )


def numeric_grad(f, v, h=1e-6):
    out = np.zeros_like(v)
    for j in range(v.size):
        e = np.zeros_like(v)
        e[j] = h
        out[j] = (f(v + e) - f(v - e)) / (2 * h)
    return out


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(21)
    model = SQ
    checked = 0
    while checked < 200:
        m, n, d = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 4)
        data = random_dataset(rng, m, n, d, model)
        cfg = RegularizerConfig(alpha=rng.uniform(0.2, 0.8),
                                kappa1=rng.uniform(0, 2), kappa2=rng.uniform(0, 2),
                                kappa_inf=rng.uniform(0, 2))
        ctx = ConvexObjectiveContext(data, rng.uniform(0, 2), cfg, model)
        p = random_feasible_point(rng, model, cfg.alpha, m, n, d)
        # the kappa_inf term is only differentiable when the u-argmin is
        # unique with margin wider than the FD step
        u_all = np.sort(np.concatenate([p.u_pub, p.u_priv]))
        if u_all.size > 1 and u_all[1] - u_all[0] < 1e-3:
            continue
        if np.linalg.norm(p.w) > model.lam - 1e-3:
            continue  # keep the FD stencil feasible
        g = np.concatenate(grad_F(ctx, p))

        def f(v):
            return eval_F(ctx, point_from_vector(v, d, m, n))

        fd = numeric_grad(f, p.as_vector())
        assert np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-8) <= 1e-5
        checked += 1


def test_midpoint_convexity():
    rng = np.random.default_rng(33)
    model = SQ
    for _ in range(1000):
        m, n, d = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 3)
        data = random_dataset(rng, m, n, d, model)
        cfg = RegularizerConfig(alpha=rng.uniform(0.2, 0.8),
                                kappa1=rng.uniform(0, 1), kappa2=rng.uniform(0, 1),
                                kappa_inf=rng.uniform(0, 1))
        ctx = ConvexObjectiveContext(data, rng.uniform(0, 2), cfg, model)
        p1 = random_feasible_point(rng, model, cfg.alpha, m, n, d)
        p2 = random_feasible_point(rng, model, cfg.alpha, m, n, d)
        mid = point_from_vector((p1.as_vector() + p2.as_vector()) / 2, d, m, n)
        assert eval_F(ctx, mid) <= (eval_F(ctx, p1) + eval_F(ctx, p2)) / 2 + 1e-9


def test_gradient_norm_bounds_fuzz():
    rng = np.random.default_rng(44)
    model = SQ
    for _ in range(2000):
        m, n, d = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 4)
        data = random_dataset(rng, m, n, d, model)
        cfg = RegularizerConfig(alpha=rng.uniform(0.2, 0.8),
                                kappa1=rng.uniform(0, 2), kappa2=rng.uniform(0, 2),
                                kappa_inf=rng.uniform(0, 2))
        ctx = ConvexObjectiveContext(data, rng.uniform(0, model.B), cfg, model)
        p = random_feasible_point(rng, model, cfg.alpha, m, n, d,
                                  spread=rng.uniform(0.1, 50))
        g_w, g_pub, g_priv = grad_F(ctx, p)
        bw, bpub, bpriv = gradient_bounds(ctx)
        assert np.linalg.norm(g_w) <= bw + 1e-9
        assert np.linalg.norm(g_pub) <= bpub + 1e-9
        assert np.linalg.norm(g_priv) <= bpriv + 1e-9


def test_private_gradient_sensitivities_fuzz():
    # replacing one private row moves the private-loss gradient blocks by
    # at most 2(1-alpha)G/n (w block) and (1-alpha)^2 B/n^2 (u_priv block),
    # in the p0-weighted parameterization of the released gradients
    rng = np.random.default_rng(55)
    model = SQ
    for _ in range(1000):
        m, n, d = rng.integers(1, 4), rng.integers(1, 6), rng.integers(1, 4)
        alpha = rng.uniform(0.2, 0.8)
        data = random_dataset(rng, m, n, d, model)
        x_new = rng.standard_normal(d)
        x_new *= model.r * rng.random() / max(np.linalg.norm(x_new), 1e-12)
        row = int(rng.integers(0, n))
        xt = data.private_x.copy()
        yt = data.private_y.copy()
        xt[row], yt[row] = x_new, rng.uniform(-1, 1)
        data2 = AdaptDataset(data.public_x, data.public_y, xt, yt)

        p = random_feasible_point(rng, model, alpha, m, n, d)
        cfg = RegularizerConfig(alpha=alpha)
        ctx1 = ConvexObjectiveContext(data, 0.0, cfg, model)
        ctx2 = ConvexObjectiveContext(data2, 0.0, cfg, model)
        # only the private data-dependent parts differ between the contexts
        g1 = grad_F(ctx1, p)
        g2 = grad_F(ctx2, p)
        # at the reference weights u = n/(1-alpha) the per-row factor is
        # (1-alpha)/n; general feasible u only shrinks it
        assert np.linalg.norm(g1[0] - g2[0]) <= 2 * (1 - alpha) * model.G / n + 1e-9
        assert np.linalg.norm(g1[2] - g2[2]) <= (1 - alpha) ** 2 * model.B / n ** 2 + 1e-9


def test_surrogate_inequality():
    # 1 - sum 1/u_i <= (alpha/m)^2 sum_pub u + ((1-alpha)/n)^2 sum_priv u - 1
    rng = np.random.default_rng(66)
    for _ in range(2000):
        m, n = rng.integers(1, 8), rng.integers(1, 8)
        alpha = rng.uniform(0.1, 0.9)
        u_pub = m / alpha + rng.uniform(0, 100, m)
        u_priv = n / (1 - alpha) + rng.uniform(0, 100, n)
        lhs = 1.0 - (np.sum(1.0 / u_pub) + np.sum(1.0 / u_priv))
        rhs = ((alpha / m) ** 2 * u_pub.sum()
               + ((1 - alpha) / n) ** 2 * u_priv.sum() - 1.0)
        assert lhs <= rhs + 1e-12


def test_surrogate_equality_at_lower_bounds():
    for m, n, alpha in [(1, 1, 0.5), (3, 5, 0.3), (10, 2, 0.7)]:
        u_pub = np.full(m, m / alpha)
        u_priv = np.full(n, n / (1 - alpha))
        lhs = 1.0 - (np.sum(1.0 / u_pub) + np.sum(1.0 / u_priv))
        rhs = ((alpha / m) ** 2 * u_pub.sum()
               + ((1 - alpha) / n) ** 2 * u_priv.sum() - 1.0)
        assert lhs == pytest.approx(rhs) == pytest.approx(0.0)


def test_reparameterization_consistency():
    # with all kappas zero, F(w, u) is the weighted loss at q_i = 1/u_i
    rng = np.random.default_rng(77)
    model = SQ
    for _ in range(200):
        m, n, d = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 3)
        data = random_dataset(rng, m, n, d, model)
        d_dp = rng.uniform(0, 2)
        ctx = ConvexObjectiveContext(data, d_dp, RegularizerConfig(), model)
        p = random_feasible_point(rng, model, 0.5, m, n, d)
        q_pub, q_priv = 1.0 / p.u_pub, 1.0 / p.u_priv
        direct = (q_pub @ (loss_values(model, p.w, data.public_x, data.public_y) + d_dp)
                  + q_priv @ loss_values(model, p.w, data.private_x, data.private_y))
        assert eval_F(ctx, p) == pytest.approx(direct)
