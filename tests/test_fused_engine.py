"""Equivalence of the one-pass gradients, the column-batched convex and
non-convex solvers and the Gram-form reference fit with the row-wise
formulas and the single runs they replace."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from privadapt.baselines import KINDS, MIXTURE_ALPHA, TARGET_ONLY_DP, fit_baseline
from privadapt.core import (
    FeasiblePoint,
    LossModel,
    PrivacyBudget,
    RegularizerConfig,
    loss_grads,
    loss_values,
    non_private,
)
from privadapt.convex_objective import ConvexObjectiveContext, grad_F
from privadapt.convex_solver import ConvexRunConfig, fit_convex, fit_convex_columns
from privadapt.mechanisms import derive_rng, gaussian_vector
from privadapt.nonconvex_objective import NonConvexContext, grad_J
from privadapt.nonconvex_solver import NonConvexRunConfig, fit_nonconvex, fit_nonconvex_columns
from tests.test_convex_objective import random_dataset, random_feasible_point

SQ = LossModel("squared", r=1.0, lam=1.0)
RTOL = 1e-12


def _rowwise(model, data, p, d_dp):
    """g_w summed from per-example gradient rows, the entrywise sum of the
    magnitudes of its terms, and the loss numerators of both blocks."""
    gp = loss_grads(model, p.w, data.public_x, data.public_y)
    gq = loss_grads(model, p.w, data.private_x, data.private_y)
    g_w = gp.T @ (1.0 / p.u_pub) + gq.T @ (1.0 / p.u_priv)
    scale = np.abs(gp).T @ (1.0 / p.u_pub) + np.abs(gq).T @ (1.0 / p.u_priv)
    num_pub = loss_values(model, p.w, data.public_x, data.public_y) + d_dp
    num_priv = loss_values(model, p.w, data.private_x, data.private_y)
    return g_w, scale, num_pub, num_priv


def _assert_close(got, want, scale):
    assert np.all(np.abs(got - want) <= RTOL * np.maximum(scale, 1e-300))


def _reference_grad_F(ctx, p):
    """The row-wise gradient of F, and per entry the summed magnitudes of
    the terms that make up each block."""
    cfg, m, n = ctx.config, ctx.data.m, ctx.data.n
    g_w, scale, num_pub, num_priv = _rowwise(ctx.model, ctx.data, p, ctx.d_dp)
    c_pub = cfg.kappa1 * (cfg.alpha / m) ** 2
    c_priv = cfg.kappa1 * ((1.0 - cfg.alpha) / n) ** 2
    g_pub = -num_pub / p.u_pub ** 2 + c_pub
    g_priv = -num_priv / p.u_priv ** 2 + c_priv
    root = np.sqrt(np.sum(1.0 / p.u_pub ** 2) + np.sum(1.0 / p.u_priv ** 2))
    k2_pub, k2_priv = cfg.kappa2 / (p.u_pub ** 3 * root), cfg.kappa2 / (p.u_priv ** 3 * root)
    g_pub -= k2_pub
    g_priv -= k2_priv
    scale_pub = np.abs(num_pub / p.u_pub ** 2) + c_pub + k2_pub
    scale_priv = np.abs(num_priv / p.u_priv ** 2) + c_priv + k2_priv
    i = int(np.argmin(np.concatenate([p.u_pub, p.u_priv])))
    if i < m:
        g_pub[i] -= cfg.kappa_inf / p.u_pub[i] ** 2
        scale_pub[i] += cfg.kappa_inf / p.u_pub[i] ** 2
    else:
        g_priv[i - m] -= cfg.kappa_inf / p.u_priv[i - m] ** 2
        scale_priv[i - m] += cfg.kappa_inf / p.u_priv[i - m] ** 2
    return g_w, scale, g_pub, g_priv, scale_pub, scale_priv


def _reference_grad_J(ctx, p):
    """The row-wise gradient of J, and per entry the summed magnitudes of
    the terms that make up each block."""
    cfg, m = ctx.config, ctx.data.m
    g_w, scale, num_pub, num_priv = _rowwise(ctx.model, ctx.data, p, ctx.d_dp)
    u_all = np.concatenate([p.u_pub, p.u_priv])
    loss = np.concatenate([num_pub / p.u_pub ** 2, num_priv / p.u_priv ** 2])
    l1 = cfg.lambda1 / u_all ** 2
    l2 = cfg.lambda2 / (u_all ** 3 * math.sqrt(float(np.sum(1.0 / u_all ** 2))))
    a = ctx.mu / u_all
    softmax = np.exp(a - a.max()) / np.exp(a - a.max()).sum()
    linf = cfg.lambda_inf * softmax / u_all ** 2
    g_u = -loss + l1 - l2 - linf
    scale_u = np.abs(loss) + l1 + l2 + linf
    return g_w, scale, g_u[:m], g_u[m:], scale_u[:m], scale_u[m:]


def _classification(data):
    return type(data)(data.public_x, np.sign(data.public_y + 0.5),
                      data.private_x, np.sign(data.private_y + 0.5))


sizes = st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(1, 6))
weights = st.floats(0.0, 5.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), sizes, weights, weights, weights,
       st.floats(0.05, 0.95), st.booleans())
# two examples whose u-blocks cancel to about 1e-4 of their terms: the
# engine's rounding error is 1.5e-12 of |result| but 1.8e-16 of the terms
@example(seed=366, mnd=(4, 29, 1), k1=1.2867187027596718, k2=0, kinf=0,
         alpha=0.10241235498459397, tie=False)
@example(seed=74233, mnd=(25, 25, 1), k1=0.5, k2=0.5, kinf=0.0, alpha=0.5, tie=False)
def test_grad_F_matches_rowwise_reference(seed, mnd, k1, k2, kinf, alpha, tie):
    rng = np.random.default_rng(seed)
    m, n, d = mnd
    data = random_dataset(rng, m, n, d, SQ)
    reg = RegularizerConfig(alpha=alpha, kappa1=k1, kappa2=k2, kappa_inf=kinf)
    ctx = ConvexObjectiveContext(data, rng.uniform(0, SQ.B), reg, SQ)
    p = random_feasible_point(rng, SQ, alpha, m, n, d)
    if tie:  # both blocks at their lower bound: the kappa_inf tie-break decides
        p = FeasiblePoint(p.w, np.full(m, m / alpha), np.full(n, n / (1 - alpha)))
    g_w, g_pub, g_priv = grad_F(ctx, p)
    ref_w, scale, ref_pub, ref_priv, scale_pub, scale_priv = _reference_grad_F(ctx, p)
    _assert_close(g_w, ref_w, scale)
    _assert_close(g_pub, ref_pub, scale_pub)
    _assert_close(g_priv, ref_priv, scale_priv)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), sizes, weights, weights, weights,
       st.sampled_from(["squared", "logistic"]))
def test_grad_J_matches_rowwise_reference(seed, mnd, l1, l2, linf, kind):
    rng = np.random.default_rng(seed)
    m, n, d = mnd
    model = LossModel(kind, r=1.0, lam=1.0)
    data = random_dataset(rng, m, n, d, model)
    if kind == "logistic":
        data = _classification(data)
    reg = RegularizerConfig(lambda1=l1, lambda2=l2, lambda_inf=linf, mu=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ctx = NonConvexContext(data, rng.uniform(0, model.B), reg, model)
    p = random_feasible_point(rng, model, reg.alpha, m, n, d)
    g_w, g_pub, g_priv = grad_J(ctx, p)
    ref_w, scale, ref_pub, ref_priv, scale_pub, scale_priv = _reference_grad_J(ctx, p)
    _assert_close(g_w, ref_w, scale)
    _assert_close(g_pub, ref_pub, scale_pub)
    _assert_close(g_priv, ref_priv, scale_priv)


def _budget(eps):
    return non_private(0.05) if math.isinf(eps) else PrivacyBudget(eps, 0.05)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 5]),
       st.lists(st.sampled_from([0.5, 2.0, 10.0, math.inf]), min_size=5, max_size=5),
       weights, st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.booleans())
def test_engine_columns_match_single_runs(seed, E, eps, k1, k2, kinf, with_init):
    rng = np.random.default_rng(seed)
    m, n, d = (int(v) for v in rng.integers(1, 15, 3))
    data = random_dataset(rng, m, n, d, SQ)
    reg = RegularizerConfig(kappa1=k1, kappa2=k2, kappa_inf=kinf)
    columns = [(_budget(e), float(rng.uniform(0, SQ.B))) for e in eps[:E]]
    run = ConvexRunConfig(
        T=25,
        init=random_feasible_point(rng, SQ, reg.alpha, m, n, d) if with_init else None)
    batched = fit_convex_columns(data, columns, reg, run, SQ, rng=derive_rng(seed, "engine"))
    assert len(batched) == E
    for (budget, d_dp), got in zip(columns, batched):
        want = fit_convex(data, budget, reg, run, SQ, d_dp=d_dp,
                          rng=derive_rng(seed, "engine"))
        np.testing.assert_allclose(got.point.as_vector(), want.point.as_vector(),
                                   rtol=1e-10, atol=1e-10)
        assert got.objective_value == pytest.approx(want.objective_value, rel=1e-10)
        assert got.privacy_spent == want.privacy_spent and got.T_used == want.T_used


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]),
       st.lists(st.sampled_from([0.5, 2.0, 10.0, math.inf]), min_size=3, max_size=3),
       st.sampled_from(["squared", "logistic"]), weights, weights, weights, st.booleans())
def test_nonconvex_engine_columns_match_single_runs(seed, E, eps, kind, l1, l2, linf,
                                                    with_init):
    rng = np.random.default_rng(seed)
    m, n, d = (int(v) for v in rng.integers(1, 15, 3))
    model = LossModel(kind, r=1.0, lam=1.0)
    data = random_dataset(rng, m, n, d, model)
    if kind == "logistic":
        data = _classification(data)
    reg = RegularizerConfig(lambda1=l1, lambda2=l2, lambda_inf=linf, mu=1.0)
    columns = [(_budget(e), float(rng.uniform(0, model.B))) for e in eps[:E]]
    run = NonConvexRunConfig(
        T=25, init=random_feasible_point(rng, model, reg.alpha, m, n, d) if with_init else None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batched = fit_nonconvex_columns(data, columns, reg, run, model,
                                        rng=derive_rng(seed, "engine"))
        singles = [fit_nonconvex(data, budget, reg, run, model, d_dp=d_dp,
                                 rng=derive_rng(seed, "engine")) for budget, d_dp in columns]
    assert len(batched) == E
    for got, want in zip(batched, singles):
        assert got.t_star == want.t_star
        np.testing.assert_allclose(got.point.as_vector(), want.point.as_vector(),
                                   rtol=1e-10, atol=1e-10)
        assert got.objective_value == pytest.approx(want.objective_value, rel=1e-10)
        assert got.grad_mapping_norm == pytest.approx(want.grad_mapping_norm,
                                                      rel=1e-10, abs=1e-10)
        assert got.privacy_spent == want.privacy_spent and got.T_used == want.T_used


def test_columns_of_mixed_analytic_T_match_single_runs():
    # T = None: the finite columns run apart by their analytic T, and the
    # epsilon = inf column joins the longest run, as its single run at that T
    data = random_dataset(np.random.default_rng(1), 4, 5, 2, SQ)
    columns = [(_budget(eps), 0.1 * (j + 1)) for j, eps in enumerate([10.0, 2.0, math.inf, 2.0])]
    for fit_columns, fit, run, model, reg, data in [
            (fit_convex_columns, fit_convex, ConvexRunConfig, SQ, RegularizerConfig(kappa1=1.0),
             data),
            (fit_nonconvex_columns, fit_nonconvex, NonConvexRunConfig,
             LossModel("logistic", r=1.0, lam=1.0), RegularizerConfig(lambda1=0.5, mu=1.0),
             _classification(data))]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            batched = fit_columns(data, columns, reg, run(T=None), model,
                                  rng=derive_rng(1, "engine"))
            longest = batched[0].T_used
            singles = [fit(data, budget, reg, run(T=None if budget.is_private else longest),
                           model, d_dp=d_dp, rng=derive_rng(1, "engine"))
                       for budget, d_dp in columns]
        short = batched[1].T_used
        assert [r.T_used for r in batched] == [longest, short, longest, short]
        assert short < longest
        for got, want in zip(batched, singles):
            assert (got.T_used, got.t_star) == (want.T_used, want.t_star)
            np.testing.assert_allclose(got.point.as_vector(), want.point.as_vector(),
                                       rtol=1e-10, atol=1e-10)
            assert got.objective_value == pytest.approx(want.objective_value, rel=1e-10)


def test_engine_without_finite_epsilon_draws_nothing():
    rng = derive_rng(0, "engine")
    state = rng.bit_generator.state
    data = random_dataset(np.random.default_rng(1), 4, 5, 2, SQ)
    fit_convex_columns(data, [(non_private(), 0.1), (non_private(), 0.5)],
                       RegularizerConfig(kappa1=1.0), ConvexRunConfig(T=5), SQ, rng=rng)
    assert rng.bit_generator.state == state


def test_engine_rejects_empty_batch():
    data = random_dataset(np.random.default_rng(1), 4, 5, 2, SQ)
    with pytest.raises(ValueError):
        fit_convex_columns(data, [], RegularizerConfig(), ConvexRunConfig(T=5), SQ)


def _rowwise_baseline(kind, data, model, T, budget, alpha, rng):
    """fit_baseline's projected gradient descent with each gradient summed
    from per-example rows."""
    m, n, d = data.m, data.n, data.d
    c_pub = alpha / m if kind == MIXTURE_ALPHA else 0.0
    c_priv = (1.0 - alpha) / n if kind == MIXTURE_ALPHA else 1.0 / n
    sigma = 0.0
    if kind == TARGET_ONLY_DP and budget.is_private:
        sigma = (2.0 * (2.0 * model.G / n) * math.sqrt(T * math.log(3.0 / budget.delta))
                 / budget.epsilon_opt)
    eta = model.lam / math.sqrt(T * (model.G ** 2 + d * sigma ** 2))
    w = np.zeros(d)
    for _ in range(T):
        g = c_priv * loss_grads(model, w, data.private_x, data.private_y).sum(axis=0)
        if c_pub > 0:
            g = g + c_pub * loss_grads(model, w, data.public_x, data.public_y).sum(axis=0)
        w = w - eta * (g + gaussian_vector(d, sigma, rng))
        if np.linalg.norm(w) > model.lam:
            w = model.lam * w / np.linalg.norm(w)
    return w


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), sizes, st.sampled_from(KINDS),
       st.sampled_from([0.5, 4.0, math.inf]), st.floats(0.05, 0.95), st.integers(1, 60))
def test_gram_baseline_matches_rowwise_reference(seed, mnd, kind, eps, alpha, T):
    rng = np.random.default_rng(seed)
    m, n, d = mnd
    data = random_dataset(rng, m, n, d, SQ)
    budget = _budget(eps)
    got = fit_baseline(kind, data, SQ, T=T, budget=budget, alpha=alpha,
                       rng=derive_rng(seed, "baseline")).point.w
    want = _rowwise_baseline(kind, data, SQ, T, budget, alpha, derive_rng(seed, "baseline"))
    assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1e-300)
