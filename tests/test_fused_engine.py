"""Equivalence of the one-pass gradients and the column-batched convex
engine with the row-wise formulas they replace."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from privadapt.mechanisms import derive_rng
from privadapt.nonconvex_objective import NonConvexContext, grad_J
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
    cfg, m, n = ctx.config, ctx.data.m, ctx.data.n
    g_w, scale, num_pub, num_priv = _rowwise(ctx.model, ctx.data, p, ctx.d_dp)
    g_pub = -num_pub / p.u_pub ** 2 + cfg.kappa1 * (cfg.alpha / m) ** 2
    g_priv = -num_priv / p.u_priv ** 2 + cfg.kappa1 * ((1.0 - cfg.alpha) / n) ** 2
    root = np.sqrt(np.sum(1.0 / p.u_pub ** 2) + np.sum(1.0 / p.u_priv ** 2))
    g_pub -= cfg.kappa2 / (p.u_pub ** 3 * root)
    g_priv -= cfg.kappa2 / (p.u_priv ** 3 * root)
    i = int(np.argmin(np.concatenate([p.u_pub, p.u_priv])))
    if i < m:
        g_pub[i] -= cfg.kappa_inf / p.u_pub[i] ** 2
    else:
        g_priv[i - m] -= cfg.kappa_inf / p.u_priv[i - m] ** 2
    return g_w, scale, g_pub, g_priv


def _reference_grad_J(ctx, p):
    cfg, m = ctx.config, ctx.data.m
    g_w, scale, num_pub, num_priv = _rowwise(ctx.model, ctx.data, p, ctx.d_dp)
    u_all = np.concatenate([p.u_pub, p.u_priv])
    g_u = np.concatenate([-num_pub / p.u_pub ** 2, -num_priv / p.u_priv ** 2])
    g_u = g_u + cfg.lambda1 / u_all ** 2
    g_u = g_u - cfg.lambda2 / (u_all ** 3 * math.sqrt(float(np.sum(1.0 / u_all ** 2))))
    a = ctx.mu / u_all
    softmax = np.exp(a - a.max()) / np.exp(a - a.max()).sum()
    g_u = g_u - cfg.lambda_inf * softmax / u_all ** 2
    return g_w, scale, g_u[:m], g_u[m:]


sizes = st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(1, 6))
weights = st.floats(0.0, 5.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), sizes, weights, weights, weights,
       st.floats(0.05, 0.95), st.booleans())
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
    ref_w, scale, ref_pub, ref_priv = _reference_grad_F(ctx, p)
    _assert_close(g_w, ref_w, scale)
    _assert_close(g_pub, ref_pub, np.abs(ref_pub))
    _assert_close(g_priv, ref_priv, np.abs(ref_priv))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), sizes, weights, weights, weights,
       st.sampled_from(["squared", "logistic"]))
def test_grad_J_matches_rowwise_reference(seed, mnd, l1, l2, linf, kind):
    rng = np.random.default_rng(seed)
    m, n, d = mnd
    model = LossModel(kind, r=1.0, lam=1.0)
    data = random_dataset(rng, m, n, d, model)
    if kind == "logistic":
        data = type(data)(data.public_x, np.sign(data.public_y + 0.5),
                          data.private_x, np.sign(data.private_y + 0.5))
    reg = RegularizerConfig(lambda1=l1, lambda2=l2, lambda_inf=linf, mu=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ctx = NonConvexContext(data, rng.uniform(0, model.B), reg, model)
    p = random_feasible_point(rng, model, reg.alpha, m, n, d)
    g_w, g_pub, g_priv = grad_J(ctx, p)
    ref_w, scale, ref_pub, ref_priv = _reference_grad_J(ctx, p)
    _assert_close(g_w, ref_w, scale)
    _assert_close(g_pub, ref_pub, np.abs(ref_pub))
    _assert_close(g_priv, ref_priv, np.abs(ref_priv))


def _budget(eps):
    return non_private(0.05) if math.isinf(eps) else PrivacyBudget(eps, 0.05)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 5]),
       st.lists(st.sampled_from([0.5, 2.0, 10.0, math.inf]), min_size=5, max_size=5),
       weights, st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.booleans(), st.booleans())
def test_engine_columns_match_single_runs(seed, E, eps, k1, k2, kinf, with_init, with_steps):
    rng = np.random.default_rng(seed)
    m, n, d = (int(v) for v in rng.integers(1, 15, 3))
    data = random_dataset(rng, m, n, d, SQ)
    reg = RegularizerConfig(kappa1=k1, kappa2=k2, kappa_inf=kinf)
    columns = [(_budget(e), float(rng.uniform(0, SQ.B))) for e in eps[:E]]
    run = ConvexRunConfig(
        T=25,
        init=random_feasible_point(rng, SQ, reg.alpha, m, n, d) if with_init else None,
        step_w=0.05 if with_steps else None,
        step_u_priv=3.0 if with_steps else None,
    )
    batched = fit_convex_columns(data, columns, reg, run, SQ, rng=derive_rng(seed, "engine"))
    assert len(batched) == E
    for (budget, d_dp), got in zip(columns, batched):
        want = fit_convex(data, budget, reg, run, SQ, d_dp=d_dp,
                          rng=derive_rng(seed, "engine"))
        np.testing.assert_allclose(got.point.as_vector(), want.point.as_vector(),
                                   rtol=1e-10, atol=1e-10)
        assert got.objective_value == pytest.approx(want.objective_value, rel=1e-10)
        assert got.privacy_spent == want.privacy_spent and got.T_used == want.T_used


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
