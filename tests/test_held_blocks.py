"""Held problems: a noise-free problem whose weight block sits at its lower
bound, which the gradient's bound certifies stays there, takes no u-step and
forms its w-gradient share from the d x d Gram form.  Each block holds a
trailing run of problems that only shrinks.  These tests check the engine
against the row-form step loop it replaces, the soundness and tightness of
the bound, and which problems stay held on an acceptance-shaped run;
``test_lanes`` checks the held lanes against one process."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from privadapt import processes
from privadapt.convex_objective import ConvexGradient, project_ball
from privadapt.convex_solver import noisy_pgd
from privadapt.core import (AdaptDataset, FeasiblePoint, LossModel, PrivacyBudget,
                            RegularizerConfig)
from privadapt.data_io import SyntheticShiftSpec
from privadapt.harness import SweepSpec, run_sweep
from privadapt.mechanisms import calibrate, derive_rng
from tests.test_convex_objective import random_dataset, random_feasible_point

SQ = LossModel("squared", r=1.0, lam=1.0)


def count_held_steps(monkeypatch) -> list:
    """Record, per lane, each step's ``part`` in this process as the pair
    (held problems, problems on the row path)."""
    steps, original = [[], []], ConvexGradient.part

    def part(self, lane, *args):
        held, state = original(self, lane, *args)
        steps[lane].append((held, 0 if state is None else len(state)))
        return held, state
    monkeypatch.setattr(ConvexGradient, "part", part)
    return steps


def held_counts(steps: list) -> list:
    """Per lane, the number of held problems at each step."""
    return [[held for held, _ in lane] for lane in steps]


def _row_form_steps(grad, p, eta, sigma1, sigma2, steps, lam, alpha, rng):
    """The engine's step loop before held blocks, in one process: every
    step runs the row path of both blocks and sums every entry; returns the
    averaged (W, U_pub, U_priv) and the last (U_pub, U_priv)."""
    m, n = p.u_pub.size, p.u_priv.size
    E = eta.shape[0]
    noisy_w, noisy_u = sigma1.any(), sigma2.any()
    lower = m / alpha, n / (1.0 - alpha)
    W = np.repeat(p.w[:, None], E, axis=1)
    U = [np.repeat(u[None, :], E, axis=0) for u in (p.u_pub, p.u_priv)]
    sums = [np.zeros_like(W), np.zeros_like(U[0]), np.zeros_like(U[1])]
    for _ in range(steps):
        z_w = rng.standard_normal(p.w.size) if noisy_w else None
        z_u = rng.standard_normal(n) if noisy_u else None
        g_w, *g_u = grad(W, U[0], U[1])
        if noisy_w:
            g_w += np.outer(z_w, sigma1)
        g_w *= eta[:, 0]
        W -= g_w
        project_ball(W, lam)
        for lane, g in enumerate(g_u):
            if lane == 1 and noisy_u:
                g += sigma2[:, None] * z_u
            g *= eta[:, 1 + lane, None]
            U[lane] -= g
            np.maximum(U[lane], lower[lane], out=U[lane])
        for total, block in zip(sums, (W, *U)):
            total += block
    for total in sums:
        total /= steps
    project_ball(sums[0], lam)
    return [sums[0]] + [np.maximum(total, lb) for total, lb in zip(sums[1:], lower)], U


def _start(rng, kind, alpha, m, n, d):
    if kind == "random":  # off the bound: never held
        return random_feasible_point(rng, SQ, alpha, m, n, d)
    w = np.zeros(d) if kind == "reference" else rng.standard_normal(d)
    w *= 0.8 * rng.random() / max(np.linalg.norm(w), 1e-12)
    return FeasiblePoint(w, np.full(m, m / alpha), np.full(n, n / (1.0 - alpha)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), E=st.sampled_from([1, 2, 5]),
       k1=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
       other=st.sampled_from(["none", "none", "none", "kappa2", "kappa_inf"]),
       eps=st.lists(st.sampled_from([0.5, 4.0, math.inf]), min_size=5, max_size=5),
       private_noise_free=st.booleans(),
       start=st.sampled_from(["reference", "at-bound", "at-bound", "random"]))
def test_engine_matches_row_form_steps(seed, E, k1, other, eps, private_noise_free, start):
    rng = np.random.default_rng(seed)
    m, n, d = (int(v) for v in rng.integers(1, 30, 3))
    data = random_dataset(rng, m, n, d, SQ)
    k2, kinf = other == "kappa2", other == "kappa_inf"
    reg = RegularizerConfig(alpha=float(rng.uniform(0.2, 0.8)), kappa1=k1 * SQ.B,
                            kappa2=float(k2), kappa_inf=0.5 * kinf)
    d_dp = rng.uniform(0.0, 0.3 * SQ.B, E) * rng.integers(0, 2, E)
    if private_noise_free:
        eps = [math.inf] * E
    schedules = [calibrate(PrivacyBudget(e, 0.05), reg.alpha, SQ.G, SQ.B, n, 30)
                 for e in eps[:E]]
    sigma1 = np.array([s.sigma1 for s in schedules])
    sigma2 = np.array([s.sigma2 for s in schedules])
    eta = np.column_stack([rng.uniform(0.01, 0.5, E), rng.uniform(1, 1e3, E) * m,
                           rng.uniform(1, 1e3, E) * n])
    p = _start(rng, start, reg.alpha, m, n, d)
    with pytest.MonkeyPatch.context() as patch:
        steps = count_held_steps(patch)
        got = noisy_pgd(ConvexGradient(data, reg, d_dp), p, eta, sigma1, sigma2, 30, SQ.lam,
                        reg.alpha, derive_rng(seed, "held"), average=True)
    (W, *U_avg), U_last = _row_form_steps(ConvexGradient(data, reg, d_dp), p, eta, sigma1,
                                          sigma2, 30, SQ.lam, reg.alpha,
                                          derive_rng(seed, "held"))
    held = held_counts(steps)
    free = E - max(np.flatnonzero(sigma2) + 1, default=0)  # trailing noise-free problems
    for lane in (0, 1):  # every step runs part, the hold only shrinks, and the rest are live
        assert len(held[lane]) == 30 and held[lane] == sorted(held[lane], reverse=True)
        assert all(live == E - h for h, live in steps[lane])
    assert held[1][0] <= free
    if start == "random" or k2 or kinf:
        assert held == [[0] * 30, [0] * 30]
    elif start == "reference" and k1 >= 1.0:  # w = 0 and d_dp <= 0.3 B: certified
        assert (held[0][0], held[1][0]) == (E, free)
    np.testing.assert_allclose(np.array([q.w for q in got]).T, W, rtol=1e-12, atol=1e-14)
    for lane, block in enumerate(("u_pub", "u_priv")):
        mine = np.array([getattr(q, block) for q in got])
        kept = E - held[lane][-1]  # problems kept..E-1 were held throughout: at the bound
        assert mine[kept:].tobytes() == U_avg[lane][kept:].tobytes()
        assert (U_last[lane][kept:] == (m / reg.alpha, n / (1.0 - reg.alpha))[lane]).all()
        # the others' steps saw a w that differs in the last bits
        np.testing.assert_allclose(mine[:kept], U_avg[lane][:kept], rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), E=st.sampled_from([1, 3]), lane=st.sampled_from([0, 1]),
       k1=st.floats(0.0, 3.0), w_norm=st.floats(0.0, 1.0), d_dp=st.floats(0.0, 1.0),
       log_eta=st.floats(-3.0, 12.0))
def test_certified_block_stays_at_its_bound(seed, E, lane, k1, w_norm, d_dp, log_eta):
    # for every problem that part keeps held, one row-path step from the
    # same point leaves its u bitwise where it was, and its Gram share of
    # the w-gradient matches its row share
    rng = np.random.default_rng(seed)
    m, n, d = (int(v) for v in rng.integers(1, 40, 3))
    data = random_dataset(rng, m, n, d, SQ)
    reg = RegularizerConfig(alpha=float(rng.uniform(0.1, 0.9)), kappa1=k1 * SQ.B)
    grad = ConvexGradient(data, reg, np.full(E, d_dp * SQ.B) * rng.random(E))
    W = rng.standard_normal((d, E))
    W *= w_norm * SQ.lam / np.linalg.norm(W, axis=0)
    lb = (m / reg.alpha, n / (1.0 - reg.alpha))[lane]
    U = np.full((E, (m, n)[lane]), lb)
    gram, row = np.empty((2, d + grad.REDUCTIONS, E))
    held, state = grad.part(lane, W, U, gram, held=E)
    assume(held > 0)
    assert state is None or len(state) == E - held
    live, g = grad.part(lane, W, U, row)  # the row path on all E problems
    assert live == 0
    g = g[E - held:]  # kappa2 = kappa_inf = 0: finish adds nothing
    np.testing.assert_allclose(gram[:d, E - held:], row[:d, E - held:], rtol=1e-10,
                               atol=1e-12 * np.abs(row[:d]).max(initial=1.0))
    stepped = np.maximum(U[E - held:] - 10.0 ** log_eta * g, lb)
    assert stepped.tobytes() == U[E - held:].tobytes()


@pytest.mark.parametrize("lane", [0, 1])
def test_bound_is_tight_on_an_extreme_row(lane):
    # a row of the top norm r, aligned with w, whose label has the opposite
    # sign, has |r| = x_top ||w|| + y_top: a kappa1 just under its r^2 + d_dp
    # moves the block, and the bound holds it only just over that
    rng = np.random.default_rng(5)
    base = random_dataset(rng, 20, 30, 3, SQ)
    w = np.array([0.3, -0.2, 0.5])
    x, y = ([base.public_x.copy(), base.private_x.copy()][lane],
            [base.public_y.copy(), base.private_y.copy()][lane])
    x[0], y[0] = SQ.r * w / np.linalg.norm(w), -1.0
    data = AdaptDataset(*((x, y, base.private_x, base.private_y) if lane == 0
                          else (base.public_x, base.public_y, x, y)))
    d_dp = 0.2
    worst = (SQ.r * np.linalg.norm(w) + 1.0) ** 2 + (d_dp if lane == 0 else 0.0)
    for factor, holds in ((1.0 - 1e-6, False), (1.0 + 1e-6, True)):
        reg = RegularizerConfig(alpha=0.5, kappa1=worst * factor)
        grad = ConvexGradient(data, reg, np.array([d_dp]))
        lb = (data.m / reg.alpha, data.n / (1.0 - reg.alpha))[lane]
        U = np.full((1, (data.m, data.n)[lane]), lb)
        out = np.empty((2, data.d + grad.REDUCTIONS, 1))
        assert grad.part(lane, w[:, None], U, out[0], held=1)[0] == holds
        _, g = grad.part(lane, w[:, None], U, out[1])
        assert (np.maximum(U - 1e3 * lb * g, lb) == U).all() == holds


def test_bound_declines_a_block_it_cannot_hold():
    # kappa1 = 0 with a positive residual: the u-step moves the block
    rng = np.random.default_rng(3)
    data = random_dataset(rng, 20, 30, 3, SQ)
    for reg in (RegularizerConfig(kappa1=0.0),
                RegularizerConfig(kappa1=SQ.B, kappa2=1.0),
                RegularizerConfig(kappa1=SQ.B, kappa_inf=1.0)):
        grad = ConvexGradient(data, reg, np.zeros(1))
        out = np.empty((data.d + grad.REDUCTIONS, 1))
        W = np.full((data.d, 1), 0.1)
        assert grad.part(0, W, np.full((1, data.m), data.m / reg.alpha), out, held=1)[0] == 0


@pytest.mark.parametrize("epsilons, m, n, held", [
    ([0.5, 1.0, 5.0, 15.0, math.inf], 7000, 10_000, [(5, 0), (1, 4)]),
    ([math.inf], 700, 1000, [(1, 0), (1, 0)]),
], ids=["acceptance", "non-private"])
def test_acceptance_shaped_run_holds_the_public_block(epsilons, m, n, held, monkeypatch):
    # the acceptance fixture's sweep (kappa1 = B) for one trial, in one
    # process: the public block never leaves its bound, and neither does the
    # private block of the epsilon = inf problem, listed last or first, so the
    # row path runs on the noisy problems only; the two orders give the same fits
    monkeypatch.setattr(processes, "process_slots", lambda: 1)
    records = []
    for order in dict.fromkeys([tuple(epsilons), tuple(epsilons[-1:] + epsilons[:-1])]):
        with pytest.MonkeyPatch.context() as patch:
            steps = count_held_steps(patch)
            result = run_sweep(SweepSpec(
                dataset=SyntheticShiftSpec(d=20, noise_std=0.1), algorithm="convex",
                epsilons=list(order), target_sizes=[n], trials=1, master_seed=20260826,
                model=SQ, reg=RegularizerConfig(alpha=0.5, kappa1=SQ.B), T=2000,
                baseline_T=2000, m=m, test_size=1000))
        assert steps == [[held[0]] * 2000, [held[1]] * 2000]
        records.append(sorted(result.records, key=lambda rec: rec["epsilon"]))
    for last, first in zip(records[0], records[-1]):
        assert last["epsilon"] == first["epsilon"]
        for key in ("metric_value", "objective_value"):
            assert first[key] == pytest.approx(last[key], rel=1e-12, abs=0.0)
