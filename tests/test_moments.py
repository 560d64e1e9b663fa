"""The dataset as the one owner of each sample's squared-loss moments and
norm bounds: formed once, read by every squared-loss consumer, never by a
logistic run."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privadapt.baselines import TARGET_ONLY, fit_baseline
from privadapt.convex_solver import ConvexRunConfig, fit_convex
from privadapt.core import AdaptDataset, LossModel, RegularizerConfig, non_private, row_norms
from privadapt.discrepancy import discrepancy_dca
from privadapt.nonconvex_solver import NonConvexRunConfig, fit_nonconvex
from tests.test_convex_objective import random_dataset

SQ = LossModel("squared", r=1.0, lam=1.0)
LG = LossModel("logistic", r=1.0, lam=1.0)


@pytest.fixture
def formed(monkeypatch):
    """The datasets whose moments were formed, one entry per formation."""
    calls = []
    original = AdaptDataset.moments.func

    def counted(self):
        calls.append(self)
        return original(self)
    prop = functools.cached_property(counted)
    prop.__set_name__(AdaptDataset, "moments")
    monkeypatch.setattr(AdaptDataset, "moments", prop)
    return calls


def _held_fit(data):
    # kappa1 = B from the reference point holds the public block at its bound
    reg = RegularizerConfig(alpha=0.5, kappa1=SQ.B)
    return fit_convex(data, non_private(), reg, ConvexRunConfig(T=20), SQ, d_dp=0.1)


CONSUMERS = {
    "discrepancy_dca": lambda data: discrepancy_dca(data, SQ),
    "target_only": lambda data: fit_baseline(TARGET_ONLY, data, SQ, T=20),
    "held_fit_convex": _held_fit,
}


def test_each_sample_moments_formed_once_for_every_consumer(formed):
    data = random_dataset(np.random.default_rng(1), 30, 40, 3, SQ)
    for consume in CONSUMERS.values():
        consume(data)
    assert formed == [data]


@pytest.mark.parametrize("name", CONSUMERS)
def test_each_consumer_reads_the_dataset_moments(formed, name):
    # on a fresh dataset the consumer forms them itself, through the cache
    data = random_dataset(np.random.default_rng(2), 30, 40, 3, SQ)
    CONSUMERS[name](data)
    assert formed == [data]


def test_moments_are_the_plain_products():
    data = random_dataset(np.random.default_rng(3), 25, 35, 4, SQ)
    for (x, y), (G, b, c) in zip(data.samples, data.moments):
        assert G.tobytes() == (x.T @ x).tobytes()
        assert b.tobytes() == (x.T @ y).tobytes()
        assert c == float(y @ y)


def test_logistic_fit_never_forms_moments(formed):
    rng = np.random.default_rng(4)
    data = AdaptDataset(rng.uniform(-0.5, 0.5, (30, 3)), rng.choice([-1.0, 1.0], 30),
                        rng.uniform(-0.5, 0.5, (40, 3)), rng.choice([-1.0, 1.0], 40))
    reg = RegularizerConfig(alpha=0.5, lambda1=0.5, lambda2=0.5, lambda_inf=0.5)
    fit_nonconvex(data, non_private(), reg, NonConvexRunConfig(T=20), LG, d_dp=0.1)
    fit_baseline(TARGET_ONLY, data, LG, T=20)
    assert formed == []
    assert "moments" not in vars(data)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), min_size=2,
                     max_size=8),
       split=st.integers(1, 7), exponent=st.sampled_from([0, -160, -300, -320, 150, 300]))
def test_max_feature_norm_equals_the_two_pass_value(rows, split, exponent):
    # tiny, huge and ordinary rows, as in test_row_norms_of_tiny_and_huge_rows
    x = np.array(rows) * 10.0 ** exponent
    split = min(split, len(rows) - 1)
    y = np.linspace(-1.0, 1.0, len(rows))
    data = AdaptDataset(x[:split], y[:split], x[split:], y[split:])
    two_pass = float(max(row_norms(data.public_x).max(), row_norms(data.private_x).max()))
    got = data.max_feature_norm()
    assert np.float64(got).tobytes() == np.float64(two_pass).tobytes()
    assert data.tops == tuple((row_norms(x).max(), np.abs(y).max()) for x, y in data.samples)
