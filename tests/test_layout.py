"""The feature layout of AdaptDataset: every way a dataset is made stores its
features with unit stride along the sample axis, holds the same values as
the row-major arrays it stands for, and makes no second copy of them."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from privadapt import harness
from privadapt.core import AdaptDataset, LossModel
from privadapt.data_io import (
    DatasetManifest,
    SyntheticShiftSpec,
    _draw_domain,
    _labels,
    generate_synthetic,
    load_dataset,
    resample_target,
    write_csv,
)
from privadapt.mechanisms import derive_rng

SPEC, R = SyntheticShiftSpec(d=3, noise_std=0.1), 0.5


def has_unit_sample_stride(x):
    return x.strides[0] == x.itemsize


def _synthetic_reference(spec, m, n, rng):
    """generate_synthetic's draw at radius R on row-major arrays: draw; if
    the public rows' top norm exceeds R, scale both samples by R over it;
    clip the target rows still outside the R-ball to it; label."""
    w_star = rng.standard_normal(spec.d)
    w_star /= max(np.linalg.norm(w_star), 1e-12)
    xs = _draw_domain(spec, m, spec.source_gaussian_fraction, R, rng)
    xt = _draw_domain(spec, n, spec.target_gaussian_fraction, R, rng)
    top = np.linalg.norm(xs, axis=1).max()
    if top > R:
        xs, xt = xs * (R / top), xt * (R / top)
    norms = np.linalg.norm(xt, axis=1)
    xt[norms > R] *= (R / norms[norms > R])[:, None]
    return xs, _labels(spec, xs, w_star, rng), xt, _labels(spec, xt, w_star, rng)


def _csv(tmp_path, rows_only=False):
    """A generated CSV and its rows read back row-major; with rows_only, one
    cell numpy's parser rejects sends load_dataset down its row-by-row path."""
    data, _ = generate_synthetic(SyntheticShiftSpec(d=3), 30, 45, derive_rng(5, "csv"))
    path = tmp_path / "data.csv"
    write_csv(data, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if rows_only:
        rows[0][0] = "1_0"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([[f"f{j}" for j in range(3)] + ["label", "domain"]] + rows)
    num = np.array([[float(v) for v in row[:-1]] for row in rows])
    src = np.array([row[-1] == "source" for row in rows])
    xs, xt = num[src, :-1], num[~src, :-1]
    top = max(np.linalg.norm(xs, axis=1).max(), np.linalg.norm(xt, axis=1).max())
    return str(path), (xs * (1.0 / top), num[src, -1], xt * (1.0 / top), num[~src, -1])


def _direct(tmp_path):
    rng = np.random.default_rng(1)
    arrays = rng.random((6, 4)) - 0.5, rng.uniform(-1, 1, 6), rng.random((5, 4)) - 0.5, \
        rng.uniform(-1, 1, 5)
    return AdaptDataset(*arrays), arrays


def _generate_synthetic(tmp_path):
    data, _ = generate_synthetic(SPEC, 40, 60, derive_rng(3, "gen"), R)
    return data, _synthetic_reference(SPEC, 40, 60, derive_rng(3, "gen"))


def _generate_synthetic_clip(tmp_path):
    # three public rows set the scale, and a target row past their top norm
    # is clipped to the R-ball, where a scale set by both samples would not
    # have put the public top at R
    data, _ = generate_synthetic(SPEC, 3, 60, derive_rng(2, "gen"), R)
    xs, ys, xt, yt = _synthetic_reference(SPEC, 3, 60, derive_rng(2, "gen"))
    assert np.linalg.norm(xs, axis=1).max() == pytest.approx(R, rel=1e-12)
    assert np.isclose(np.linalg.norm(xt, axis=1), R, rtol=1e-12).any()
    return data, (xs, ys, xt, yt)


def _load_numpy_path(tmp_path):
    path, arrays = _csv(tmp_path)
    return load_dataset(DatasetManifest(path)), arrays


def _load_row_path(tmp_path):
    path, arrays = _csv(tmp_path, rows_only=True)
    return load_dataset(DatasetManifest(path)), arrays


def _resample_target(tmp_path):
    base, _ = generate_synthetic(SPEC, 20, 30, derive_rng(4, "gen"), R)
    idx = derive_rng(4, "resample").choice(base.n, 20, replace=False)
    rows = np.ascontiguousarray(base.private_x)[idx]  # the row-major gather
    data = resample_target(base, 20, derive_rng(4, "resample"))
    return data, (base.public_x, base.public_y, rows, base.private_y[idx])


def _cell_data_synthetic(tmp_path):
    spec = harness.SweepSpec(dataset=SPEC, algorithm="convex", epsilons=[1.0],
                             target_sizes=[25], trials=1, master_seed=9,
                             model=LossModel("squared", R, 1.0), m=30, test_size=10)
    train, _, _ = harness._cell_data(spec, None, 25, 0, 0)
    xs, ys, xt, yt = _synthetic_reference(SPEC, 30, 35, derive_rng(9, "data", 0, 0))
    return train, (xs, ys, xt[:25], yt[:25])


def _cell_data_csv(tmp_path):
    path, _ = _csv(tmp_path)
    base = load_dataset(DatasetManifest(path))
    spec = harness.SweepSpec(dataset=DatasetManifest(path), algorithm="convex",
                             epsilons=[1.0], target_sizes=[20], trials=1, master_seed=9,
                             model=LossModel("squared", 1.0, 1.0), test_size=10)
    train, _, _ = harness._cell_data(spec, base, 20, 0, 0)
    rng = derive_rng(9, "data", 0, 0)
    pool = rng.permutation(base.n)[10:]
    idx = rng.choice(pool.size, 20, replace=False)
    rows = np.ascontiguousarray(base.private_x)[pool][idx]
    return train, (base.public_x, base.public_y, rows, base.private_y[pool][idx])


@pytest.mark.parametrize("make", [
    _direct, _generate_synthetic, _generate_synthetic_clip, _load_numpy_path, _load_row_path,
    _resample_target, _cell_data_synthetic, _cell_data_csv,
], ids=lambda f: f.__name__.lstrip("_"))
def test_every_constructor_stores_sample_major_features(make, tmp_path):
    data, (xs, ys, xt, yt) = make(tmp_path)
    assert has_unit_sample_stride(data.public_x) and has_unit_sample_stride(data.private_x)
    for got, want in zip((data.public_x, data.public_y, data.private_x, data.private_y),
                         (xs, ys, xt, yt)):
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()  # bitwise


# load_dataset's tracemalloc peak over the bytes it returns, on the CSV below,
# as measured for the row-major layout: the parsed rows held while the
# features are copied out of them once.  A copy of the features made while
# the parse is held, or a third copy, adds about 0.95 to the ratio; a second
# copy made after the parse is freed stays under it.
LOAD_PEAK_RATIO = 2.2194


def test_load_dataset_makes_no_second_copy(tmp_path):
    data, _ = generate_synthetic(SyntheticShiftSpec(d=20), 1500, 2500, np.random.default_rng(0))
    path = str(tmp_path / "data.csv")
    write_csv(data, path)
    load_dataset(DatasetManifest(path))  # first-call set-up stays out of the peak
    tracemalloc.start()
    try:
        out = load_dataset(DatasetManifest(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in (out.public_x, out.public_y, out.private_x, out.private_y))
    # 0.01 for the row index arrays and the interpreter's own small objects
    assert peak / returned <= LOAD_PEAK_RATIO + 0.01
    assert math.isclose(out.max_feature_norm(), 1.0)
