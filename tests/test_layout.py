"""The feature layout of AdaptDataset: every way a dataset is made stores its
features with unit stride along the sample axis, holds the same values as
the row-major arrays it stands for, and makes no second copy of them."""

import csv
import errno
import math
import os
import tracemalloc

import numpy as np
import pytest

from privadapt import data_io, harness
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


def _csv(tmp_path, rows_only=False, m=30, stretch=1.0):
    """A generated CSV, its target rows stretched by ``stretch``, and its
    rows read back row-major, as load_dataset's rule loads them: the
    public rows' top norm sets the scale and target rows still outside the
    unit ball are clipped to it.  With rows_only, one cell numpy's parser
    rejects sends load_dataset down its row-by-row path."""
    data, _ = generate_synthetic(SyntheticShiftSpec(d=3), m, 45, derive_rng(5, "csv"))
    path = tmp_path / "data.csv"
    write_csv(AdaptDataset(data.public_x, data.public_y, data.private_x * stretch,
                           data.private_y), str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if rows_only:
        rows[0][0] = "1_0"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([[f"f{j}" for j in range(3)] + ["label", "domain"]] + rows)
    num = np.array([[float(v) for v in row[:-1]] for row in rows])
    src = np.array([row[-1] == "source" for row in rows])
    xs, xt = num[src, :-1], num[~src, :-1]
    top = np.linalg.norm(xs, axis=1).max()
    xs, xt = xs * (1.0 / top), xt * (1.0 / top)
    norms = np.linalg.norm(xt, axis=1)
    xt[norms > 1.0] *= (1.0 / norms[norms > 1.0])[:, None]
    return str(path), (xs, num[src, -1], xt, num[~src, -1])


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


def _load_clip(tmp_path):
    # three public rows set the scale, and the stretched target rows past
    # their top norm are clipped to the unit ball, where a scale set by
    # both samples would have shrunk every row
    path, arrays = _csv(tmp_path, m=3, stretch=2.0)
    with pytest.warns(UserWarning, match="target feature row.*clipped"):
        return load_dataset(DatasetManifest(path)), arrays


def _load_cached(tmp_path):
    # the second load reads the rows the first one kept in the sidecar
    path, arrays = _csv(tmp_path)
    load_dataset(DatasetManifest(path))

    def parse(*args):
        raise AssertionError("a load of unchanged bytes reads the sidecar")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_io, "_parse_fast", parse)
        patch.setattr(data_io, "_parse_rows", parse)
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
    _load_clip, _load_cached, _resample_target, _cell_data_synthetic, _cell_data_csv,
], ids=lambda f: f.__name__.lstrip("_"))
def test_every_constructor_stores_sample_major_features(make, tmp_path):
    data, (xs, ys, xt, yt) = make(tmp_path)
    assert has_unit_sample_stride(data.public_x) and has_unit_sample_stride(data.private_x)
    for got, want in zip((data.public_x, data.public_y, data.private_x, data.private_y),
                         (xs, ys, xt, yt)):
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()  # bitwise


def test_dataset_checks_make_no_block_sized_temporary():
    # the finiteness and label checks reduce each array as it lies: a
    # dataset built from sample-major blocks peaks far below one block (a
    # bool temporary of a 2 000 x 100 block would be 6.2 % of its bytes)
    rng = np.random.default_rng(0)
    arrays = [a for _ in range(2) for a in (
        np.asfortranarray(rng.uniform(-0.05, 0.05, (2000, 100))), rng.uniform(-1, 1, 2000))]
    tracemalloc.start()
    try:
        data = AdaptDataset(*arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(has_unit_sample_stride(x) for x in (data.public_x, data.private_x))
    assert peak < 0.02 * sum(a.nbytes for a in arrays)


# load_dataset's tracemalloc peak over the bytes it returns, on the CSV below,
# as measured for the row-major layout: the parsed rows held while the
# features are copied out of them once.  A copy of the features made while
# the parse is held, or a third copy, adds about 0.95 to the ratio; a second
# copy made after the parse is freed stays under it.
LOAD_PEAK_RATIO = 2.2194
# the peak over the same bytes from the read of a map of the blocks to the
# end of the load, map included: the load holds nothing else of their size
MAP_PEAK_RATIO = 1.15


def _load_peak(tmp_path, monkeypatch, path_taken: str) -> None:
    """Check the peak of a load that reads the CSV's sidecar ("hit"),
    parses the CSV and writes its sidecar ("miss"), or parses it and keeps
    none ("no sidecar").  tracemalloc does not see an anonymous map, so a
    map's bytes count from the start of the call that reads into it.  A
    miss first peaks while it writes the sidecar from the parsed rows,
    which numpy's parser allocates once to a bound on their count: the
    rows, the row index arrays and one column's gather (about 1.18 times
    the bytes returned here)."""
    data, _ = generate_synthetic(SyntheticShiftSpec(d=20), 1500, 2500, np.random.default_rng(0))
    path = str(tmp_path / "data.csv")
    write_csv(data, path)
    load_dataset(DatasetManifest(path))  # first-call set-up stays out of the peak
    if path_taken != "hit":
        os.remove(path + ".rows")
    if path_taken == "no sidecar":
        monkeypatch.setattr(data_io.tempfile, "mkstemp", _refuse)
    parses, parse, read_sidecar = [], data_io._parse_fast, data_io._read_sidecar
    monkeypatch.setattr(data_io, "_parse_fast", lambda *args: parses.append(1) or parse(*args))
    before, mapped = 0, []

    def read(*args):
        nonlocal before
        before = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        blocks = read_sidecar(*args)
        mapped.append(sum(b.nbytes for b in blocks))
        return blocks
    monkeypatch.setattr(data_io, "_read_sidecar", read)
    tracemalloc.start()
    try:
        out = load_dataset(DatasetManifest(path))
        held = tracemalloc.get_traced_memory()[1] + sum(mapped)
    finally:
        tracemalloc.stop()
    assert len(parses) == (path_taken != "hit")
    assert len(mapped) == (path_taken != "no sidecar")
    returned = sum(a.nbytes for a in (out.public_x, out.public_y, out.private_x, out.private_y))
    # 0.01 for the row index arrays and the interpreter's own small objects
    assert max(before, held) / returned <= LOAD_PEAK_RATIO + 0.01
    if mapped:
        assert held / returned <= MAP_PEAK_RATIO
    if path_taken == "hit":
        assert before / returned <= MAP_PEAK_RATIO
    assert math.isclose(out.max_feature_norm(), 1.0)


def _refuse(*args, **kwargs):
    raise PermissionError(errno.EACCES, "Permission denied")


def test_load_dataset_makes_no_second_copy(tmp_path, monkeypatch):
    _load_peak(tmp_path, monkeypatch, "miss")


def test_sidecar_load_makes_no_second_copy(tmp_path, monkeypatch):
    _load_peak(tmp_path, monkeypatch, "hit")


def test_load_without_a_sidecar_makes_no_second_copy(tmp_path, monkeypatch):
    _load_peak(tmp_path, monkeypatch, "no sidecar")
