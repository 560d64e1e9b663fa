import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privadapt import data_io
from privadapt.core import AdaptDataset, LossModel
from privadapt.data_io import (
    DatasetManifest,
    SyntheticShiftSpec,
    generate_synthetic,
    load_dataset,
    resample_target,
    write_csv,
)
from privadapt.discrepancy import discrepancy_grid
from privadapt.baselines import TARGET_ONLY, fit_baseline
from privadapt.mechanisms import derive_rng


def _write(tmp_path, rows, header="f0,f1,label,domain"):
    path = tmp_path / "data.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


class TestLoad:
    def test_global_rescale(self, tmp_path):
        path = _write(tmp_path, ["2,0,0.5,source", "1,0,0.2,target"])
        data = load_dataset(DatasetManifest(path=path), 1.0)
        assert np.linalg.norm(data.public_x[0]) == pytest.approx(1.0)
        assert np.linalg.norm(data.private_x[0]) == pytest.approx(0.5)

    def test_missing_domain_column(self, tmp_path):
        path = _write(tmp_path, ["1,0,0.5", "0,1,0.2"], header="f0,f1,label")
        with pytest.raises(ValueError):
            load_dataset(DatasetManifest(path=path))

    def test_label_clipping_warns(self, tmp_path):
        path = _write(tmp_path, ["1,0,3,source", "0,1,0.2,target"])
        with pytest.warns(UserWarning):
            data = load_dataset(DatasetManifest(path=path))
        assert data.public_y[0] == 1.0

    def test_bad_domain_value(self, tmp_path):
        path = _write(tmp_path, ["1,0,0.5,source", "0,1,0.2,weird"])
        with pytest.raises(ValueError):
            load_dataset(DatasetManifest(path=path))

    def test_non_numeric_cell(self, tmp_path):
        path = _write(tmp_path, ["1,x,0.5,source", "0,1,0.2,target"])
        with pytest.raises(ValueError):
            load_dataset(DatasetManifest(path=path))

    @pytest.mark.parametrize("row", ["nan,0,0.5,source", "1,0,nan,source",
                                     "inf,0,0.5,source"])
    def test_rejects_non_finite_cell(self, tmp_path, row):
        path = _write(tmp_path, [row, "0,1,0.2,target"])
        with pytest.raises(ValueError, match="finite"):
            load_dataset(DatasetManifest(path=path))

    def test_needs_both_domains(self, tmp_path):
        path = _write(tmp_path, ["1,0,0.5,source", "0,1,0.2,source"])
        with pytest.raises(ValueError):
            load_dataset(DatasetManifest(path=path))

    def test_round_trip_via_write_csv(self, tmp_path):
        rng = derive_rng(0, "rt")
        spec = SyntheticShiftSpec(d=3, noise_std=0.1)
        data, _ = generate_synthetic(spec, 20, 30, rng)
        path = str(tmp_path / "rt.csv")
        write_csv(data, path)
        back = load_dataset(DatasetManifest(path=path))
        assert np.allclose(back.public_x, data.public_x)
        assert np.allclose(back.private_y, data.private_y)

    def test_round_trip_is_exact(self, tmp_path):
        # r at the data's own top norm makes the rescale factor 1.0
        data, _ = generate_synthetic(SyntheticShiftSpec(d=4, noise_std=0.3), 25, 40,
                                     derive_rng(1, "rt"))
        path = str(tmp_path / "rt.csv")
        write_csv(data, path)
        back = load_dataset(DatasetManifest(path=path), data.max_feature_norm())
        for name in ("public_x", "public_y", "private_x", "private_y"):
            assert np.array_equal(getattr(back, name), getattr(data, name))

    def test_write_csv_format(self, tmp_path):
        data = AdaptDataset([[0.1, -2.0]], [0.5], [[1e-300, 3.0]], [-1.0])
        path = tmp_path / "small.csv"
        write_csv(data, str(path))
        assert path.read_bytes() == (b"f0,f1,label,domain\r\n0.1,-2.0,0.5,source\r\n"
                                     b"1e-300,3.0,-1.0,target\r\n")

    def test_all_zero_features_rejected(self, tmp_path):
        path = _write(tmp_path, ["0,0,0.5,source", "0,0,0.2,target"])
        with pytest.raises(ValueError, match="zero"):
            load_dataset(DatasetManifest(path=path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_dataset(DatasetManifest(path=str(path)))

    def test_error_names_first_bad_row(self, tmp_path):
        path = _write(tmp_path, ["1,0,0.5,source", "0,1,0.2,target", "1,x,0.5,source"])
        with pytest.raises(ValueError, match="non-numeric cell in row 2"):
            load_dataset(DatasetManifest(path=path))
        path = _write(tmp_path, ["1,0,0.5,source", "0,1,0.2,sourcetarget"])
        with pytest.raises(ValueError, match="row 1: domain .* got 'sourcetarget'"):
            load_dataset(DatasetManifest(path=path))

    @pytest.mark.parametrize("value, loads", [
        ('"source"', True), ("sourcex", False), ("targetxy", False), ("tärget", False),
        ("源", False), (" source", False)])
    def test_domain_values(self, tmp_path, value, loads):
        # quoted values read as their content; anything else that is not
        # source/target, cut to 7 bytes or not latin-1, names its row
        path = _write(tmp_path, ["0,1,0.2,target", f"1,0,0.5,{value}"])
        if loads:
            data = load_dataset(DatasetManifest(path=path))
            assert data.public_x.tolist() == [[1.0, 0.0]]
        else:
            with pytest.raises(ValueError, match=f"row 1: domain .* got '{value}'"):
                load_dataset(DatasetManifest(path=path))

    def test_fast_parse_matches_row_parse(self, tmp_path, monkeypatch):
        data, _ = generate_synthetic(SyntheticShiftSpec(d=3, noise_std=0.1), 40, 60,
                                     derive_rng(2, "parse"))
        path = str(tmp_path / "d.csv")
        write_csv(data, path)
        fast = load_dataset(DatasetManifest(path=path))

        def reject(*args):
            raise ValueError("row by row")
        monkeypatch.setattr(data_io, "_parse_fast", reject)
        os.remove(path + ".rows")  # else the second load reads the first one's rows
        slow = load_dataset(DatasetManifest(path=path))
        for name in ("public_x", "public_y", "private_x", "private_y"):
            assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes()

    def test_feature_column_subset(self, tmp_path):
        path = _write(tmp_path, ["x,4,0.5,source", "0,3,0.2,target"])
        data = load_dataset(DatasetManifest(path=path, feature_columns=["f1"]))
        assert data.public_x.tolist() == [[1.0]] and data.private_x.tolist() == [[0.75]]

    def test_reads_what_python_float_reads(self, tmp_path):
        # "1_0" is a float to Python but not to numpy's parser: the
        # row-by-row parse reads the file
        path = _write(tmp_path, ["1_0,0,0.5,source", "0,5,0.2,target"])
        data = load_dataset(DatasetManifest(path=path))
        assert data.public_x.tolist() == [[1.0, 0.0]] and data.private_x.tolist() == [[0.0, 0.5]]

    def test_scale_comes_from_public_rows_and_target_rows_are_clipped(self, tmp_path):
        path = _write(tmp_path, ["2,0,0.5,source", "0,4,0.2,target", "0.5,0,0.1,target"])
        with pytest.warns(UserWarning, match="1 target feature row.*non-private"):
            data = load_dataset(DatasetManifest(path=path), 1.0)
        assert data.public_x.tolist() == [[1.0, 0.0]]
        assert data.private_x.tolist() == [[0.0, 1.0], [0.25, 0.0]]

    @settings(max_examples=60, deadline=None)
    @given(public=st.lists(st.tuples(st.floats(-8, 8), st.floats(-8, 8)), min_size=1,
                           max_size=3),
           private=st.lists(st.tuples(st.floats(-8, 8), st.floats(-8, 8)), min_size=2,
                            max_size=4),
           new=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), which=st.integers(0, 3))
    def test_replacing_a_target_row_changes_no_other_row(self, tmp_path_factory, public,
                                                          private, new, which):
        # the replace-one adjacency of the privacy guarantee: the public
        # rows, and every other target row, load to the same bits
        path = tmp_path_factory.mktemp("adjacent") / "data.csv"

        def load(target):
            rows = [(*row, "source") for row in public] + [(*row, "target") for row in target]
            path.write_text("f0,f1,label,domain\n"
                            + "".join(f"{a!r},{b!r},0.5,{dom}\n" for a, b, dom in rows))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # clipped target rows
                return load_dataset(DatasetManifest(path=str(path)))

        which %= len(private)
        adjacent = private[:which] + [new] + private[which + 1:]
        try:
            before = load(private)
        except ValueError as exc:  # no public row norm sets a finite scale
            assert re.search("every source feature row is zero|too small",
                             str(exc))
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                load(adjacent)
            return
        after = load(adjacent)
        assert before.public_x.tobytes() == after.public_x.tobytes()
        keep = [i for i in range(len(private)) if i != which]
        assert before.private_x[keep].tobytes() == after.private_x[keep].tobytes()
        assert np.linalg.norm(after.private_x, axis=1).max() <= 1.0 + 1e-12

    def test_tiny_public_rows_set_the_scale(self, tmp_path):
        # their squares underflow to 0, yet their norm is positive; a target
        # row the scale takes past the float range is clipped to the ball
        path = _write(tmp_path, ["0.0,1.4e-289,0.5,source", "3e-289,4e-289,0.2,target",
                                 "1e3,0,0.1,target", "0,-1e300,0.1,target"])
        with pytest.warns(UserWarning, match="3 target feature row"):
            data = load_dataset(DatasetManifest(path=path))
        assert data.public_x.tolist() == [[0.0, 1.0]]
        np.testing.assert_allclose(data.private_x, [[0.6, 0.8], [1.0, 0.0], [0.0, -1.0]],
                                   rtol=1e-15)

    def test_subnormal_public_norm_is_too_small_to_rescale(self, tmp_path):
        path = _write(tmp_path, ["0.0,5e-324,0.5,source", "1,0,0.2,target"])
        with pytest.raises(ValueError, match="too small"):
            load_dataset(DatasetManifest(path=path))

    def test_public_norm_past_the_float_range_is_too_large_to_rescale(self, tmp_path):
        # its inf norm once made a scale of 0, and a ZeroDivisionError
        path = _write(tmp_path, ["1.7976931348623157e308,1.7976931348623157e308,0.5,source",
                                 "1,0,0.2,target"])
        with pytest.raises(ValueError, match="too large to rescale"):
            load_dataset(DatasetManifest(path=path))

    def test_target_row_whose_scaled_norm_overflows_is_clipped(self, tmp_path):
        # its entries scale into the float range but its norm did not, and
        # it was zeroed in place of being clipped to the ball
        path = _write(tmp_path, ["0,1,0.5,source", "8e307,8e307,0.2,target",
                                 "1.7976931348623157e308,-1.7976931348623157e308,0.2,target"])
        with pytest.warns(UserWarning, match="2 target feature row"):
            data = load_dataset(DatasetManifest(path=path), 2.0)
        np.testing.assert_allclose(data.private_x, np.sqrt(2.0) * np.array([[1, 1], [1, -1]]),
                                   rtol=1e-15)

    def test_post_ingestion_norm_bound(self, tmp_path):
        rows = [f"{v},{w},0.1,{dom}" for v, w, dom in
                [(3, 4, "source"), (0.1, 0.2, "target"), (1, 1, "target")]]
        path = _write(tmp_path, rows)
        data = load_dataset(DatasetManifest(path=path), 2.0)
        assert data.max_feature_norm() <= 2.0 + 1e-12


class TestResample:
    def test_size_contract(self):
        rng = derive_rng(1, "rs")
        data, _ = generate_synthetic(SyntheticShiftSpec(d=2), 10, 10, rng)
        assert resample_target(data, 10, rng).n == 10
        assert resample_target(data, 4, rng).n == 4

    def test_support_preserved(self):
        rng = derive_rng(2, "rs")
        data, _ = generate_synthetic(SyntheticShiftSpec(d=2), 5, 7, rng)
        out = resample_target(data, 7, rng)
        rows = {tuple(r) for r in data.private_x}
        assert all(tuple(r) in rows for r in out.private_x)

    def test_determinism(self):
        data, _ = generate_synthetic(SyntheticShiftSpec(d=2), 5, 7,
                                     derive_rng(3, "g"))
        a = resample_target(data, 5, derive_rng(4, "r"))
        b = resample_target(data, 5, derive_rng(4, "r"))
        assert np.array_equal(a.private_x, b.private_x)

    def test_public_untouched(self):
        data, _ = generate_synthetic(SyntheticShiftSpec(d=2), 5, 7,
                                     derive_rng(5, "g"))
        out = resample_target(data, 3, derive_rng(6, "r"))
        assert np.array_equal(out.public_x, data.public_x)

    def test_rejects_bad_size(self):
        data, _ = generate_synthetic(SyntheticShiftSpec(d=2), 5, 7,
                                     derive_rng(7, "g"))
        with pytest.raises(ValueError):
            resample_target(data, 0, derive_rng(8, "r"))

    @pytest.mark.parametrize("n_new", [1, 4, 7])
    def test_rows_are_distinct(self, n_new):
        # one person fills at most one row, as the B/n sensitivity assumes
        data, _ = generate_synthetic(SyntheticShiftSpec(d=2), 5, 7, derive_rng(9, "g"))
        out = resample_target(data, n_new, derive_rng(10, "r"))
        rows = [tuple(r) for r in out.private_x]
        assert len(set(rows)) == n_new
        assert set(rows) <= {tuple(r) for r in data.private_x}

    def test_rejects_more_rows_than_the_pool(self):
        data, _ = generate_synthetic(SyntheticShiftSpec(d=2), 5, 7, derive_rng(11, "g"))
        with pytest.raises(ValueError, match=r"n_new must lie in \[1, 7\]"):
            resample_target(data, 8, derive_rng(12, "r"))

    def test_draw_from_given_rows_equals_the_pool_dataset(self):
        # drawing from rows of the base gives the rows the old pool copy gave,
        # and shares the base's public sample and its statistics
        data, _ = generate_synthetic(SyntheticShiftSpec(d=3), 6, 12, derive_rng(13, "g"))
        rows = derive_rng(14, "p").permutation(12)[4:]
        pool = AdaptDataset(data.public_x, data.public_y, data.private_x[rows],
                            data.private_y[rows])
        want = resample_target(pool, 5, derive_rng(15, "r"))
        got = resample_target(data, 5, derive_rng(15, "r"), rows)
        assert got.private_x.tobytes() == want.private_x.tobytes()
        assert got.private_y.tobytes() == want.private_y.tobytes()
        assert got.public_stats is data.public_stats is not pool.public_stats
        with pytest.raises(ValueError, match=r"n_new must lie in \[1, 8\]"):
            resample_target(data, 9, derive_rng(16, "r"), rows)


class TestSynthetic:
    def test_gaussian_fraction_is_respected(self):
        # fractions (0.95, 0.05): with m=n=1000 the Gaussian-source count
        # concentrates near 950; detect through the radius: uniform-ball
        # points in d=8 are overwhelmingly inside norm 1 while Gaussian
        # points (cov I) are overwhelmingly outside before rescaling.
        # Instead check determinism-free statistics via the mixture draw
        # itself: regenerate with fraction 0 and 1 and compare norms.
        rng = derive_rng(9, "frac")
        spec = SyntheticShiftSpec(d=8, source_gaussian_fraction=1.0,
                                  target_gaussian_fraction=0.0)
        data, _ = generate_synthetic(spec, 1000, 1000, rng)
        # after global rescale, target (pure ball) norms are far below
        # source (pure Gaussian in d=8) norms on average
        assert (np.linalg.norm(data.public_x, axis=1).mean()
                > 3 * np.linalg.norm(data.private_x, axis=1).mean())

    def test_binomial_mixture_count(self):
        # in d = 50 the N(0, I) norms concentrate near sqrt(50) and the unit
        # ball's near 1, so after the common rescale (the largest public row,
        # a Gaussian one near 9, goes to r = 1) Gaussian rows have norms
        # above 0.6 and ball rows below 0.12
        spec = SyntheticShiftSpec(d=50, source_gaussian_fraction=0.95,
                                  target_gaussian_fraction=0.05)
        data, _ = generate_synthetic(spec, 1000, 1000, derive_rng(10, "mix"))
        src_gauss = int((np.linalg.norm(data.public_x, axis=1) > 0.4).sum())
        tgt_gauss = int((np.linalg.norm(data.private_x, axis=1) > 0.4).sum())
        assert abs(src_gauss - 950) < 40  # ~5 sigma of Binomial(1000, .95)
        assert abs(tgt_gauss - 50) < 40

    def test_no_shift_small_discrepancy(self):
        spec = SyntheticShiftSpec(d=2, source_gaussian_fraction=1.0,
                                  target_gaussian_fraction=1.0, noise_std=0.0)
        data, _ = generate_synthetic(spec, 2000, 2000, derive_rng(11, "ns"))
        model = LossModel("squared", r=1.0, lam=1.0)
        est = discrepancy_grid(data, model, grid_points=201)
        assert est.d_hat < 0.1

    def test_separable_classification_realizable(self):
        spec = SyntheticShiftSpec(d=2, label_rule="linear_classification",
                                  noise_std=0.0)
        # Seed chosen so the private draw has a comfortable minimum margin
        # (~0.02) with respect to the true separator; barely-separable draws
        # stall constrained logistic descent short of perfect accuracy.
        data, w_star = generate_synthetic(spec, 30, 60, derive_rng(9, "cls"))
        margins = data.private_y * (data.private_x @ w_star)
        assert margins.min() > 0.02
        model = LossModel("logistic", r=1.0, lam=1.0)
        res = fit_baseline(TARGET_ONLY, data, model, T=4000)
        pred = np.where(data.private_x @ res.point.w >= 0, 1.0, -1.0)
        assert (pred == data.private_y).mean() == 1.0

    def test_scale_comes_from_public_rows_and_target_rows_are_clipped(self):
        # load_dataset's rule: a target draw far outside the public one
        # neither moves the public rows nor leaves the r-ball
        draws = {}
        # the target: the uniform ball, then N(0, I), whose norms in d = 3
        # mostly exceed r = 0.5
        for frac in (0.0, 1.0):
            spec = SyntheticShiftSpec(d=3, source_gaussian_fraction=0.0,
                                      target_gaussian_fraction=frac)
            draws[frac], _ = generate_synthetic(spec, 300, 300, derive_rng(14, "scale"), 0.5)
        for data in draws.values():  # the public ball draw lies inside the ball: no rescale
            assert 0.475 < np.linalg.norm(data.public_x, axis=1).max() <= 0.5
            assert np.linalg.norm(data.private_x, axis=1).max() <= 0.5 * (1.0 + 1e-12)
        assert draws[0.0].public_x.tobytes() == draws[1.0].public_x.tobytes()
        assert draws[0.0].public_y.tobytes() == draws[1.0].public_y.tobytes()
        clipped = np.linalg.norm(draws[1.0].private_x, axis=1) > 0.5 * (1.0 - 1e-12)
        assert clipped.sum() > 200  # most Gaussian target rows lay outside the ball

    def test_labels_clipped_and_wstar_unit(self):
        spec = SyntheticShiftSpec(d=3, noise_std=0.5)
        data, w_star = generate_synthetic(spec, 200, 200, derive_rng(13, "cl"))
        assert np.abs(data.public_y).max() <= 1.0
        assert np.linalg.norm(w_star) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticShiftSpec(d=2, source_gaussian_fraction=1.5)
        with pytest.raises(ValueError):
            SyntheticShiftSpec(d=2, label_rule="trees")
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticShiftSpec(d=2), 0, 5, derive_rng(0))


# the radius a CSV is scaled to, once the manifest's r_target, is load_dataset's
# argument; it is checked before the file is opened (x.csv does not exist)
def test_manifest_validation():
    with pytest.raises(ValueError):
        load_dataset(DatasetManifest(path="x.csv"), 0.0)


@pytest.mark.parametrize("fields", [{"path": None}, {"path": ["a.csv"]},
                                    {"feature_columns": True}, {"feature_columns": [1.0]},
                                    {"label_column": {}}, {"domain_column": None}])
def test_manifest_rejects_what_is_not_a_name(fields):
    # a list as a sweep's csv path once escaped the CLI as a TypeError traceback
    with pytest.raises(ValueError, match="must be strings"):
        DatasetManifest(**{"path": "x.csv"} | fields)


@pytest.mark.parametrize("r_target", [float("nan"), float("inf"), -1.0])
def test_manifest_rejects_non_finite_and_negative_r_target(r_target):
    with pytest.raises(ValueError, match="r must be positive and finite"):
        load_dataset(DatasetManifest(path="x.csv"), r_target)


@pytest.mark.parametrize("field, value, match", [
    ("noise_std", float("nan"), "noise_std must be finite and >= 0"),
    ("noise_std", float("inf"), "noise_std must be finite and >= 0"),
    ("noise_std", -1.0, "noise_std must be finite and >= 0"),
    ("noise_std", 1e308, "with its square in the float range"),
    ("r", float("nan"), "r must be positive and finite"),
    ("r", float("inf"), "r must be positive and finite"),
    ("r", -1.0, "r must be positive and finite"),
    ("r", 0.0, "r must be positive and finite")])
def test_synthetic_spec_rejects_bad_noise_std_and_r(field, value, match):
    # a NaN or negative noise_std once meant noise-free labels; r, once a
    # field of the spec, is generate_synthetic's argument
    with pytest.raises(ValueError, match=match):
        if field == "r":
            generate_synthetic(SyntheticShiftSpec(d=2), 5, 5, derive_rng(0), value)
        else:
            SyntheticShiftSpec(d=2, **{field: value})
