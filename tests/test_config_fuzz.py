"""Fuzz of the sweep config: each mapping the CLI reads, built from a small
valid one by setting or deleting a few keys to non-finite, negative,
empty, wrong-type, tiny or extreme values, either stops with exit code 2
and one error line before any output is written, or runs to finite
records."""

import contextlib
import copy
import io
import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from privadapt import cli, harness
from privadapt.data_io import SyntheticShiftSpec, generate_synthetic, write_csv
from privadapt.mechanisms import derive_rng

BASE = {
    "algorithm": "convex",
    "epsilons": [1.0, "inf"],
    "target_sizes": [20],
    "trials": 1,
    "master_seed": 0,
    "model": {"kind": "squared", "r": 1.0, "lam": 1.0},
    "reg": {"alpha": 0.5, "kappa1": 4.0},
    "T": 5,
    "baseline_T": 5,
    "d_hat": "dca",
    "m": 20,
    "test_size": 10,
}

WRONG_TYPE = st.sampled_from([None, True, "", "x", [], [1.0], {}, {"a": 1}])
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-12,
                     0.5, 1e12, 1e300, 1e308, 1.7976931348623157e308]))
SETTING = st.one_of(FLOATS, st.integers(-3, 3), WRONG_TYPE)
# counts stay small: a valid one sizes the arrays and the steps of the run
COUNT = st.one_of(st.integers(-2, 3), st.sampled_from([0.5, 2.0, math.nan, math.inf]),
                  WRONG_TYPE)
DELETE = object()

VALUES = {
    ("algorithm",): st.one_of(st.sampled_from(harness.ALGORITHMS + ("boosting",)),
                              WRONG_TYPE),
    ("epsilons",): st.one_of(
        st.lists(st.one_of(SETTING, st.sampled_from(["inf", "nan", "-inf", "1e-300"])),
                 max_size=3), SETTING),
    ("target_sizes",): st.one_of(st.lists(COUNT, max_size=3), COUNT),
    ("trials",): COUNT,
    ("master_seed",): st.one_of(st.integers(-3, 2 ** 70), FLOATS, WRONG_TYPE),
    ("T",): COUNT,
    ("baseline_T",): COUNT,
    ("d_hat",): st.one_of(SETTING, st.sampled_from(["dca", "grid", "exact", "0.25"])),
    ("m",): COUNT,
    ("test_size",): COUNT,
    ("metric",): st.one_of(st.sampled_from(["relative_mse", "accuracy", "mse"]), WRONG_TYPE),
    ("delta",): SETTING,
    ("disc_fraction",): SETTING,
    ("model",): WRONG_TYPE,
    ("model", "kind"): st.one_of(st.sampled_from(["squared", "logistic", "hinge"]), WRONG_TYPE),
    ("model", "r"): SETTING,
    ("model", "lam"): SETTING,
    ("reg",): WRONG_TYPE,
    **{("reg", key): SETTING for key in ("alpha", "kappa1", "kappa2", "kappa_inf", "lambda1",
                                         "lambda2", "lambda_inf", "mu")},
    ("bogus",): SETTING,
}
SYNTHETIC_VALUES = {
    ("synthetic",): WRONG_TYPE,
    ("synthetic", "d"): COUNT,
    ("synthetic", "label_rule"): st.one_of(
        st.sampled_from(["linear_regression", "linear_classification", "trees"]), WRONG_TYPE),
    **{("synthetic", key): SETTING for key in ("noise_std", "source_gaussian_fraction",
                                               "target_gaussian_fraction", "r")},
}
CSV_VALUES = {
    ("csv",): WRONG_TYPE,
    ("csv", "path"): st.one_of(st.sampled_from(["", "no-such-dir/data.csv"]), WRONG_TYPE),
    **{("csv", key): st.one_of(st.sampled_from(["f0", "label", "domain", "x"]), WRONG_TYPE)
       for key in ("label_column", "domain_column")},
    ("csv", "feature_columns"): st.one_of(
        st.lists(st.sampled_from(["f0", "f1", "label", "x"]), max_size=3), WRONG_TYPE),
}


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    data, _ = generate_synthetic(SyntheticShiftSpec(d=2, noise_std=0.1), 30, 60,
                                 derive_rng(2, "fuzz"))
    write_csv(data, str(path / "data.csv"))
    return path


def _apply(cfg: dict, path: tuple, value) -> None:
    """Set (or delete) the key at ``path``; a section that is no longer a
    mapping takes no keys."""
    *outer, key = path
    for name in outer:
        cfg = cfg.get(name)
        if not isinstance(cfg, dict):
            return
    if value is DELETE:
        cfg.pop(key, None)
    else:
        cfg[key] = copy.deepcopy(value)  # a drawn list or mapping is shared


def _sweep(cfg: dict, work_dir):
    """``privadapt sweep`` of cfg: (exit code, its stderr, the output path)."""
    spec, out = work_dir / "spec.json", work_dir / "out.jsonl"
    spec.write_text(json.dumps(cfg))
    if out.exists():
        os.remove(out)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["sweep", "--spec", str(spec), "--out", str(out)])
    return code, err, out


@settings(max_examples=800, deadline=None)
@given(data=st.data())
def test_sweep_config_exits_2_or_runs_to_finite_records(work_dir, data):
    section = data.draw(st.sampled_from(["synthetic", "csv"]))
    cfg = copy.deepcopy(BASE)
    if section == "synthetic":
        cfg["synthetic"], values = {"d": 2, "noise_std": 0.1}, VALUES | SYNTHETIC_VALUES
    else:
        cfg["csv"], values = {"path": str(work_dir / "data.csv")}, VALUES | CSV_VALUES
    paths = data.draw(st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=4,
                               unique=True))
    for path in paths:
        _apply(cfg, path, data.draw(st.one_of(st.just(DELETE), values[path])))

    code, err, out = _sweep(cfg, work_dir)
    assert code in (0, 2), (cfg, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("privadapt: error: ") \
            and err.getvalue().count("\n") == 1, err.getvalue()
        assert not out.exists()
        return
    records = harness.read_results(str(out)).records
    assert records
    for rec in records:
        for key in harness.NON_PRIVATE:
            assert math.isfinite(rec.get(key, 0.0)), (cfg, rec)


@pytest.mark.parametrize("noise_std, code", [(1e308, 2), (1e150, 0)])
def test_noise_std_needs_its_square_in_range(work_dir, noise_std, code):
    # 1e308 once ran, its label noise overflowing to +-inf before the clip
    cfg = BASE | {"synthetic": {"d": 2, "noise_std": noise_std}}
    assert _sweep(cfg, work_dir)[0] == code
