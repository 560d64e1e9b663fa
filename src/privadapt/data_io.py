"""Dataset ingestion, rescaling to the bounded-norm geometry, target
resampling, and synthetic domain-shift generation.

CSV schema: header ``f0,...,f{d-1},label,domain`` with domain values
``source`` / ``target``.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .core import AdaptDataset, row_norms, sample_major, take_rows


@dataclass(frozen=True)
class DatasetManifest:
    path: str
    feature_columns: list[str] | None = None  # None -> every f* column
    label_column: str = "label"
    domain_column: str = "domain"
    r_target: float = 1.0

    def __post_init__(self):
        if self.r_target <= 0:
            raise ValueError("r_target must be positive")


@dataclass(frozen=True)
class SyntheticShiftSpec:
    """Source/target mixture of a shared Gaussian and the uniform ball.

    Each source point is Gaussian with probability
    ``source_gaussian_fraction`` and otherwise uniform on the radius-r
    ball; likewise the target with ``target_gaussian_fraction``.  Labels
    come from a hidden weight vector.
    """

    d: int
    base_mean: np.ndarray | None = None
    base_cov: np.ndarray | None = None
    source_gaussian_fraction: float = 0.95
    target_gaussian_fraction: float = 0.05
    label_rule: str = "linear_regression"
    noise_std: float = 0.0
    r: float = 1.0

    def __post_init__(self):
        for frac in (self.source_gaussian_fraction, self.target_gaussian_fraction):
            if not 0.0 <= frac <= 1.0:
                raise ValueError("mixture fractions must lie in [0, 1]")
        if self.label_rule not in ("linear_regression", "linear_classification"):
            raise ValueError(f"unknown label_rule {self.label_rule!r}")
        if self.d < 1:
            raise ValueError("d must be >= 1")


def _uniform_ball(rng: np.random.Generator, count: int, d: int, r: float) -> np.ndarray:
    g = rng.standard_normal((count, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = r * rng.random(count) ** (1.0 / d)
    return g * radii[:, None]


def _draw_domain(spec: SyntheticShiftSpec, count: int, gaussian_fraction: float,
                 rng: np.random.Generator) -> np.ndarray:
    mean = (np.zeros(spec.d) if spec.base_mean is None
            else np.asarray(spec.base_mean, dtype=float))
    cov = (np.eye(spec.d) if spec.base_cov is None
           else np.asarray(spec.base_cov, dtype=float))
    from_gaussian = rng.random(count) < gaussian_fraction
    x = _uniform_ball(rng, count, spec.d, spec.r)
    k = int(from_gaussian.sum())
    if k:
        x[from_gaussian] = rng.multivariate_normal(mean, cov, size=k)
    return x


def _labels(spec: SyntheticShiftSpec, x: np.ndarray, w_star: np.ndarray,
            rng: np.random.Generator) -> np.ndarray:
    raw = x @ w_star
    if spec.label_rule == "linear_classification":
        y = np.where(raw >= 0.0, 1.0, -1.0)
    else:
        if spec.noise_std > 0:
            raw = raw + spec.noise_std * rng.standard_normal(len(raw))
        y = np.clip(raw, -1.0, 1.0)
    return y


def generate_synthetic(spec: SyntheticShiftSpec, m: int, n: int,
                       rng: np.random.Generator) -> tuple[AdaptDataset, np.ndarray]:
    """Draw an (m public, n private) dataset; returns it with the hidden w*."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    w_star = rng.standard_normal(spec.d)
    w_star /= max(np.linalg.norm(w_star), 1e-12)
    xs = _draw_domain(spec, m, spec.source_gaussian_fraction, rng)
    xt = _draw_domain(spec, n, spec.target_gaussian_fraction, rng)
    # Rescale globally so every row respects the bounded-norm geometry.
    top = max(np.linalg.norm(xs, axis=1).max(), np.linalg.norm(xt, axis=1).max())
    if top > spec.r:
        xs *= spec.r / top  # both are fresh draws
        xt *= spec.r / top
    # each draw is labelled, then copied into the dataset layout and freed
    ys = _labels(spec, xs, w_star, rng)
    xs = sample_major(xs)
    yt = _labels(spec, xt, w_star, rng)
    xt = sample_major(xt)
    return AdaptDataset(xs, ys, xt, yt), w_star


DOMAINS = (b"source", b"target")  # as the fast parse reads them


def _parse_fast(fh, header: list[str], cols: list[str], domain_col: str):
    """Numeric columns ``cols`` and the domain column of every data row, in
    one pass of numpy's parser; raises ValueError on any row it rejects,
    which includes a domain value that latin-1 cannot encode."""
    index = {c: i for i, c in enumerate(header)}  # last of a repeated name, as csv.DictReader
    # "S7" holds either domain value plus one byte, so a longer value is cut
    # to 7 bytes and can never read as a valid one
    dtype = np.dtype([("num", float, (len(cols),)), ("domain", "S7")])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows, or blank lines
        rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, quotechar='"',
                          usecols=[index[c] for c in cols] + [index[domain_col]], ndmin=1)
    return rows["num"], rows["domain"]


def _parse_rows(path: str, reader: csv.DictReader, cols: list[str], domain_col: str):
    """The same columns parsed row by row with Python's ``float``; raises
    ValueError naming the first row with a non-numeric cell or a domain
    other than source/target."""
    num, domains = [], []
    for i, row in enumerate(reader):
        try:
            num.append([float(row[c]) for c in cols])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: non-numeric cell in row {i}: {exc}")
        if row[domain_col] not in ("source", "target"):
            raise ValueError(
                f"{path}: row {i}: domain must be 'source' or "
                f"'target', got {row[domain_col]!r}")
        domains.append(row[domain_col].encode())
    return np.array(num, dtype=float).reshape(len(num), len(cols)), np.array(domains)


def load_dataset(manifest: DatasetManifest) -> AdaptDataset:
    """Read a CSV, route rows by domain, and rescale features globally so
    the max row norm equals ``r_target``; regression labels are clipped
    to [-1, 1] with a warning.

    numpy's parser reads the file in one pass; a file it rejects, or with
    a bad domain value, is parsed again row by row, which names the first
    offending row (or reads what Python's ``float`` accepts and numpy's
    parser does not).
    """
    path = manifest.path
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty file")
        header = next(csv.reader([first]))
        if manifest.feature_columns is None:
            feat_cols = [c for c in header
                         if c not in (manifest.label_column, manifest.domain_column)]
        else:
            feat_cols = list(manifest.feature_columns)
        for col in feat_cols + [manifest.label_column, manifest.domain_column]:
            if col not in header:
                raise ValueError(f"{path}: missing column {col!r}")
        cols = feat_cols + [manifest.label_column]
        try:
            num, domains = _parse_fast(fh, header, cols, manifest.domain_column)
        except ValueError:
            num = None
        if num is None or not np.isin(domains, DOMAINS).all():
            fh.seek(0)
            num, domains = _parse_rows(path, csv.DictReader(fh), cols, manifest.domain_column)
    if not np.all(np.isfinite(num)):
        raise ValueError(f"{path}: features and labels must be finite")
    src = domains == DOMAINS[0]
    if not src.any() or src.all():
        raise ValueError(f"{path}: need at least one source and one target row")
    src, tgt = np.flatnonzero(src), np.flatnonzero(~src)
    xs, ys = take_rows(num[:, :-1], src), num[src, -1]
    xt, yt = take_rows(num[:, :-1], tgt), num[tgt, -1]
    del num, domains  # free the parsed rows before the passes below (peak memory)
    top = max(row_norms(xs).max(), row_norms(xt).max())
    if top == 0:
        raise ValueError(f"{path}: every feature row is zero, so no rescaling "
                         "can meet the feature-norm bound")
    scale = manifest.r_target / top
    xs *= scale  # both are copies made by take_rows
    xt *= scale
    clipped = int((np.abs(ys) > 1).sum() + (np.abs(yt) > 1).sum())
    if clipped:
        warnings.warn(f"{clipped} label(s) outside [-1, 1] were clipped")
        ys, yt = np.clip(ys, -1.0, 1.0), np.clip(yt, -1.0, 1.0)
    return AdaptDataset(xs, ys, xt, yt)


def resample_target(data: AdaptDataset, n_new: int,
                    rng: np.random.Generator) -> AdaptDataset:
    """Bootstrap the private sample to size n_new; public sample unchanged."""
    if n_new < 1:
        raise ValueError("n_new must be >= 1")
    idx = rng.integers(0, data.n, size=n_new)
    return AdaptDataset(data.public_x, data.public_y,
                        take_rows(data.private_x, idx), data.private_y[idx])


def write_csv(data: AdaptDataset, path: str) -> None:
    """The CSV schema above, one ``repr`` per value, rows ended by CRLF as
    ``csv.writer`` ends them."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"f{j}" for j in range(data.d)] + ["label", "domain"]) + "\r\n")
        for x, y, domain in ((data.public_x, data.public_y, "source"),
                             (data.private_x, data.private_y, "target")):
            fh.writelines(",".join(map(repr, row)) + f",{label!r},{domain}\r\n"
                          for row, label in zip(x.tolist(), y.tolist()))
