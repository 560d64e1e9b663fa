"""Dataset ingestion, rescaling to the bounded-norm geometry, target
resampling, and synthetic domain-shift generation.  Both data constructors
take the feature radius r as an argument, which the sweep and the CLI take
from the loss (``LossModel.r``), the one radius its constants assume.

CSV schema: header ``f0,...,f{d-1},label,domain`` with domain values
``source`` / ``target``.  A CSV that is a regular file keeps its parsed
rows in a sidecar, ``<path>.rows``, keyed by a SHA-256 of its bytes, so a
file is parsed once per version however many runs load it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import stat
import sys
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .core import AdaptDataset, check_integer, row_norms, sample_major, take_rows


@dataclass(frozen=True)
class DatasetManifest:
    path: str
    feature_columns: list[str] | None = None  # None -> every f* column
    label_column: str = "label"
    domain_column: str = "domain"

    def __post_init__(self):
        columns = [] if self.feature_columns is None else self.feature_columns
        if not (isinstance(columns, list) and all(isinstance(v, str) for v in (
                self.path, self.label_column, self.domain_column, *columns))):
            raise ValueError("the path and the column names must be strings, and "
                             "feature_columns None or a list of them")


@dataclass(frozen=True)
class SyntheticShiftSpec:
    """Source/target mixture of the standard Gaussian N(0, I) and the
    uniform ball.

    Each source point is Gaussian with probability
    ``source_gaussian_fraction`` and otherwise uniform on the ball of
    ``generate_synthetic``'s radius r; likewise the target with
    ``target_gaussian_fraction``.  Labels come from a hidden weight vector.
    """

    d: int
    source_gaussian_fraction: float = 0.95
    target_gaussian_fraction: float = 0.05
    label_rule: str = "linear_regression"
    noise_std: float = 0.0

    def __post_init__(self):
        for frac in (self.source_gaussian_fraction, self.target_gaussian_fraction):
            if not 0.0 <= frac <= 1.0:
                raise ValueError("mixture fractions must lie in [0, 1]")
        try:  # the label noise's scale, squared in range as LossModel's B, G and beta
            in_range = 0.0 <= self.noise_std and math.pow(self.noise_std, 2) < math.inf
        except OverflowError:
            in_range = False
        if not in_range:  # NaN fails too
            raise ValueError(f"noise_std must be finite and >= 0, with its square in the "
                             f"float range, got {self.noise_std!r}")
        if self.label_rule not in ("linear_regression", "linear_classification"):
            raise ValueError(f"unknown label_rule {self.label_rule!r}")
        check_integer("d", self.d, 1)


def _uniform_ball(rng: np.random.Generator, count: int, d: int, r: float) -> np.ndarray:
    g = rng.standard_normal((count, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = r * rng.random(count) ** (1.0 / d)
    return g * radii[:, None]


def _check_radius(r: float) -> None:
    if not 0.0 < r < np.inf:  # NaN fails too
        raise ValueError(f"r must be positive and finite, got {r!r}")


def _draw_domain(spec: SyntheticShiftSpec, count: int, gaussian_fraction: float, r: float,
                 rng: np.random.Generator) -> np.ndarray:
    from_gaussian = rng.random(count) < gaussian_fraction
    x = _uniform_ball(rng, count, spec.d, r)
    k = int(from_gaussian.sum())
    if k:
        x[from_gaussian] = rng.standard_normal((k, spec.d))
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


def generate_synthetic(spec: SyntheticShiftSpec, m: int, n: int, rng: np.random.Generator,
                       r: float = 1.0) -> tuple[AdaptDataset, np.ndarray]:
    """Draw an (m public, n private) dataset with features in the r-ball;
    returns it with the hidden w*."""
    _check_radius(r)
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    w_star = rng.standard_normal(spec.d)
    w_star /= max(np.linalg.norm(w_star), 1e-12)
    xs = _draw_domain(spec, m, spec.source_gaussian_fraction, r, rng)
    xt = _draw_domain(spec, n, spec.target_gaussian_fraction, r, rng)
    # load_dataset's rule: the public rows alone set the scale, and target
    # rows still outside the r-ball are clipped to it; a draw whose public
    # rows lie inside the ball keeps its scale
    top = np.linalg.norm(xs, axis=1).max()
    if top > r:
        xs *= r / top  # both are fresh draws
        xt *= r / top
    norms = np.linalg.norm(xt, axis=1)
    xt[norms > r] *= (r / norms[norms > r])[:, None]
    # each draw is labelled, then copied into the dataset layout and freed
    ys = _labels(spec, xs, w_star, rng)
    xs = sample_major(xs)
    yt = _labels(spec, xt, w_star, rng)
    xt = sample_major(xt)
    return AdaptDataset(xs, ys, xt, yt), w_star


DOMAINS = (b"source", b"target")  # as the fast parse reads them
# in every sidecar's key, so that one of another format or byte order misses
ROWS_FORMAT = f"privadapt rows 1 {sys.byteorder}\n".encode()


def _row_dtype(cols: list[str]) -> np.dtype:
    # "S7" holds either domain value plus one byte, so a longer value is cut
    # to 7 bytes and can never read as a valid one
    return np.dtype([("num", float, (len(cols),)), ("domain", "S7")])


def _parse_fast(fh, header: list[str], cols: list[str], domain_col: str) -> np.ndarray:
    """Numeric columns ``cols`` and the domain column of every row of the
    text file ``fh`` as the fields "num" and "domain", in one pass of
    numpy's parser; raises ValueError on any row it rejects, which includes
    a domain value that latin-1 cannot encode."""
    index = {c: i for i, c in enumerate(header)}  # last of a repeated name, as csv.DictReader
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows, or blank lines
        return np.loadtxt(fh, dtype=_row_dtype(cols), delimiter=",", comments=None,
                          quotechar='"', usecols=[index[c] for c in cols] + [index[domain_col]],
                          ndmin=1)


def _parse_rows(path: str, reader: csv.DictReader, cols: list[str], domain_col: str):
    """The same rows parsed row by row with Python's ``float``; raises
    ValueError naming the first row with a non-numeric cell or a domain
    other than source/target."""
    rows = []
    for i, row in enumerate(reader):
        try:
            num = [float(row[c]) for c in cols]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: non-numeric cell in row {i}: {exc}")
        if row[domain_col] not in ("source", "target"):
            raise ValueError(
                f"{path}: row {i}: domain must be 'source' or "
                f"'target', got {row[domain_col]!r}")
        rows.append((num, row[domain_col].encode()))
    return np.array(rows, dtype=_row_dtype(cols))


def _write_sidecar(sidecar: str, key: bytes, rows: np.ndarray, mode: int) -> None:
    """Save ``rows`` as ``sidecar``: their count, ``key`` and their SHA-256,
    then the rows.  A temporary file of mode 0600 beside it is filled,
    given the permission bits of ``mode`` and moved into place; a failed
    write removes it."""
    fd, temp = tempfile.mkstemp(prefix=os.path.basename(sidecar) + ".",
                                dir=os.path.dirname(sidecar) or ".")
    try:
        with open(fd, "wb") as out:
            out.write(len(rows).to_bytes(8, "little") + key + hashlib.sha256(rows).digest())
            rows.tofile(out)
        os.chmod(temp, mode & 0o777)
        os.replace(temp, sidecar)
    except BaseException:
        os.remove(temp)
        raise


def _load_rows(fh, path: str, header: list[str], cols: list[str], domain_col: str):
    """The rows after the header line of the text file ``fh``.  A regular
    file's rows are kept in the sidecar ``path + ".rows"``, keyed by the
    SHA-256 of ROWS_FORMAT, the SHA-256 of the file's bytes, their encoding
    and the columns; a sidecar of that key, whose size and rows' SHA-256
    hold, is read in place of a parse.  Else numpy's parser reads the rows;
    a file it rejects, or with a bad domain value, is parsed again row by
    row, which names the first offending row (or reads what Python's
    ``float`` accepts and numpy's parser does not).  The sidecar is then
    rewritten, unless the file changed while it was hashed and parsed.  A
    file that is not regular is parsed row by row alone."""
    before, key, dtype, parsed = os.fstat(fh.fileno()), None, _row_dtype(cols), False
    if stat.S_ISREG(before.st_mode):  # a pipe, say, can be read only once
        start = fh.tell()
        fh.buffer.seek(0)
        key = hashlib.sha256(ROWS_FORMAT + hashlib.file_digest(fh.buffer, "sha256").digest()
                             + json.dumps([fh.encoding, cols, domain_col]).encode()).digest()
        fh.seek(start)
        with contextlib.suppress(OSError), open(path + ".rows", "rb") as saved:
            head = saved.read(72)
            count = int.from_bytes(head[:8], "little")
            if (head[8:40] == key
                    and os.fstat(saved.fileno()).st_size == 72 + count * dtype.itemsize):
                rows = np.fromfile(saved, dtype, count)
                if hashlib.sha256(rows).digest() == head[40:]:
                    return rows
        with contextlib.suppress(ValueError):
            rows = _parse_fast(fh, header, cols, domain_col)
            parsed = np.isin(rows["domain"], DOMAINS).all()
        fh.seek(start)  # for the row-by-row parse, if it runs
    if not parsed:
        rows = _parse_rows(path, csv.DictReader(fh, header), cols, domain_col)
    after = os.fstat(fh.fileno())
    if key and all(getattr(before, f) == getattr(after, f)
                   for f in ("st_size", "st_mtime_ns", "st_ctime_ns")):
        with contextlib.suppress(OSError):  # a read-only directory or a full disk, say
            _write_sidecar(path + ".rows", key, rows, before.st_mode)
    return rows


def load_dataset(manifest: DatasetManifest, r: float = 1.0) -> AdaptDataset:
    """Read a CSV, route rows by domain, scale the features by r over the
    largest public (source) row norm and clip each private (target) row to
    the r-ball, so replacing one target row changes no other loaded row;
    regression labels are clipped to [-1, 1].  Each clip warns with its
    count, which is not private.

    The checks and scaling below run alike on parsed rows and on rows read
    from the file's sidecar (``_load_rows``), so both give the same bits,
    warnings and errors.
    """
    _check_radius(r)
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
        rows = _load_rows(fh, path, header, feat_cols + [manifest.label_column],
                          manifest.domain_column)
    num = rows["num"]
    if not np.isfinite(num).all():
        raise ValueError(f"{path}: features and labels must be finite")
    src = rows["domain"] == DOMAINS[0]
    if src.all() or not src.any():
        raise ValueError(f"{path}: need at least one source and one target row")
    public, private = take_rows(num, np.flatnonzero(src)), take_rows(num, np.flatnonzero(~src))
    del rows, num  # free the parsed rows before the passes below (peak memory)
    xs, ys, xt, yt = public[:, :-1], public[:, -1], private[:, :-1], private[:, -1]
    top = float(row_norms(xs).max())
    if top == 0:
        raise ValueError(f"{path}: every source feature row is zero, so no rescaling "
                         "can meet the feature-norm bound")
    if not 0.0 < (scale := r / top) < np.inf:  # a norm past the float range is inf
        raise ValueError(f"{path}: the largest source feature row norm {top!r} is too "
                         f"{'small' if scale else 'large'} to rescale to r={r!r}")
    # a target row whose (scaled) norm could overflow goes to norm 2 top, then to the ball
    peak = np.abs(xt).max(axis=1, initial=0.0)
    big = peak > sys.float_info.max / scale / (2 * xt.shape[1])
    unit = xt[big] / peak[big, None]
    xt[big] = unit / row_norms(unit)[:, None] * (2.0 * top)
    xs *= scale  # both are views of the copies take_rows made
    xt *= scale
    norms = row_norms(xt)
    if (over := norms > r).any():
        xt[over] *= (r / norms[over])[:, None]
        warnings.warn(f"{int(over.sum())} target feature row(s) outside the r-ball "
                      "were clipped to it (a non-private count)")
    clipped = int((np.abs(ys) > 1).sum() + (np.abs(yt) > 1).sum())
    if clipped:
        warnings.warn(f"{clipped} label(s) outside [-1, 1] were clipped")
        ys, yt = np.clip(ys, -1.0, 1.0), np.clip(yt, -1.0, 1.0)
    return AdaptDataset(xs, ys, xt, yt)


def resample_target(data: AdaptDataset, n_new: int,
                    rng: np.random.Generator) -> AdaptDataset:
    """n_new distinct rows of the private sample, drawn without replacement,
    so that one person fills at most one row (the one-row neighbour relation
    of the B/n sensitivity); public sample unchanged."""
    if not 1 <= n_new <= data.n:
        raise ValueError(f"n_new must lie in [1, {data.n}] (the rows to draw from), "
                         f"got {n_new}")
    idx = rng.choice(data.n, n_new, replace=False)
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
