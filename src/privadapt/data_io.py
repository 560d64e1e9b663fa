"""Dataset ingestion, rescaling to the bounded-norm geometry, target
resampling, and synthetic domain-shift generation.

CSV schema: header ``f0,...,f{d-1},label,domain`` with domain values
``source`` / ``target``.  A large file is parsed in byte ranges, one per
process slot, on forked processes (``_parse_parts``).
"""

from __future__ import annotations

import contextlib
import csv
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .core import AdaptDataset, check_integer, row_norms, sample_major, take_rows
from .processes import DONE, fork, process_slots


@dataclass(frozen=True)
class DatasetManifest:
    path: str
    feature_columns: list[str] | None = None  # None -> every f* column
    label_column: str = "label"
    domain_column: str = "domain"
    r_target: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.r_target < np.inf:
            raise ValueError("r_target must be positive and finite")


@dataclass(frozen=True)
class SyntheticShiftSpec:
    """Source/target mixture of the standard Gaussian N(0, I) and the
    uniform ball.

    Each source point is Gaussian with probability
    ``source_gaussian_fraction`` and otherwise uniform on the radius-r
    ball; likewise the target with ``target_gaussian_fraction``.  Labels
    come from a hidden weight vector.
    """

    d: int
    source_gaussian_fraction: float = 0.95
    target_gaussian_fraction: float = 0.05
    label_rule: str = "linear_regression"
    noise_std: float = 0.0
    r: float = 1.0

    def __post_init__(self):
        for frac in (self.source_gaussian_fraction, self.target_gaussian_fraction):
            if not 0.0 <= frac <= 1.0:
                raise ValueError("mixture fractions must lie in [0, 1]")
        if not 0.0 <= self.noise_std < np.inf:  # NaN fails
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")
        if not 0.0 < self.r < np.inf:
            raise ValueError(f"r must be positive and finite, got {self.r!r}")
        if self.label_rule not in ("linear_regression", "linear_classification"):
            raise ValueError(f"unknown label_rule {self.label_rule!r}")
        check_integer("d", self.d, 1)


def _uniform_ball(rng: np.random.Generator, count: int, d: int, r: float) -> np.ndarray:
    g = rng.standard_normal((count, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = r * rng.random(count) ** (1.0 / d)
    return g * radii[:, None]


def _draw_domain(spec: SyntheticShiftSpec, count: int, gaussian_fraction: float,
                 rng: np.random.Generator) -> np.ndarray:
    from_gaussian = rng.random(count) < gaussian_fraction
    x = _uniform_ball(rng, count, spec.d, spec.r)
    k = int(from_gaussian.sum())
    if k:
        x[from_gaussian] = rng.multivariate_normal(np.zeros(spec.d), np.eye(spec.d), size=k)
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
    # load_dataset's rule: the public rows alone set the scale, and target
    # rows still outside the r-ball are clipped to it; a draw whose public
    # rows lie inside the ball keeps its scale
    top = np.linalg.norm(xs, axis=1).max()
    if top > spec.r:
        xs *= spec.r / top  # both are fresh draws
        xt *= spec.r / top
    norms = np.linalg.norm(xt, axis=1)
    xt[norms > spec.r] *= (spec.r / norms[norms > spec.r])[:, None]
    # each draw is labelled, then copied into the dataset layout and freed
    ys = _labels(spec, xs, w_star, rng)
    xs = sample_major(xs)
    yt = _labels(spec, xt, w_star, rng)
    xt = sample_major(xt)
    return AdaptDataset(xs, ys, xt, yt), w_star


DOMAINS = (b"source", b"target")  # as the fast parse reads them
# A data section is parsed in one byte range per process slot, but in no
# range of fewer than this many bytes, so every fork is repaid.  On 2 CPUs
# with one BLAS thread (d = 100), two ranges took 1.13x the time of one
# parse at 0.5 MB (the fork and the wait cost about 7 ms), 0.83-0.92x at
# 0.8-1.3 MB, 0.76-0.79x at 1.6-3.1 MB and 0.69x at 19.5 MB; ranges of
# 1 MiB sit where the gain is clear of the noise.
SPLIT_MIN_BYTES = 1 << 20


def _parse_fast(lines, header: list[str], cols: list[str], domain_col: str) -> np.ndarray:
    """Numeric columns ``cols`` and the domain column of every row of
    ``lines`` (a text file or its lines) as the fields "num" and "domain",
    in one pass of numpy's parser; raises ValueError on any row it rejects,
    which includes a domain value that latin-1 cannot encode."""
    index = {c: i for i, c in enumerate(header)}  # last of a repeated name, as csv.DictReader
    # "S7" holds either domain value plus one byte, so a longer value is cut
    # to 7 bytes and can never read as a valid one
    dtype = np.dtype([("num", float, (len(cols),)), ("domain", "S7")])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows, or blank lines
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar='"',
                          usecols=[index[c] for c in cols] + [index[domain_col]], ndmin=1)


def _lines(path: str, start: int, end: int, encoding: str):
    """The lines of bytes [start, end) of the file at ``path``, decoded."""
    with open(path, "rb") as raw:  # a file offset of its own in each process
        raw.seek(start)
        while start < end:
            line = raw.readline()
            start += len(line)
            yield line.decode(encoding)


def _line_starts(raw, offsets: list[int]) -> list[int]:
    """The first line start at or after each offset of the binary file ``raw``."""
    return [raw.seek(offset - 1) + len(raw.readline()) for offset in offsets]


def _parse_parts(fh, path: str, parse) -> list[np.ndarray]:
    """``parse`` of the rest of the text file ``fh`` as arrays of rows, in
    file order.  The rest is cut at line starts into one range per process
    slot, or fewer, so that a range holds about SPLIT_MIN_BYTES or more:
    this process parses the first, and a forked child each other one and
    sends its row count, then its rows, through a pipe into an array made
    here.  A quote before the last range could open a field across a cut,
    so such a file is not split."""
    start, size = fh.tell(), os.fstat(fh.fileno()).st_size
    slots = max(1, min(process_slots(), (size - start) // SPLIT_MIN_BYTES))
    with open(path, "rb") as raw:
        cuts = [start, *_line_starts(raw, [start + (size - start) * i // slots
                                           for i in range(1, slots)]), size]
        raw.seek(start)
        if slots == 1 or any(b'"' in raw.read(min(1 << 20, cuts[-2] - at))
                             for at in range(start, cuts[-2], 1 << 20)):
            return [parse(fh)]

    def child(link, a: int, b: int):
        rows = parse(_lines(path, a, b, fh.encoding))
        link.signal(DONE)
        link.send(np.array([len(rows)]))
        link.send(rows)

    with contextlib.ExitStack() as stack:
        links = [stack.enter_context(fork(lambda link, a=a, b=b: child(link, a, b),
                                          f"the parse of bytes {a}-{b} of {path}"))
                 for a, b in zip(cuts[1:-1], cuts[2:])]
        parts = [parse(_lines(path, cuts[0], cuts[1], fh.encoding))]
        for link in links:
            link.wait(DONE)
            count = link.receive(np.empty(1, int))[0]
            parts.append(link.receive(np.empty(count, parts[0].dtype)))
    return parts


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
    """Read a CSV, route rows by domain, scale the features by ``r_target``
    over the largest public (source) row norm and clip each private
    (target) row to the ``r_target`` ball, so replacing one target row
    changes no other loaded row; regression labels are clipped to [-1, 1].
    Each clip warns with its count, which is not private.

    numpy's parser reads the file, in ranges on forked processes when it is
    large (``_parse_parts``); a file it rejects, or with a bad domain
    value, is parsed again row by row, which names the first offending row
    (or reads what Python's ``float`` accepts and numpy's parser does not).
    """
    path, r = manifest.path, manifest.r_target
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
            parts = [(rows["num"], rows["domain"]) for rows in _parse_parts(
                fh, path, lambda lines: _parse_fast(lines, header, cols, manifest.domain_column))]
        except ValueError:
            parts = []
        if not parts or not all(np.isin(domains, DOMAINS).all() for _, domains in parts):
            fh.seek(0)
            parts = [_parse_rows(path, csv.DictReader(fh), cols, manifest.domain_column)]
    if not all(np.isfinite(num).all() for num, _ in parts):
        raise ValueError(f"{path}: features and labels must be finite")
    src = [np.flatnonzero(domains == DOMAINS[0]) for _, domains in parts]
    tgt = [np.flatnonzero(domains != DOMAINS[0]) for _, domains in parts]
    if not sum(map(len, src)) or not sum(map(len, tgt)):
        raise ValueError(f"{path}: need at least one source and one target row")
    nums = [num for num, _ in parts]
    public, private = take_rows(nums, src), take_rows(nums, tgt)
    del parts, nums  # free the parsed rows before the passes below (peak memory)
    xs, ys, xt, yt = public[:, :-1], public[:, -1], private[:, :-1], private[:, -1]
    top = float(row_norms(xs).max())
    if top == 0:
        raise ValueError(f"{path}: every source feature row is zero, so no rescaling "
                         "can meet the feature-norm bound")
    if (scale := r / top) == np.inf:
        raise ValueError(f"{path}: the largest source feature row norm {top!r} is too small")
    # a target row the scale would overflow goes to norm 2 top, then to the ball
    big = np.abs(xt).max(axis=1, initial=0.0) > sys.float_info.max / scale
    xt[big] = xt[big] / row_norms(xt[big])[:, None] * (2.0 * top)
    xs *= scale  # both are views of the copies take_rows made
    xt *= scale
    norms = row_norms(xt)
    if (over := norms > r).any():
        xt[over] *= (r / norms[over])[:, None]
        warnings.warn(f"{int(over.sum())} target feature row(s) outside the r_target "
                      "ball were clipped to it (a non-private count)")
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
