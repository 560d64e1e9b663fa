"""The CSV sidecar: a second load of the same bytes reads the rows the first
one parsed, with the same bits, warnings and errors; changed bytes, other
columns and a damaged sidecar are parsed again; a file that cannot keep a
sidecar loads without one; nothing is left open or running.  Fuzzed CSV
text loads to the same bits twice, inside the r-ball, or is refused with
ValueError."""

import csv
import errno
import fractions
import hashlib
import json
import math
import mmap
import os
import stat
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from privadapt import data_io
from privadapt.core import TOL
from privadapt.data_io import (DatasetManifest, SyntheticShiftSpec, generate_synthetic,
                               load_dataset, write_csv)
from privadapt.mechanisms import derive_rng

ROWS = [("1", "0", "0.5", "source"), ("0", "1", "0.2", "target"),
        ("0.5", "0.5", "-0.3", "source"), ("2", "1", "0.9", "target"),
        ("0", "3", "0.1", "source"), ("0.25", "-1", "0.7", "target")]
FIELDS = ("public_x", "public_y", "private_x", "private_y")


def _text(newline="\n", final=True, quote_domain=False, note=False, row=(None, "")):
    """ROWS as a CSV, with the line ``row[1]`` in place of data row ``row[0]``."""
    header = "f0,f1,label,domain" + (",note" if note else "")
    lines = [header]
    for i, (a, b, y, domain) in enumerate(ROWS):
        cells = [a, b, y, f'"{domain}"' if quote_domain else domain]
        if note:  # an unused quoted text column, with a newline in every other
            # row; the last of those holds what would read as a row of its own
            cells.append('"one, line"' if i % 2 == 0 else '"two\nlines"' if i < 5
                         else '"x\n9,9,0.9,target,y"')
        lines.append(",".join(cells) if i != row[0] else row[1])
    return newline.join(lines) + (newline if final else "")


# name: (file, the parsers its first load runs)
CASES = {
    "lf": (_text(), ["fast"]),
    "crlf": (_text("\r\n"), ["fast"]),
    # numpy's parser ends a line at a lone CR too, so its row bound counts them
    "cr": (_text("\r"), ["fast"]),
    "blank-lines": (_text("\n\n"), ["fast"]),
    "no-final-newline": (_text(final=False), ["fast"]),
    "quoted-domains": (_text(quote_domain=True), ["fast"]),
    "quoted-text-with-newline": (_text("\r\n", note=True), ["fast"]),
    "python-float": (_text(row=(2, "0.5,1_0,-0.3,source")), ["fast", "rows"]),
    "clipped-labels": (_text(row=(3, "2,1,3.5,target")), ["fast"]),
    "clipped-target-rows": (_text(row=(3, "20,1,0.9,target")), ["fast"]),
    "non-finite-cell": (_text(row=(2, "0.5,nan,-0.3,source")), ["fast"]),
    "bad-domain-value": (_text(row=(4, "0,3,0.1,tarqet")), ["fast", "rows"]),
}


@pytest.fixture
def parses(monkeypatch):
    """The parsers each load runs, in order: "fast" (numpy's) and "rows"."""
    ran = []
    for name, tag in (("_parse_fast", "fast"), ("_parse_rows", "rows")):
        def wrapped(*args, parse=getattr(data_io, name), tag=tag):
            ran.append(tag)
            return parse(*args)
        monkeypatch.setattr(data_io, name, wrapped)
    return ran


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return str(path)


def _outcome(path, columns=("f0", "f1")):
    """The loaded arrays' bytes, the warnings and the error of one load."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            data = load_dataset(DatasetManifest(path=path, feature_columns=list(columns)), 2.0)
            loaded = [getattr(data, name).tobytes() for name in FIELDS]
        except ValueError as exc:
            loaded = (type(exc), str(exc))
    return loaded, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("name", sorted(CASES))
def test_second_load_reads_the_sidecar(name, tmp_path, parses, leaves_nothing):
    text, parsers = CASES[name]
    path = _write(tmp_path, text)
    first = _outcome(path)
    assert parses == parsers
    # a file the row-by-row parse rejects keeps no sidecar, and is parsed again
    kept = name != "bad-domain-value"
    assert os.path.exists(path + ".rows") == kept
    parses.clear()
    assert _outcome(path) == first
    assert parses == ([] if kept else parsers)
    assert sorted(os.listdir(tmp_path)) == ["data.csv"] + ["data.csv.rows"] * kept


def test_cases_load_as_they_should(tmp_path):
    # each case reaches the outcome its name says, on the first load and the second
    def outcome(name):
        return _outcome(_write(tmp_path, CASES[name][0], f"{name}.csv"))
    lf = outcome("lf")
    for name in ("crlf", "cr", "blank-lines", "no-final-newline", "quoted-domains",
                 "quoted-text-with-newline"):
        assert outcome(name) == lf
    assert outcome("python-float")[0][0] != lf[0][0]
    assert "label(s) outside [-1, 1] were clipped" in str(outcome("clipped-labels")[1])
    assert "target feature row(s) outside the r-ball" in str(outcome("clipped-target-rows")[1])
    assert "must be finite" in outcome("non-finite-cell")[0][1]
    assert "row 4: domain must be 'source' or 'target', got 'tarqet'" in \
        outcome("bad-domain-value")[0][1]


def test_a_changed_byte_is_parsed_again(tmp_path, parses, leaves_nothing):
    path = _write(tmp_path, _text())
    first = _outcome(path)
    before = os.stat(path)
    _write(tmp_path, _text().replace("-0.3,", "-0.4,"))  # one byte
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    parses.clear()
    second = _outcome(path)
    assert parses == ["fast"] and second != first
    parses.clear()
    assert _outcome(path) == second and parses == []  # the rewritten sidecar


def test_other_columns_are_parsed_again(tmp_path, parses, leaves_nothing):
    path = _write(tmp_path, _text())
    both = _outcome(path)
    parses.clear()
    one = _outcome(path, columns=("f1",))
    assert parses == ["fast"] and one != both
    parses.clear()
    assert _outcome(path, columns=("f1",)) == one and parses == []


def test_file_changed_while_parsed_keeps_no_sidecar(tmp_path, monkeypatch, leaves_nothing):
    path = _write(tmp_path, _text())
    parse = data_io._parse_fast

    def append_then_parse(*args):
        with open(path, "a") as fh:
            fh.write("0,2,0.1,target\n")
        return parse(*args)
    monkeypatch.setattr(data_io, "_parse_fast", append_then_parse)
    _outcome(path)
    assert os.listdir(tmp_path) == ["data.csv"]


def _damage(sidecar, how):
    with open(sidecar, "rb") as fh:
        raw = bytearray(fh.read())
    if how == "truncated":
        raw = raw[:-1]
    elif how == "empty":
        raw = b""
    elif how == "appended":
        raw += b"\0"
    elif how == "count":  # a public row count that does not match the file's size
        raw[0] += 1
    elif how == "private-count":
        raw[8] += 1
    elif how == "moved-count":  # a row moved from one block to the other: the same size
        raw[0] += 1
        raw[8] -= 1
    else:  # a garbled byte: in the key, in the SHA-256, in the blocks
        raw[{"garbled-key": 16, "garbled-check": 48, "garbled-rows": len(raw) - 20}[how]] ^= 1
    with open(sidecar, "wb") as fh:
        fh.write(raw)


@pytest.mark.parametrize("how", ["truncated", "empty", "appended", "count", "private-count",
                                 "moved-count", "garbled-key", "garbled-check", "garbled-rows"])
def test_damaged_sidecar_is_parsed_again_and_rewritten(how, tmp_path, parses, leaves_nothing):
    path = _write(tmp_path, _text())
    first = _outcome(path)
    with open(path + ".rows", "rb") as fh:
        kept = fh.read()
    _damage(path + ".rows", how)
    parses.clear()
    assert _outcome(path) == first
    assert parses == ["fast"]
    with open(path + ".rows", "rb") as fh:
        assert fh.read() == kept


def _format_1_sidecar(path, columns=("f0", "f1")) -> bytes:
    """The sidecar that format 1 kept for ``path``: the row count, the key
    and the SHA-256 of the rows, then the structured rows as parsed."""
    cols = list(columns) + ["label"]
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]))
        rows = data_io._parse_fast(fh, header, cols, "domain")
        encoding = fh.encoding
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).digest()
    key = hashlib.sha256(f"privadapt rows 1 {sys.byteorder}\n".encode() + digest
                         + json.dumps([encoding, cols, "domain"]).encode()).digest()
    return len(rows).to_bytes(8, "little") + key + hashlib.sha256(rows).digest() + rows.tobytes()


def test_format_1_sidecar_is_parsed_again_and_rewritten(tmp_path, parses, leaves_nothing):
    path = _write(tmp_path, _text())
    first = _outcome(path)
    with open(path + ".rows", "rb") as fh:
        kept = fh.read()
    with open(path + ".rows", "wb") as fh:
        fh.write(_format_1_sidecar(path))
    parses.clear()
    assert _outcome(path) == first and parses == ["fast"]
    with open(path + ".rows", "rb") as fh:
        assert fh.read() == kept


def _map_of(a):
    """The object that owns the memory of a, through its chain of views."""
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


def test_loaded_arrays_are_views_of_one_map_of_their_bytes(tmp_path, parses, leaves_nothing):
    path = _write(tmp_path, _text())
    for ran in (["fast"], []):  # a miss, which reads back the sidecar it wrote, then a hit
        parses.clear()
        data = load_dataset(DatasetManifest(path=path, feature_columns=["f0", "f1"]), 2.0)
        assert parses == ran
        arrays = [getattr(data, name) for name in FIELDS]
        maps = {id(_map_of(a)): _map_of(a) for a in arrays}
        assert len(maps) == 1
        (shared,) = maps.values()
        assert isinstance(shared, mmap.mmap)
        assert len(shared) == sum(a.nbytes for a in arrays)


def test_refused_temporary_file_splits_in_memory(tmp_path, monkeypatch, parses, leaves_nothing):
    # a miss that cannot write its sidecar loads the same bits as a hit, from
    # arrays of its own
    path = _write(tmp_path, _text())
    _outcome(path)
    parses.clear()
    want = _outcome(path)
    assert parses == []
    os.remove(path + ".rows")

    def refuse(*args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied")
    monkeypatch.setattr(data_io.tempfile, "mkstemp", refuse)
    assert _outcome(path) == want and parses == ["fast"]
    data = load_dataset(DatasetManifest(path=path, feature_columns=["f0", "f1"]), 2.0)
    assert not any(isinstance(_map_of(getattr(data, name)), mmap.mmap) for name in FIELDS)
    assert os.listdir(tmp_path) == ["data.csv"]


def test_read_only_directory_loads_without_a_sidecar(tmp_path, monkeypatch, parses,
                                                      leaves_nothing):
    path = _write(tmp_path, _text())
    want = _outcome(path)
    os.remove(path + ".rows")
    os.chmod(tmp_path, 0o555)
    try:
        if os.geteuid() == 0:  # root writes past the mode bits: refuse as they would
            def refuse(*args, **kwargs):
                raise PermissionError(errno.EACCES, "Permission denied")
            monkeypatch.setattr(data_io.tempfile, "mkstemp", refuse)
        for _ in range(2):
            parses.clear()
            assert _outcome(path) == want and parses == ["fast"]
        assert os.listdir(tmp_path) == ["data.csv"]
    finally:
        os.chmod(tmp_path, 0o755)


def test_failed_write_leaves_no_file(tmp_path, monkeypatch, leaves_nothing):
    path = _write(tmp_path, _text())

    def full(*args):
        raise OSError(errno.ENOSPC, "No space left on device")
    monkeypatch.setattr(data_io.os, "replace", full)
    want = _outcome(path)
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["data.csv"]
    assert _outcome(path) == want


def _load_through_fifo(tmp_path, text, columns=("f0", "f1")):
    """The outcome of loading ``text`` fed through a FIFO by another thread."""
    fifo = str(tmp_path / "pipe.csv")
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w") as fh:
            fh.write(text)
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        got = _outcome(fifo, columns)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert not os.path.exists(fifo + ".rows")
    return got


def test_fifo_loads_without_a_sidecar(tmp_path, parses, leaves_nothing):
    # a file that can be read only once is parsed row by row alone
    want = _outcome(_write(tmp_path, _text()))
    parses.clear()
    assert _load_through_fifo(tmp_path, _text()) == want and parses == ["rows"]


def test_fifo_with_a_bad_row_names_it(tmp_path, leaves_nothing):
    # the parse once seeked back to the start, which a FIFO cannot do
    text = "f0,label,domain\n1,0.5,source\nx,0.2,target\n"
    loaded, _ = _load_through_fifo(tmp_path, text, columns=("f0",))
    assert loaded[0] is ValueError and "non-numeric cell in row 1" in loaded[1]


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o444])
def test_sidecar_has_the_csv_permission_bits(mode, tmp_path):
    path = _write(tmp_path, _text())
    os.chmod(path, mode)
    _outcome(path)
    assert stat.S_IMODE(os.stat(path + ".rows").st_mode) == mode


def test_refused_fork_does_not_fail_the_load(tmp_path, monkeypatch, leaves_nothing):
    # a CSV over 2 MiB, which a process with two or more slots once parsed
    # in forked ranges; a refused fork failed the load
    data, _ = generate_synthetic(SyntheticShiftSpec(d=20), 3000, 5000, derive_rng(1, "fork"))
    path = str(tmp_path / "data.csv")
    write_csv(data, path)
    assert os.path.getsize(path) > 2 << 20

    def fork():
        raise BlockingIOError(errno.EAGAIN, "no process to fork")
    monkeypatch.setattr(os, "fork", fork)
    loaded = load_dataset(DatasetManifest(path))
    assert (loaded.m, loaded.n) == (3000, 5000)
    assert np.isclose(loaded.max_feature_norm(), 1.0)


ORDINARY = st.floats(-4.0, 4.0).map(repr)
# numbers, huge and subnormal among them ("1_0" is a float to Python alone)
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from([
    "1e300", "1e307", "8e307", "-1e308", "1.7976931348623157e308", "1e-300", "1e-310",
    "5e-324", "2.2250738585072014e-308", "-0.0", "1_0", '"1.5"']))
# cells that no load accepts
BAD = st.sampled_from(["", "x", "0x10", "1e", " 1", '"1,5"', "nan", "-inf", "Infinity", "1e309"])
BAD_DOMAIN = st.sampled_from(["Source", "targets", "", "tar get", '"sour""ce"', "sourcé"])


@st.composite
def _csv_texts(draw):
    """A CSV of d features and 2 to 6 rows, at least one of each domain:
    plain, constant, all-zero or with one extreme cell, labels inside or
    outside [-1, 1], domains bare or quoted, and at most one bad cell, bad
    domain value, or row short or long by a cell."""
    d = draw(st.integers(1, 3))
    domains = draw(st.permutations(["source", "target"] + draw(st.lists(
        st.sampled_from(["source", "target", '"source"', '"target"']), max_size=4))))
    rows = []
    for domain in domains:
        kind = draw(st.sampled_from(["plain", "plain", "constant", "zero", "extreme"]))
        cells = draw(st.lists(ORDINARY, min_size=d, max_size=d))
        if kind == "constant":
            cells = [draw(st.one_of(ORDINARY, FINITE))] * d
        elif kind == "zero":
            cells = ["0"] * d
        elif kind == "extreme":
            cells[draw(st.integers(0, d - 1))] = draw(FINITE)
        label = draw(st.one_of(st.floats(-1.0, 1.0).map(repr), st.floats(-1e6, 1e6).map(repr),
                               FINITE))
        rows.append(cells + [label, domain])
    row = draw(st.sampled_from(rows))
    fault = draw(st.sampled_from([None, None, None, "cell", "domain", "short", "long"]))
    if fault == "cell":
        row[draw(st.integers(0, d))] = draw(BAD)
    elif fault == "domain":
        row[-1] = draw(BAD_DOMAIN)
    elif fault == "short":
        del row[0]
    elif fault == "long":
        row.append("0")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = ",".join([f"f{j}" for j in range(d)] + ["label", "domain"])
    return newline.join([header] + [",".join(cells) for cells in rows]) + newline


def _sq_norm(values) -> fractions.Fraction:
    """The exact squared norm of a row of floats."""
    return sum((fractions.Fraction(v) ** 2 for v in values), fractions.Fraction(0))


def _fuzz_outcome(path, r):
    """One load's arrays' bytes, warnings and error, after checking that a
    loaded dataset is finite, scaled so that its largest public row norm is
    r, with each target row the source row scaled alike and clipped to the
    r-ball, and with labels in [-1, 1]."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            data = load_dataset(DatasetManifest(path=path), r)
        except ValueError as exc:
            data, loaded = None, (type(exc), str(exc))
    if data is not None:
        loaded = [getattr(data, name).tobytes() for name in FIELDS]
        for name in FIELDS:
            assert np.isfinite(getattr(data, name)).all()
            if name.endswith("_y"):
                assert (np.abs(getattr(data, name)) <= 1.0).all()
        with open(path, newline="") as fh:
            raw = [([float(row[f"f{j}"]) for j in range(data.d)], row["domain"])
                   for row in csv.DictReader(fh)]
        top = max(_sq_norm(x) for x, domain in raw if domain == "source")
        want = [r * math.sqrt(min(1, _sq_norm(x) / top))
                for x, domain in raw if domain == "target"]
        assert math.sqrt(max(map(_sq_norm, data.public_x.tolist()))) == pytest.approx(r, rel=TOL)
        got = [math.sqrt(_sq_norm(x)) for x in data.private_x.tolist()]
        assert got == pytest.approx(want, rel=TOL, abs=TOL * r)
    return loaded, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=500, deadline=None)
@given(text=_csv_texts(), r=st.sampled_from([1.0, 2.0, 0.5, 1e-3, 1e3]))
# a target row near the float maximum, with a public top norm above r: its
# overflow bound overflowed, and the row was zeroed in place of clipped
@example(text="f0,f1,f2,label,domain\n0,0,0,0,source\n0,0,0,0,source\n0,0,3,0,source\n"
              + ",".join(["1.7976931348623157e308"] * 3) + ",0,target\n", r=2.0)
def test_fuzzed_csv_loads_alike_twice_or_is_refused(text, r, tmp_path_factory):
    path = _write(tmp_path_factory.mktemp("fuzz"), text)
    first = _fuzz_outcome(path, r)
    assert _fuzz_outcome(path, r) == first  # the second from the sidecar, if kept
