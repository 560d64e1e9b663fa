"""The CSV sidecar: a second load of the same bytes reads the rows the first
one parsed, with the same bits, warnings and errors; changed bytes, other
columns and a damaged sidecar are parsed again; a file that cannot keep a
sidecar loads without one; nothing is left open or running."""

import errno
import os
import stat
import threading
import warnings

import numpy as np
import pytest

from privadapt import data_io
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
    for name in ("crlf", "no-final-newline", "quoted-domains", "quoted-text-with-newline"):
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
    elif how == "count":  # a row count that does not match the file's size
        raw[0] += 1
    else:  # a garbled byte: in the key, in the rows' SHA-256, in the rows
        raw[{"garbled-key": 8, "garbled-check": 40, "garbled-rows": len(raw) - 20}[how]] ^= 1
    with open(sidecar, "wb") as fh:
        fh.write(raw)


@pytest.mark.parametrize("how", ["truncated", "empty", "appended", "count", "garbled-key",
                                 "garbled-check", "garbled-rows"])
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


def test_fifo_loads_without_a_sidecar(tmp_path, parses, leaves_nothing):
    want = _outcome(_write(tmp_path, _text()))
    fifo = str(tmp_path / "pipe.csv")
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w") as fh:
            fh.write(_text())
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    parses.clear()
    try:
        got = _outcome(fifo)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert got == want and parses == ["fast"]
    assert not os.path.exists(fifo + ".rows")


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
