"""The split CSV parse: byte ranges parsed on forked processes give the bits
of the one-range parse, fall back to the row-by-row parse that names the
file's own row, and leave no process or file descriptor behind."""

import errno
import itertools
import os
import signal
import sys
import tracemalloc

import numpy as np
import pytest

from privadapt import data_io
from privadapt.data_io import (DatasetManifest, SyntheticShiftSpec, generate_synthetic,
                               load_dataset, write_csv)
from tests.test_layout import LOAD_PEAK_RATIO

pytestmark = pytest.mark.skipif(sys.platform != "linux",
                                reason="the parse ranges are forked on Linux only")

ROWS = [("1", "0", "0.5", "source"), ("0", "1", "0.2", "target"),
        ("0.5", "0.5", "-0.3", "source"), ("2", "1", "0.9", "target"),
        ("0", "3", "0.1", "source"), ("0.25", "-1", "0.7", "target")]


def _text(newline="\n", final=True, quote_domain=False, note=False):
    header = "f0,f1,label,domain" + (",note" if note else "")
    lines = [header]
    for i, (a, b, y, domain) in enumerate(ROWS):
        cells = [a, b, y, f'"{domain}"' if quote_domain else domain]
        if note:  # an unused quoted text column, with a newline in every other
            # row; the last of those holds what would read as a row of its own
            cells.append('"one, line"' if i % 2 == 0 else '"two\nlines"' if i < 5
                         else '"x\n9,9,0.9,target,y"')
        lines.append(",".join(cells))
    return newline.join(lines) + (newline if final else "")


FILES = {
    "lf": _text(),
    "crlf": _text("\r\n"),
    "no-final-newline": _text(final=False),
    "quoted-domains": _text(quote_domain=True),
    "quoted-text-with-newline": _text("\r\n", note=True),
}


@pytest.fixture
def bounded():
    """Fail a test that waits on a parse for more than 60 s instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("a split parse did not finish")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def split(monkeypatch):
    """split(ranges, offsets): make load_dataset cut every file into
    ``ranges`` ranges at the line starts at or after ``offsets``."""
    original = data_io._line_starts
    monkeypatch.setattr(data_io, "SPLIT_MIN_BYTES", 1)

    def set_cuts(ranges, offsets):
        assert len(offsets) == ranges - 1
        monkeypatch.setattr(data_io, "process_slots", lambda: ranges)
        monkeypatch.setattr(data_io, "_line_starts", lambda raw, _: original(raw, offsets))
    return set_cuts


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    return str(path)


def _arrays(path):
    data = load_dataset(DatasetManifest(path=path, feature_columns=["f0", "f1"]), 2.0)
    return [getattr(data, name).tobytes()
            for name in ("public_x", "public_y", "private_x", "private_y")]


@pytest.mark.parametrize("name", sorted(FILES))
def test_every_split_gives_the_one_range_bits(name, tmp_path, monkeypatch, split, bounded,
                                              leaves_nothing):
    def row_by_row(*args):
        raise AssertionError("every range of these files reads with numpy's parser")
    monkeypatch.setattr(data_io, "_parse_rows", row_by_row)
    text = FILES[name]
    path = _write(tmp_path, text)
    split(1, [])
    want = _arrays(path)
    size = len(text.encode())
    start = text.encode().index(b"\n") + 1
    # two ranges: a cut at every byte; three and four: every choice of line
    # starts, which is every cut _line_starts can make
    starts = sorted({start, size} | {start + i + 1 for i, c in
                                     enumerate(text.encode()[start:]) if c == ord("\n")})
    cuts = [[offset] for offset in range(start, size + 1)]
    cuts += [list(c) for ranges in (3, 4)
             for c in itertools.combinations_with_replacement(starts, ranges - 1)]
    for offsets in cuts:
        split(len(offsets) + 1, offsets)
        assert _arrays(path) == want, offsets


@pytest.mark.parametrize("bad, message", [
    ("0,x,0.2,target", "non-numeric cell in row 4"),
    ("0,1,0.2,tarqet", "row 4: domain .* got 'tarqet'"),
])
def test_bad_row_in_a_child_range_names_its_row(bad, message, tmp_path, split, bounded,
                                                leaves_nothing):
    lines = _text().splitlines()
    lines[5] = bad  # data row 4
    text = "\n".join(lines) + "\n"
    path = _write(tmp_path, text)
    third = text.index(lines[3])  # the child's range starts at data row 2
    split(2, [third])
    with pytest.raises(ValueError, match=message):
        load_dataset(DatasetManifest(path=path))


def test_dead_child_raises(tmp_path, monkeypatch, split, bounded, leaves_nothing):
    path = _write(tmp_path, _text())
    parent, original = os.getpid(), data_io._parse_fast

    def parse(lines, *args):
        if os.getpid() != parent:
            os._exit(3)
        return original(lines, *args)
    monkeypatch.setattr(data_io, "_parse_fast", parse)
    split(3, [20, 40])
    with pytest.raises(RuntimeError, match="exited"):
        load_dataset(DatasetManifest(path=path))


def test_refused_fork_closes_its_pipes(tmp_path, monkeypatch, split, leaves_nothing):
    # a fork refused for want of processes once left its four pipe ends open
    def fork():
        raise BlockingIOError(errno.EAGAIN, "no process to fork")
    monkeypatch.setattr(os, "fork", fork)
    split(3, [20, 40])
    with pytest.raises(BlockingIOError):
        load_dataset(DatasetManifest(path=_write(tmp_path, _text())))


@pytest.mark.parametrize("slots, ranges", [(1, 1), (2, 2), (3, 2), (8, 2)])
def test_ranges_follow_the_slots_and_the_range_size(slots, ranges, tmp_path, monkeypatch,
                                                    bounded, leaves_nothing):
    # a data section of between two and three SPLIT_MIN_BYTES: at most two ranges
    rows = [f"{i % 7},{i % 5},0.1,{'source' if i % 3 else 'target'}"
            for i in range(5 * data_io.SPLIT_MIN_BYTES // 28 + 1)]
    path = _write(tmp_path, "f0,f1,label,domain\n" + "\n".join(rows) + "\n")
    forks, original = [], data_io.fork

    def counted(*args):
        forks.append(1)
        return original(*args)
    monkeypatch.setattr(data_io, "fork", counted)
    monkeypatch.setattr(data_io, "process_slots", lambda: 1)
    one = load_dataset(DatasetManifest(path=path))
    monkeypatch.setattr(data_io, "process_slots", lambda: slots)
    split_data = load_dataset(DatasetManifest(path=path))
    assert len(forks) == ranges - 1
    for name in ("public_x", "public_y", "private_x", "private_y"):
        assert getattr(split_data, name).tobytes() == getattr(one, name).tobytes()


def test_split_parse_makes_no_second_copy(tmp_path, monkeypatch, bounded, leaves_nothing):
    # the memory contract of test_layout.test_load_dataset_makes_no_second_copy,
    # on two ranges: this process holds its own range and the received one,
    # as the one-range parse held the whole file
    data, _ = generate_synthetic(SyntheticShiftSpec(d=20), 1500, 2500, np.random.default_rng(0))
    path = str(tmp_path / "data.csv")
    write_csv(data, path)
    monkeypatch.setattr(data_io, "SPLIT_MIN_BYTES", 1)
    monkeypatch.setattr(data_io, "process_slots", lambda: 2)
    load_dataset(DatasetManifest(path))  # first-call set-up stays out of the peak
    tracemalloc.start()
    try:
        out = load_dataset(DatasetManifest(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in (out.public_x, out.public_y, out.private_x, out.private_y))
    assert peak / returned <= LOAD_PEAK_RATIO + 0.01
