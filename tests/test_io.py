"""The column-wise CSV writer against the per-cell reference format."""

import faulthandler
import multiprocessing
import os
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from moranlimits import io as mio
from moranlimits.io import format_cell, write_csv

# Floats where repr changes form or rounding is delicate: repr switches to
# exponent notation at 1e16 and below 1e-4.
SPECIAL_FLOATS = [
    float("nan"),
    float("inf"),
    float("-inf"),
    0.0,
    -0.0,
    5e-324,
    2.2250738585072014e-308,
    2.225073858507201e-308,
    1e16,
    -1e16,
    9999999999999998.0,
    1.0000000000000002e16,
    1e-4,
    9.999999999999999e-05,
    0.00010000000000000002,
    1e-5,
    0.1,
    1.0 / 3.0,
]


def reference_bytes(header, columns) -> bytes:
    """What the writer must produce: format_cell over every cell of every row."""
    lines = [",".join(header)]
    lines += [",".join(format_cell(cell) for cell in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def written_bytes(header, columns, block_rows=None) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        if block_rows is None:
            write_csv(path, header, columns)
        else:
            with mock.patch.object(mio, "_BLOCK_ROWS", block_rows):
                write_csv(path, header, columns)
        return path.read_bytes()


float_cells = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))


def column(kind: str, n: int):
    if kind == "float64":
        return hnp.arrays(np.float64, n, elements=float_cells)
    if kind == "int64":
        return hnp.arrays(np.int64, n)
    if kind == "bool":
        return hnp.arrays(np.bool_, n)
    cells = st.one_of(st.none(), float_cells, st.integers(-(2**70), 2**70), st.booleans())
    return st.lists(cells, min_size=n, max_size=n)


@st.composite
def tables(draw):
    n = draw(st.integers(0, 30))
    kinds = draw(
        st.lists(st.sampled_from(["float64", "int64", "bool", "list"]), min_size=1, max_size=5)
    )
    return [draw(column(kind, n)) for kind in kinds]


@settings(deadline=None)
@given(columns=tables(), block_rows=st.integers(1, 8))
def test_columns_write_the_per_cell_bytes(columns, block_rows):
    header = [f"c{i}" for i in range(len(columns))]
    assert written_bytes(header, columns, block_rows) == reference_bytes(header, columns)


def test_cell_forms():
    columns = [
        np.array([1e16, 1e-4, 1e-5, -0.0, np.nan, -np.inf]),
        np.arange(-3, 3, dtype=np.int64),
        np.array([True, False, True, False, True, False]),
        [None, 1.5, 2, True, None, "x"],
    ]
    lines = written_bytes(["f", "i", "b", "m"], columns).decode("utf-8").splitlines()
    assert lines == [
        "f,i,b,m",
        "1e+16,-3,true,",
        "0.0001,-2,false,1.5",
        "1e-05,-1,true,2",
        "-0.0,0,false,true",
        "nan,1,true,",
        "-inf,2,false,x",
    ]


def test_zero_rows_write_the_header_only():
    columns = [np.empty(0), np.empty(0, dtype=np.int64), []]
    assert written_bytes(["a", "b", "c"], columns) == b"a,b,c\n"


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_block_boundaries(offset):
    n = mio._BLOCK_ROWS + offset
    rng = np.random.default_rng(n)
    columns = [
        np.arange(n),
        rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n),
        rng.random(n) < 0.5,
    ]
    data = written_bytes(["i", "x", "b"], columns)
    assert data == reference_bytes(["i", "x", "b"], columns)
    assert data.count(b"\n") == n + 1


def test_unequal_columns_rejected():
    with pytest.raises(ValueError, match="differ in length"):
        written_bytes(["a", "b"], [np.zeros(3), np.zeros(2)])


@st.composite
def narrow_integer_columns(draw):
    """Integer columns of any width whose values span less than a quarter of
    the rows, so the writer formats them through a table of the span."""
    dtype = np.dtype(draw(st.sampled_from(["int8", "int16", "int64", "uint8", "uint64"])))
    info = np.iinfo(dtype)
    n = draw(st.integers(1, 120))
    span = draw(st.integers(0, max(0, (n - 1) // mio._SPAN_RATIO)))
    lo = draw(st.integers(int(info.min), int(info.max) - span))
    offsets = draw(st.lists(st.integers(0, span), min_size=n, max_size=n))
    return np.array([lo + offset for offset in offsets], dtype=dtype)


@settings(deadline=None)
@given(column=narrow_integer_columns(), block_rows=st.integers(1, 200))
def test_narrow_integer_columns_write_the_per_cell_bytes(column, block_rows):
    columns = [column, np.arange(column.size) * 0.5]
    assert written_bytes(["k", "t"], columns, block_rows) == reference_bytes(["k", "t"], columns)


def test_narrow_integer_column_goes_through_the_table():
    column = np.repeat(np.arange(-2, 3), 40)
    cells = mio._format_integers(column)
    assert isinstance(cells, list)
    assert cells == [str(value) for value in column.tolist()]
    # equal values share one string from the table
    assert cells[0] is cells[1]


@pytest.mark.parametrize("dtype", ["int8", "uint8", "int64", "uint64"])
def test_table_offsets_do_not_wrap(dtype):
    # the whole range of the narrow types, over enough rows to use the table
    lo = {"int8": -128, "uint8": 0, "int64": -(2**63), "uint64": 2**64 - 256}[dtype]
    column = np.tile(np.array([lo + i for i in range(256)], dtype=dtype), 5)
    columns = [column]
    assert written_bytes(["k"], columns) == reference_bytes(["k"], columns)


# --- tables of several blocks: odd blocks in one forked worker -------------

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the block worker is forked only where the platform has fork",
)

BLOCK_ROWS = 7
MIXED_HEADER = ["f", "i", "b", "m"]


@pytest.fixture
def bounded():
    """A write that hangs ends the test run with a traceback after 60 s."""
    faulthandler.dump_traceback_later(60, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def mixed_columns(n: int) -> list:
    """Float, int, bool and list columns of n rows."""
    rng = np.random.default_rng(n)
    return [
        rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n),
        rng.integers(-(2**62), 2**62, n),
        rng.random(n) < 0.5,
        [None if i % 3 == 0 else (i * 0.1 if i % 3 == 1 else i) for i in range(n)],
    ]


def logged_blocks(monkeypatch, tmp_path, die_in_worker=False):
    """Patch _format_block to log each block's (pid, start) to a file; a
    forked worker inherits the patch. With die_in_worker the worker exits
    at its first block. Returns a reader of the log."""
    log = tmp_path / "blocks.log"
    log.touch()
    parent = os.getpid()
    original = mio._format_block

    def format_block(columns, start):
        if die_in_worker and os.getpid() != parent:
            os._exit(3)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {start}\n")
        return original(columns, start)

    monkeypatch.setattr(mio, "_format_block", format_block)

    def read():
        pairs = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        return [(int(pid), int(start)) for pid, start in pairs]

    return read


@needs_fork
@pytest.mark.usefixtures("bounded")
def test_worker_formats_the_odd_blocks(monkeypatch, tmp_path):
    n = 8 * BLOCK_ROWS + 3  # nine blocks, the last one short
    columns = mixed_columns(n)
    read = logged_blocks(monkeypatch, tmp_path)
    assert written_bytes(MIXED_HEADER, columns, BLOCK_ROWS) == reference_bytes(MIXED_HEADER, columns)
    assert multiprocessing.active_children() == []
    blocks = read()
    here = sorted(start for pid, start in blocks if pid == os.getpid())
    there = sorted(start for pid, start in blocks if pid != os.getpid())
    assert here == list(range(0, n, 2 * BLOCK_ROWS))
    assert there == list(range(BLOCK_ROWS, n, 2 * BLOCK_ROWS))
    assert len({pid for pid, _ in blocks}) == 2


@needs_fork
@pytest.mark.usefixtures("bounded")
def test_dead_worker_leaves_its_blocks_to_this_process(monkeypatch, tmp_path):
    n = 5 * BLOCK_ROWS
    columns = mixed_columns(n)
    read = logged_blocks(monkeypatch, tmp_path, die_in_worker=True)
    assert written_bytes(MIXED_HEADER, columns, BLOCK_ROWS) == reference_bytes(MIXED_HEADER, columns)
    assert multiprocessing.active_children() == []
    assert read() == [(os.getpid(), start) for start in range(0, n, BLOCK_ROWS)]


@needs_fork
@pytest.mark.usefixtures("bounded")
def test_a_second_thread_keeps_the_write_inline(monkeypatch, tmp_path):
    n = 4 * BLOCK_ROWS
    columns = mixed_columns(n)
    read = logged_blocks(monkeypatch, tmp_path)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        data = written_bytes(MIXED_HEADER, columns, BLOCK_ROWS)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert data == reference_bytes(MIXED_HEADER, columns)
    assert read() == [(os.getpid(), start) for start in range(0, n, BLOCK_ROWS)]
