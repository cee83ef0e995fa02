"""The column-wise CSV writer against the per-cell reference format."""

import tempfile
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
