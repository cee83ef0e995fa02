"""The column-wise CSV writer against the per-cell reference format, on the
compiled and the Python formatter; the compiled formatter against repr;
and dump_json's numpy encoding through json's default hook."""

import ctypes
import errno
import io
import os
import tempfile
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import WIDE, each_kernel_body
from moranlimits import io as mio
from moranlimits import native
from moranlimits.io import dump_json, format_cell, write_csv

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
    for _ in each_kernel_body():
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


@pytest.mark.parametrize("header", [["a", "b"], []])
def test_header_of_another_width_rejected(tmp_path, header):
    path = tmp_path / "table.csv"
    message = f"header names {len(header)} columns, but 1 are given"
    with pytest.raises(ValueError, match=message):
        write_csv(path, header, [np.array([1.0, 2.0])])
    assert not path.exists()


@st.composite
def narrow_integer_columns(draw):
    """Integer columns of any width whose values span less than half the rows,
    as the path and state columns of stored paths do."""
    dtype = np.dtype(draw(st.sampled_from(["int8", "int16", "int64", "uint8", "uint64"])))
    info = np.iinfo(dtype)
    n = draw(st.integers(1, 120))
    span = draw(st.integers(0, max(0, (n - 1) // 2)))
    lo = draw(st.integers(int(info.min), int(info.max) - span))
    offsets = draw(st.lists(st.integers(0, span), min_size=n, max_size=n))
    return np.array([lo + offset for offset in offsets], dtype=dtype)


@settings(deadline=None)
@given(column=narrow_integer_columns(), block_rows=st.integers(1, 200))
def test_narrow_integer_columns_write_the_per_cell_bytes(column, block_rows):
    columns = [column, np.arange(column.size) * 0.5]
    for _ in each_kernel_body():
        assert written_bytes(["k", "t"], columns, block_rows) == reference_bytes(["k", "t"], columns)


@pytest.mark.parametrize("dtype", ["int8", "uint8", "int64", "uint64"])
def test_table_offsets_do_not_wrap(dtype):
    # the whole range of the narrow types, each value five times
    lo = {"int8": -128, "uint8": 0, "int64": -(2**63), "uint64": 2**64 - 256}[dtype]
    column = np.tile(np.array([lo + i for i in range(256)], dtype=dtype), 5)
    columns = [column]
    for _ in each_kernel_body():
        assert written_bytes(["k"], columns) == reference_bytes(["k"], columns)


# --- dump_json: json's default hook encodes numpy values --------------------


def test_numpy_payload_writes_the_bytes_of_its_python_equivalent(tmp_path):
    numpy_payload = {
        "f64": np.float64(0.1),
        "f32": np.float32(0.1),
        "i64": np.int64(-(2**62)),
        "flag": np.bool_(True),
        "floats": np.array([1e-5, 1e16, -0.0, 1.0 / 3.0]),
        "ints": np.arange(-1, 2, dtype=np.int64),
        "pair": (np.float64(2.0), 3, "x"),
        "nested": {"b": {"grid": np.array([[1, 2], [3, 4]])}, "a": [np.bool_(False), None]},
    }
    plain_payload = {
        "f64": 0.1,
        "f32": 0.10000000149011612,
        "i64": -(2**62),
        "flag": True,
        "floats": [1e-5, 1e16, -0.0, 1.0 / 3.0],
        "ints": [-1, 0, 1],
        "pair": [2.0, 3, "x"],
        "nested": {"b": {"grid": [[1, 2], [3, 4]]}, "a": [False, None]},
    }
    dump_json(tmp_path / "numpy.json", numpy_payload)
    dump_json(tmp_path / "plain.json", plain_payload)
    data = (tmp_path / "numpy.json").read_bytes()
    assert data == (tmp_path / "plain.json").read_bytes()
    assert data.endswith(b"}\n") and b"\r" not in data


@pytest.mark.parametrize(
    "value",
    [float("nan"), np.float64("nan"), np.float32("nan"), np.array([0.0, np.nan]), np.inf],
)
def test_non_finite_payload_raises_and_writes_nothing(tmp_path, value):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        dump_json(path, {"ok": 1.0, "value": value})
    assert not path.exists()


@pytest.mark.parametrize("value", [{1, 2}, Path("a"), object()])
def test_unencodable_value_raises_and_writes_nothing(tmp_path, value):
    path = tmp_path / "report.json"
    with pytest.raises(TypeError):
        dump_json(path, {"value": [value]})
    assert not path.exists()


# --- a write that fails after open names its file -------------------------


class FullDisk(io.RawIOBase):
    """A file on a full disk: it opens, and every write raises ENOSPC."""

    def writable(self):
        return True

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def open_on_full_disk(path, mode):
    assert mode == "wb"
    return io.BufferedWriter(FullDisk())


@pytest.mark.parametrize(
    "write",
    [
        lambda path: dump_json(path, {"a": 1}),  # short: fails as the file is closed
        lambda path: write_csv(path, ["k"], [np.arange(10**4)]),  # fails in a write
    ],
    ids=["dump_json", "write_csv"],
)
def test_full_disk_error_names_the_file(monkeypatch, tmp_path, write):
    monkeypatch.setattr(mio, "open", open_on_full_disk, raising=False)
    path = tmp_path / "artifact"
    with pytest.raises(OSError) as raised:
        write(path)
    assert raised.value.errno == errno.ENOSPC
    assert raised.value.filename == str(path)


def test_error_forming_a_text_propagates_unnamed(tmp_path):
    # an OSError of something other than the file, raised while a text is
    # formed
    def texts():
        yield b"k\n"
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    with pytest.raises(BlockingIOError) as raised:
        mio._write_texts(tmp_path / "table.csv", texts())
    assert raised.value.filename is None
    assert (tmp_path / "table.csv").read_bytes() == b"k\n"


# --- the compiled formatter against repr and str ---------------------------


# Each significant-digit count at each decimal exponent: the layout
# switches at 1e-05/0.0001 and 1e+16/1e15, and the digit writer's
# 8/9- and 16/17-digit boundaries between its halves.
DIGIT_COUNTS = range(1, 18)
DECIMAL_EXPONENTS = range(-5, 19)


def significant_digits(value: float) -> tuple:
    """The significant digits of repr(value) and its decimal exponent:
    (3, -5) for 1.25e-05."""
    number = Decimal(repr(value)).normalize()
    return len(number.as_tuple().digits), number.adjusted()


def digit_grid() -> np.ndarray:
    """For each digit count and decimal exponent, a float whose repr has
    that many significant digits there."""
    rng = np.random.default_rng(17)
    found = []
    for exponent in DECIMAL_EXPONENTS:
        for count in DIGIT_COUNTS:
            # a 17-digit repr needs an interval that holds no 16-digit
            # decimal, which a random draw finds within a few tries
            for _ in range(100):
                value = float(f"{rng.integers(10 ** (count - 1), 10**count)}e{exponent - count + 1}")
                if significant_digits(value) == (count, exponent):
                    found.append(value)
                    break
    assert len(found) == len(DIGIT_COUNTS) * len(DECIMAL_EXPONENTS)
    return np.array(found)


def corpus_floats() -> np.ndarray:
    """Floats where shortest digits or their layout are delicate, each with
    its negation and its neighbours one ulp away."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    decimals = np.array([float(f"{a}e{b}") for a in range(1, 3000) for b in range(-20, 25)])
    layout = np.array([1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e-5])
    # the edges of the exact window, 2^-46 and 2^127
    edges = np.ldexp(1.0, np.array([-47, -46, -45, 126, 127, 128]))
    base = np.concatenate([powers, decimals, layout, edges, digit_grid()])
    near = np.concatenate(
        [base, np.nextafter(base, -np.inf), np.nextafter(base, np.inf), [0.0, np.nan, np.inf]]
    )
    return np.concatenate([near, -near])


def random_floats(rng, n: int) -> np.ndarray:
    return rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)


def test_compiled_floats_match_repr():
    if native.library() is None:
        pytest.skip("no C compiler: every block takes io's Python formatter")
    rng = np.random.default_rng(2018)
    chunks = [corpus_floats()]
    chunks += [random_floats(rng, 10**5) for _ in range(40 if WIDE else 1)]
    for floats in chunks:
        expected = "".join(repr(value) + "\n" for value in floats.tolist())
        assert bytes(native.format_rows([floats])) == expected.encode("ascii")
    # the int64 extremes, and each digit count's first and last values
    powers = [10**k for k in range(19)]
    listed = [-(2**63), 2**63 - 1, -1, 0, 1] + powers + [-p for p in powers] + [p - 1 for p in powers]
    integers = np.array(listed, dtype=np.int64)
    expected = "".join(f"{value},{float(value)!r}\n" for value in integers.tolist())
    assert bytes(native.format_rows([integers, integers.astype(float)])) == expected.encode("ascii")


def test_longest_cells_fill_the_buffer_bound():
    # every cell in its longest form: repr of a float is at most 24
    # characters and str of an int64 at most 20
    n = 1000
    columns = [np.full(n, -2.2250738585072014e-308), np.full(n, -(2**63), dtype=np.int64)]
    for kernels in each_kernel_body():
        assert written_bytes(["f", "i"], columns, 7) == reference_bytes(["f", "i"], columns)
        if kernels is not None:
            assert len(native.format_rows(columns[:1])) == native._CELL_BYTES * n


# (-1234567890123456.8 runs furthest past its cell's room; after a cell
# that fills its own room, it starts where the bound allows no slack)
@pytest.mark.parametrize(
    "cells",
    [
        [-2.2250738585072014e-308],
        [-(2**63)],
        [-1234567890123456.8],
        [-2.2250738585072014e-308, -1234567890123456.8],
        [-1.2345678901234567e-10, -(2**63), -1234567890123456.8, 0.00012345678901234567],
    ],
    ids=["subnormal-edge", "int64-min", "furthest", "full-then-furthest", "mixed"],
)
@pytest.mark.parametrize("n_rows", [1, 3])
def test_fixed_length_copies_stay_in_the_tail_pad(cells, n_rows):
    kernels = native.library()
    if kernels is None:
        pytest.skip("no C compiler: no compiled formatter")
    columns = [
        np.full(n_rows, cell, dtype=np.int64 if isinstance(cell, int) else np.float64)
        for cell in cells
    ]
    floats = np.array([column.dtype.kind == "f" for column in columns], dtype=np.int8)
    pointers = np.array([column.ctypes.data for column in columns], dtype=np.uintp)
    room = native._CELL_BYTES * n_rows * len(columns) + native._TAIL_PAD
    guard = 64
    out = np.full(room + guard, 0xA5, dtype=np.uint8)
    size = kernels.format_table(
        len(columns), floats.ctypes.data, pointers.ctypes.data, n_rows, out.ctypes.data,
        ctypes.cast(ctypes.pythonapi.PyOS_double_to_string, ctypes.c_void_p),
        ctypes.cast(ctypes.pythonapi.PyMem_Free, ctypes.c_void_p),
    )
    row = ",".join(format_cell(cell) for cell in cells) + "\n"
    assert out[:size].tobytes() == (row * n_rows).encode("ascii")
    assert (out[room:] == 0xA5).all()


def test_other_columns_are_left_to_python():
    floats = np.arange(3.0)
    for column in [np.arange(3, dtype=np.int32), floats > 1.0, floats.tolist(), floats[:, None]]:
        assert native.format_rows([floats, column]) is None
    with mock.patch.object(native, "library", lambda: None):
        assert native.format_rows([floats]) is None
