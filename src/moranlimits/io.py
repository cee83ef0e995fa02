"""Deterministic JSON and CSV artifact writers.

Artifacts must be byte-identical across re-runs with the same config
and seed: keys are sorted, floats go through repr (shortest round-trip
form), newlines are fixed to "\\n", and nothing time- or host-dependent
is ever written. dump_json lets json's default hook turn numpy arrays
and scalars into Python values; NaN or any other type raises before the
file is opened.

CSV contract: write_csv takes the header and one or more tables, each a
sequence of equal-length columns, not rows, written in order. Each
column is formatted once by its type: a float array through repr, a
(non-bool) integer array through str, and any other sequence, such as a
list holding None or an array of bools, cell by cell through
format_cell. The bytes are those of format_cell applied to every cell of
each table's zipped rows; a table's rows are joined and written in
blocks of _BLOCK_ROWS, so the formatted text held at once stays bounded.

Each block whose columns are all float64 or int64 arrays is formatted
by the compiled library (native.format_rows), which writes the same
bytes; any other block, or every block where the library cannot be had,
is formatted here in Python.

Artifacts are written as bytes, in binary mode: the JSON text, the CSV
header and each block the Python formatter joins are encoded once as
UTF-8, and a compiled block's ASCII bytes are written as they are, with
no decode or encode.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from . import native

# Rows formatted and written per block.
_BLOCK_ROWS = 65536


def _json_default(value):
    """json's hook for what it cannot encode: numpy arrays and scalars."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def dump_json(path: Path, payload: dict) -> None:
    """Sorted, indented JSON; NaN or an unknown type raises before the file is opened."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False, default=_json_default)
    _write_texts(path, [(text + "\n").encode("utf-8")])


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _format_column(column):
    """Cells of one column as strings, exactly as format_cell writes them."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        return map(repr if column.dtype.kind == "f" else str, column.tolist())
    return map(format_cell, column)


def write_csv(path: Path, header: list, *tables) -> None:
    """Write tables of equal-length columns under header, one CSV row per
    index, table after table.

    ValueError is raised, before the file is opened, where the header
    does not name one column each or a table's columns differ in length.
    """
    for columns in tables:
        if len(header) != len(columns):
            raise ValueError(f"header names {len(header)} columns, but {len(columns)} are given")
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise ValueError(f"columns differ in length: {sorted(lengths)}")
    texts = (
        _format_block(columns, start)
        for columns in tables
        for start in range(0, len(columns[0]) if columns else 0, _BLOCK_ROWS)
    )
    _write_texts(path, itertools.chain([(",".join(header) + "\n").encode("utf-8")], texts))


def _write_texts(path: Path, texts) -> None:
    """Write each of texts, each bytes-like, to path in order, in binary mode.

    An OSError of the file itself, such as a full disk, is raised naming
    path, so the CLI reports it; one raised while texts forms a text is
    not the file's, and propagates as it is.
    """
    handle = open(path, "wb")
    try:
        for text in texts:
            try:
                handle.write(text)
            except OSError as err:
                raise OSError(err.errno, err.strerror, str(path)) from err
            del text  # dropped before the next text is formed
    finally:
        try:
            handle.close()
        except OSError as err:
            raise OSError(err.errno, err.strerror, str(path)) from err


def _format_block(columns: list, start: int) -> bytes | memoryview:
    """The UTF-8 bytes of the rows from start on, at most _BLOCK_ROWS of
    them, each ending in a newline."""
    block = [column[start : start + _BLOCK_ROWS] for column in columns]
    text = native.format_rows(block)
    if text is None:
        cells = [_format_column(column) for column in block]
        text = ("\n".join(map(",".join, zip(*cells))) + "\n").encode("utf-8")
    return text

