"""Deterministic JSON and CSV artifact writers.

Artifacts must be byte-identical across re-runs with the same config
and seed: keys are sorted, floats go through repr (shortest round-trip
form), newlines are fixed to "\\n", and nothing time- or host-dependent
is ever written.

CSV contract: write_csv takes the header and a sequence of equal-length
columns, not rows. Each column is formatted once by its type: a float
array through repr, a (non-bool) integer array through str, and any
other sequence, such as a list holding None or an array of bools, cell
by cell through format_cell. The bytes are those of format_cell applied
to every cell of the zipped rows; rows are joined and written in blocks
of _BLOCK_ROWS, so the formatted text held at once stays bounded.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

# Rows formatted and written per block.
_BLOCK_ROWS = 65536


def jsonable(value):
    """Recursively coerce numpy containers and scalars to JSON-safe types."""
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, Path):
        return str(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    return value


def dump_json(path: Path, payload: dict) -> None:
    text = json.dumps(jsonable(payload), sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")


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
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return map(repr, column.tolist())
        if column.dtype.kind in "iu":
            return map(str, column.tolist())
    return map(format_cell, column)


def write_csv(path: Path, header: list, columns: list) -> None:
    """Write equal-length columns under header, one CSV row per index."""
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            cells = [_format_column(column[block]) for column in columns]
            handle.write("\n".join(map(",".join, zip(*cells))) + "\n")
