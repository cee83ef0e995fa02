"""Deterministic JSON and CSV artifact writers.

Artifacts must be byte-identical across re-runs with the same config
and seed: keys are sorted, floats go through repr (shortest round-trip
form), newlines are fixed to "\\n", and nothing time- or host-dependent
is ever written.

CSV contract: write_csv takes the header and a sequence of equal-length
columns, not rows. Each column is formatted once by its type: a float
array through repr, a (non-bool) integer array through str, and any
other sequence, such as a list holding None or an array of bools, cell
by cell through format_cell. An integer array whose values span less
than 1 / _SPAN_RATIO of its length, as the path and state columns of
stored paths do, formats each value of the span once and looks its
cells up in that table. The bytes are those of format_cell applied to
every cell of the zipped rows; rows are joined and written in blocks of
_BLOCK_ROWS, so the formatted text held at once stays bounded.

A table of more than one block is formatted on two cores when this
process has the fork start method and runs no thread but its main one
(a forked child would hold a copy of any lock another thread holds).
One forked worker formats the odd blocks, this process formats the even
ones and writes every block in order, so the bytes are those of the
serial loop. One worker block is in flight at a time: block i + 1 is
submitted before block i is formatted, and its text is written right
after block i. The worker is forked before the file is opened. If it
dies, this process formats its block and every later one itself, and
the worker has exited before write_csv returns. Any other table is
formatted block by block in this process.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from pathlib import Path

import numpy as np

# Rows formatted and written per block.
_BLOCK_ROWS = 65536
# An integer block whose values span less than 1 / _SPAN_RATIO of its
# rows is formatted through a table of the span.
_SPAN_RATIO = 2


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
            return _format_integers(column)
    return map(format_cell, column)


def _format_integers(column: np.ndarray):
    """str of every cell, formatting each value once when the span is narrow."""
    if column.size:
        lo, hi = int(column.min()), int(column.max())
        if (hi - lo) * _SPAN_RATIO < column.size:
            table = np.array([str(value) for value in range(lo, hi + 1)], dtype=object)
            # Unsigned offsets cannot wrap; signed values widen first, as
            # int8 -128..127 has offsets up to 255.
            if column.dtype.kind == "u":
                offsets = column - lo
            else:
                offsets = np.subtract(column, lo, dtype=np.int64)
            return table[offsets].tolist()
    return map(str, column.tolist())


def write_csv(path: Path, header: list, columns: list) -> None:
    """Write equal-length columns under header, one CSV row per index."""
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    starts = range(0, n_rows, _BLOCK_ROWS)
    context = _fork_context() if len(starts) > 1 else None
    if context is None:
        _write_blocks(path, header, (_format_block(columns, start) for start in starts))
        return
    from concurrent.futures import ProcessPoolExecutor  # deferred, as in _fork_context

    with ProcessPoolExecutor(
        max_workers=1, mp_context=context, initializer=_hold_columns, initargs=(columns,)
    ) as pool:
        # The first submit forks the worker, before the file is opened, so
        # the worker inherits no buffer of it.
        first = pool.submit(_format_held_block, starts[1])
        _write_blocks(path, header, _alternating_blocks(pool, first, columns, starts))


def _write_blocks(path: Path, header: list, texts) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        # writelines drops each text before it asks for the next one
        handle.writelines(texts)


def _format_block(columns: list, start: int) -> str:
    """The rows from start on, at most _BLOCK_ROWS of them, each ending in a newline."""
    block = slice(start, start + _BLOCK_ROWS)
    cells = [_format_column(column[block]) for column in columns]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def _fork_context():
    """The fork context when a block worker may be forked, else None."""
    if threading.active_count() != 1:
        return None
    import multiprocessing  # deferred: only tables of several blocks need a worker

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


# The columns of the table being written, set only in a forked worker: a
# submit sends the worker a block's start, not its rows.
_held_columns: list = []


def _hold_columns(columns: list) -> None:
    global _held_columns
    _held_columns = columns


def _format_held_block(start: int) -> str:
    return _format_block(_held_columns, start)


def _alternating_blocks(pool, first, columns: list, starts: range):
    """Every block's text in order: odd blocks from the worker, even ones from here.

    first is the worker's future for block 1. Block i + 1 is submitted
    before block i is formatted, so one worker block is in flight at a
    time. Once the worker has died, every block not yet yielded is
    formatted here.
    """
    from concurrent.futures.process import BrokenProcessPool

    future, done = first, 0
    try:
        for even in range(0, len(starts), 2):
            odd = even + 1
            if even and odd < len(starts):
                future = pool.submit(_format_held_block, starts[odd])
            yield _format_block(columns, starts[even])
            done += 1
            if odd < len(starts):
                yield future.result()
                done += 1
    except BrokenProcessPool:
        for start in starts[done:]:
            yield _format_block(columns, start)
