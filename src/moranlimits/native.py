"""The package's compiled kernels: kernels.c, built on first use and loaded with ctypes.

kernels.c, shipped beside this module, holds four kernels: the chain's
batch step (simulate), the RK4 sweeps of the flow oracle
(deterministic.ode_oracle_at) and of the variance oracle
(fluctuations.variance_ode), and the CSV formatter of float64 and int64
columns (format_rows, for io.write_csv). Each has one Python body,
which runs where the library cannot be had and which it equals bit for
bit, or byte for byte: simulate._python_step, rk4.integrate_at,
rk4.integrate and io's column formatter.

The formatter writes each float's shortest round-trip digits, as repr
does, exactly on 128-bit integers within a window of magnitudes; every
other float (nan, inf, a subnormal, one outside the window, or any
float where the compiler has no 128-bit type) it hands to CPython's own
PyOS_double_to_string, the call of float.__repr__, and frees the text
with PyMem_Free. Both allocate through CPython, which needs the GIL, so
format_table is bound with ctypes.PYFUNCTYPE, whose calls hold the GIL;
the other kernels release it.

library() compiles the source on first use, not at import, with
cc -O2 -ffp-contract=off -shared -fPIC into $XDG_CACHE_HOME/moranlimits
(else ~/.cache/moranlimits, else a private directory in the temp dir),
under a name keyed by the SHA-256 of the source and the flags, and loads
it with ctypes. -ffp-contract=off, and no -ffast-math, keeps fused
multiply-adds out, which would round once where Python and numpy round
twice. A library is written under a temporary name and renamed into
place, so processes that build it at once each load a whole one. Where
no compiler is found, the compile fails or the cache cannot be written,
library() returns None, and nothing is raised or printed.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import shutil
import stat
import tempfile
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .model import REMAINDER_EPS

_SOURCE = Path(__file__).with_name("kernels.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

# rk4_flow's and rk4_variance's leading arguments: rows, coefficients,
# starts, times and their count, the step bound and the remainder
# tolerance. rk4_flow then takes the snap band, and both the output.
_SWEEP_ARGS = (ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
               ctypes.c_void_p, ctypes.c_double, ctypes.c_double)
# The coefficients each sweep reads per row: a, b, c of the drift, and for
# the variance system also ga, gb, gc of the diffusion and the rate r.
_SWEEP_COEFFICIENTS = {"rk4_flow": 3, "rk4_variance": 7}
_TABLE_DTYPES = (np.dtype(np.float64), np.dtype(np.int64))
# Output bytes a cell: no repr of a float is longer than 24 characters
# (-2.2250738585072014e-308) nor str of an int64 than 20, and a comma or
# newline follows each cell.
_CELL_BYTES = 25


def _cache_dir() -> Path:
    """$XDG_CACHE_HOME/moranlimits, else ~/.cache/moranlimits, else one in the temp dir.

    The temp dir is shared, so there the directory is this user's own,
    made private, or OSError is raised: a library another user could
    place there is never loaded.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if os.path.isabs(base):  # an unset, empty or relative one is ignored
        return Path(base) / "moranlimits"
    try:
        return Path.home() / ".cache" / "moranlimits"
    except RuntimeError:  # no home directory
        pass
    private = Path(tempfile.gettempdir()) / f"moranlimits-{os.getuid()}"
    private.mkdir(mode=0o700, exist_ok=True)
    info = private.lstat()
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid() or info.st_mode & 0o077:
        raise OSError(f"{private} is not a private directory of this user")
    return private


def _built_library() -> Path:
    """kernels.c built into the cache, compiled there on first use.

    Raises OSError where no compiler is found, the compile fails or the
    cache cannot be written.
    """
    key = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()
    library = _cache_dir() / f"kernels-{key}.so"
    if library.exists():
        return library
    compiler = shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler on PATH")
    import subprocess  # deferred: only a first build runs the compiler

    library.parent.mkdir(parents=True, exist_ok=True)
    handle, partial = tempfile.mkstemp(suffix=".so", dir=library.parent)
    os.close(handle)
    try:
        build = subprocess.run(
            [compiler, *_CFLAGS, "-o", partial, str(_SOURCE)],
            stdin=subprocess.DEVNULL,
            capture_output=True,
        )
        if build.returncode != 0:
            raise OSError(f"{compiler} exited with status {build.returncode}")
        # renamed whole into place: a process that builds it at the same
        # time, or loads it meanwhile, never sees a partial library
        os.replace(partial, library)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(partial)
    return library


@functools.cache
def library() -> Optional[ctypes.CDLL]:
    """The compiled kernels, or None where they cannot be built or loaded.

    Found on first use, not at import, and never raises or prints. The
    RK4 sweeps' and format_table's prototypes are set here; simulate sets
    chain_step's, whose argument is its own chain structure.
    """
    try:
        kernels = ctypes.CDLL(str(_built_library()))
    except OSError:
        return None
    kernels.rk4_flow.argtypes = _SWEEP_ARGS + (ctypes.c_double, ctypes.c_double, ctypes.c_void_p)
    kernels.rk4_variance.argtypes = _SWEEP_ARGS + (ctypes.c_void_p,)
    kernels.rk4_flow.restype = kernels.rk4_variance.restype = ctypes.c_int
    # format_table(columns, float flags, data pointers, rows, output,
    # CPython's repr, its free) holds the GIL while it runs (module
    # docstring), and raises the exception a failed repr sets
    kernels.format_table = ctypes.PYFUNCTYPE(
        ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    )(("format_table", kernels))
    return kernels


def rk4_sweep(
    name: str, coefficients: Sequence, y0, ts: np.ndarray, max_step: float, *band: float
) -> Optional[np.ndarray]:
    """The compiled RK4 sweep `name` (rk4_flow or rk4_variance) from y0 through ts.

    y0 is a float or a 1-d array of m rows; each coefficient a float or
    an array of m, one per row. Returns the states at ts, of shape
    (len(ts),) for a float and (len(ts), m) for rows, or None where the
    library cannot be had or a span takes more than 2^53 steps: the
    caller then runs its Python body, which gives the same values, or
    the same error.
    """
    if len(coefficients) != _SWEEP_COEFFICIENTS[name]:
        raise ValueError(f"{name} reads {_SWEEP_COEFFICIENTS[name]} coefficients per row")
    kernels = library()
    if kernels is None:
        return None
    rows = np.ascontiguousarray(y0, dtype=float)  # a float becomes one row
    # (coefficients, rows), contiguous: the layout the sweep reads
    coef = np.array([np.broadcast_to(c, rows.shape) for c in coefficients], dtype=float)
    ts = np.ascontiguousarray(ts, dtype=float)
    out = np.empty((ts.size, rows.size))
    status = getattr(kernels, name)(
        rows.size, coef.ctypes.data, rows.ctypes.data, ts.size, ts.ctypes.data,
        max_step, REMAINDER_EPS, *band, out.ctypes.data,
    )
    if status != 0:
        return None
    return out if np.ndim(y0) else out[:, 0]


def format_rows(columns: Sequence) -> Optional[str]:
    """The CSV rows of equal-length columns, each row ending in a newline,
    with the bytes io.format_cell gives each cell.

    Returns None where a column is not a 1-d float64 or int64 array or
    the library cannot be had: the caller then formats the rows in Python.
    """
    if not columns or not all(
        isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype in _TABLE_DTYPES
        for column in columns
    ):
        return None
    n_rows = len(columns[0])
    if any(len(column) != n_rows for column in columns):
        raise ValueError("columns differ in length")
    kernels = library()
    if kernels is None:
        return None
    arrays = [np.ascontiguousarray(column) for column in columns]
    floats = np.array([array.dtype.kind == "f" for array in arrays], dtype=np.int8)
    pointers = np.array([array.ctypes.data for array in arrays], dtype=np.uintp)
    out = np.empty(_CELL_BYTES * n_rows * len(arrays), dtype=np.uint8)
    size = kernels.format_table(
        len(arrays), floats.ctypes.data, pointers.ctypes.data, n_rows, out.ctypes.data,
        ctypes.cast(ctypes.pythonapi.PyOS_double_to_string, ctypes.c_void_p),
        ctypes.cast(ctypes.pythonapi.PyMem_Free, ctypes.c_void_p),
    )
    return out[:size].tobytes().decode("ascii")
