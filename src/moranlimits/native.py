"""The package's compiled kernels: kernels.c, built on first use and loaded with ctypes.

kernels.c, shipped beside this module, holds five kernels: the chain's
batch step (simulate), the RK4 sweeps of the flow oracle
(deterministic.ode_oracle_at) and of the variance oracle
(fluctuations.variance_ode), the Gaussian path sampler
(fluctuations.sample_fluctuation_paths, through fluctuation_rows here)
and the CSV formatter of float64 and int64 columns (format_rows, for
io.write_csv). Each has one Python body, which runs where the library
cannot be had and which it equals bit for bit, or byte for byte:
simulate._python_step, rk4.integrate_at, rk4.integrate, the sampler's
generators and column loop, and io's column formatter. library() binds
all five, so it is the one switch: where it returns None, each runs that body.

The sampler seeds numpy's PCG64 from each path's state and draws with
numpy's own random_standard_normal, which the library links from
numpy's numpy/random/lib/libnpyrandom.a where numpy ships it; kernels.c
declares it weak, so the other kernels build without the archive, and
there the sampler reports that it cannot run. Its rows are split into
contiguous blocks over min(rows, usable_cpus()) threads, each block one
call, and row p reads only its own stream, so the bytes do not depend
on the thread count.

The formatter writes each float's shortest round-trip digits, as repr
does, exactly on 128-bit integers within a window of magnitudes; every
other float (nan, inf, a subnormal, one outside the window, or any
float where the compiler has no 128-bit type) it hands to CPython's own
PyOS_double_to_string, the call of float.__repr__, and frees the text
with PyMem_Free. Both allocate through CPython, which needs the GIL, so
format_table is bound with ctypes.PYFUNCTYPE, whose calls hold the GIL;
the other four kernels are plain CDLL functions, whose calls release it.
It writes digits two at a time from a table of pairs, a float's from
two 8-digit halves, and copies a float's digits into its cell in fixed
lengths, which may run past the cell's room: format_rows allocates
_CELL_BYTES a cell and a _TAIL_PAD after them, and returns the bytes
written as a memoryview of that buffer, which io writes as it is.

library() compiles the source on first use, not at import, with
cc -O2 -ffp-contract=off -shared -fPIC into $XDG_CACHE_HOME/moranlimits
(else ~/.cache/moranlimits, else a private directory in the temp dir),
linking libnpyrandom.a (and libm) where it exists, under a name keyed
by the SHA-256 of the source, the flags and the archive's bytes, so a
numpy upgrade builds anew; and loads it with ctypes. -ffp-contract=off,
and no -ffast-math, keeps fused multiply-adds out, which would round
once where Python and numpy round twice. A library is written under a
temporary name and renamed into place, so processes that build it at
once each load a whole one. Where no compiler is found, the compile
fails or the cache cannot be written, library() returns None, and
nothing is raised or printed.
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
import threading
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .model import REMAINDER_EPS

_SOURCE = Path(__file__).with_name("kernels.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# numpy's own distributions, linked where numpy ships them: -u pulls the
# normal draw's member out of the archive (kernels.c's weak reference
# alone would not, and leave the function NULL), and -lm, after it, the
# libm it calls.
_NUMPY_RANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
_LINK_NORMAL = ("-Wl,-u,random_standard_normal",)

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
# Bytes after the cells' room: format_table copies a float's digits in
# fixed lengths, which may run up to 9 bytes past the last cell's room.
_TAIL_PAD = 16


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
    flags, inputs, archive = _CFLAGS, [str(_SOURCE)], b""
    if _NUMPY_RANDOM.is_file():
        flags, archive = _CFLAGS + _LINK_NORMAL, _NUMPY_RANDOM.read_bytes()
        inputs += [str(_NUMPY_RANDOM), "-lm"]
    key = hashlib.sha256(_SOURCE.read_bytes() + " ".join(flags).encode() + archive).hexdigest()
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
            [compiler, *flags, "-o", partial, *inputs],
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

    Found on first use, not at import, and never raises or prints. Every
    kernel's prototype is set here, so this is the one switch between the
    compiled bodies and the Python ones.
    """
    try:
        kernels = ctypes.CDLL(str(_built_library()))
    except OSError:
        return None
    # chain_step(a simulate._Chain by reference, the batch's events)
    kernels.chain_step.argtypes = (ctypes.c_void_p, ctypes.c_int64)
    kernels.rk4_flow.argtypes = _SWEEP_ARGS + (ctypes.c_double, ctypes.c_double, ctypes.c_void_p)
    kernels.rk4_variance.argtypes = _SWEEP_ARGS + (ctypes.c_void_p,)
    for kernel in (kernels.chain_step, kernels.rk4_flow, kernels.rk4_variance):
        kernel.restype = ctypes.c_int
    # fluctuation_rows(first, last, columns, states, propagators, shock
    # sds, output)
    kernels.fluctuation_rows.argtypes = (ctypes.c_int64,) * 3 + (ctypes.c_void_p,) * 4
    kernels.fluctuation_rows.restype = ctypes.c_int
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


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_threads(tasks: Sequence[Callable[[], None]], stop: threading.Event) -> None:
    """Run tasks[0] on this thread and each other task on a helper thread.

    A task whose thread cannot be started (RuntimeError, such as at a
    thread limit) runs on this thread after tasks[0]. The first exception
    in a helper sets stop and is raised here, and one raised here sets
    stop too; a task that can end early reads it. Every helper has been
    joined before this returns or raises, so selfcheck.run_all may fork
    afterwards.
    """
    errors = []

    def helper(task: Callable[[], None]) -> None:
        try:
            task()
        except BaseException as err:  # raised again in the calling thread
            errors.append(err)
            stop.set()

    helpers, unstarted = [], []
    try:
        for task in tasks[1:]:
            thread = threading.Thread(target=helper, args=(task,))
            try:
                thread.start()
                helpers.append(thread)
            except RuntimeError:  # "can't start new thread"
                unstarted.append(task)
        tasks[0]()
        for task in unstarted:
            task()
    finally:
        stop.set()
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]


def fluctuation_rows(
    states: np.ndarray, propagate: np.ndarray, shock_sd: np.ndarray, out: np.ndarray
) -> bool:
    """Fill out, an (n_paths, n_steps + 1) float64 matrix, with the compiled sampler.

    Row p draws from the PCG64 state states[p] (model._path_states); the
    rows are split into contiguous blocks over min(n_paths, usable_cpus())
    threads, this one and helpers, each block one GIL-free call, so the
    bytes do not depend on the thread count. Returns False, writing
    nothing and starting no thread, where the library cannot be had or
    lacks numpy's normal draw: the caller then runs its Python body.
    """
    kernels = library()
    n_paths, n_cols = out.shape
    # a call on no rows reports whether numpy's normal was linked
    if kernels is None or kernels.fluctuation_rows(0, 0, n_cols, None, None, None, None) != 0:
        return False
    states = np.ascontiguousarray(states, dtype=np.uint64)
    propagate = np.ascontiguousarray(propagate, dtype=float)
    shock_sd = np.ascontiguousarray(shock_sd, dtype=float)
    if states.shape != (n_paths, 4) or not propagate.shape == shock_sd.shape == (n_cols - 1,):
        raise ValueError("states, propagators or shock sds do not fit the output")
    if out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float64 matrix")
    threads = min(n_paths, usable_cpus())
    bounds = [n_paths * i // threads for i in range(threads + 1)]

    def block(first: int, last: int) -> Callable[[], None]:
        return lambda: kernels.fluctuation_rows(
            first, last, n_cols, states.ctypes.data, propagate.ctypes.data,
            shock_sd.ctypes.data, out.ctypes.data,
        )

    run_threads([block(*span) for span in zip(bounds[:-1], bounds[1:])], threading.Event())
    return True


def format_rows(columns: Sequence) -> Optional[memoryview]:
    """The CSV rows of equal-length columns, each row ending in a newline,
    as a memoryview of the ASCII bytes io.format_cell gives each cell.

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
    out = np.empty(_CELL_BYTES * n_rows * len(arrays) + _TAIL_PAD, dtype=np.uint8)
    size = kernels.format_table(
        len(arrays), floats.ctypes.data, pointers.ctypes.data, n_rows, out.ctypes.data,
        ctypes.cast(ctypes.pythonapi.PyOS_double_to_string, ctypes.c_void_p),
        ctypes.cast(ctypes.pythonapi.PyMem_Free, ctypes.c_void_p),
    )
    return out[:size].data
