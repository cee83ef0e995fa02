"""Exact event-driven simulation of the finite-N chain and path ensembles.

Every jump is simulated: the holding time at state k is exponential
with rate lambda_k + mu_k and the jump goes up with probability
lambda_k / (lambda_k + mu_k). No time discretisation enters anywhere;
grid values are read off the right-continuous step path. With u = 0 the
boundary states absorb and simulation stops early.

A path draws its waits and coins in batches of 64, 256, 1024, 4096 and
then 8192 each: a batch's exponential waits, then as many uniform
coins. _run_chain draws each batch with numpy and hands it to one batch
step, which runs the path's events on it: the wait t + w / rate, the
coin test coin < p_up[k], the grid fill, the optional event record, and
the stop at the grid's end or at a state of rate 0. Every path runs
this way: simulate_path, simulate_on_grid and each path of run_ensemble.

An ensemble's paths run on min(n_paths, usable CPUs) threads, the
calling thread and helpers, each with its own chain: the compiled step
and numpy's fills of the batch buffers release the GIL, so nearly all of
a path's time runs in parallel. The usable CPUs are those the process
may run on; with the Python step, which holds the GIL, one thread runs
them all. Paths are handed out one at a time, and path p still runs on
its own stream and writes row p, so the result does not depend on the
thread that ran it. Every helper has ended before run_ensemble returns
or raises.

The step has two bodies with the same arithmetic: chain_step in
kernels.c, which native.library() compiles on first use and loads with
ctypes, and _python_step, the same step as a Python loop, several times
slower and equal bit for bit, which runs where the library cannot be
had.

Reproducibility contract: a path is a pure function of
(seed, params, k0, horizon). Ensembles give path p the dedicated stream
seeded by (master_seed, p), the generator
np.random.default_rng([master_seed, p]) builds, so any prefix of paths
can be regenerated in isolation. The contract fixes each path's PCG64
state, not how it is computed: model.path_generators hashes every
path's state in one vectorised pass. The batch schedule is part of that
contract. The same holds for summarize_paths, which summarises paths
already kept event by event by simulate_path.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import native
from .deterministic import DeterministicSolution
from .fluctuations import FluctuationLaw
from .model import (
    DomainError,
    ModelParams,
    check_grid,
    check_int,
    check_real,
    check_seed,
    check_times,
    path_generators,
    rate_tables,
)
from .stationary import ks_sample_to_gaussian

ArrayLike = Union[float, np.ndarray]

# Random variates are pre-drawn in growing batches: single-event paths pay
# for 64 draws, long paths amortise refills at the cap.
_BATCH_START = 64
_BATCH_MAX = 8192
# The step's results: the batch is spent, the next event lies past the
# grid's end, or the chain holds a state of rate 0.
_SPENT, _HORIZON, _ABSORBED = 0, 1, 2


@dataclass(frozen=True)
class TrajectoryPath:
    """One realised path: event times and the state after each event.

    The path starts at k0 at time 0 and is constant between events; its
    value at time t is the state after the last event at or before t.
    `absorbed` records that the chain hit a zero-rate state (only
    possible for u = 0 at the boundaries) before the horizon.
    """

    params: ModelParams
    k0: int
    times: np.ndarray
    states: np.ndarray
    final_time: float
    absorbed: bool

    @property
    def n_events(self) -> int:
        return int(self.times.size)


def _step_tables(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Every state's total event rate and the probability that its event goes up."""
    lam, mu = rate_tables(params)
    rates = lam + mu
    with np.errstate(invalid="ignore", divide="ignore"):
        positive = rates > 0.0
        p_up = np.where(positive, lam / np.where(positive, rates, 1.0), 0.0)
    return rates, p_up


class _Chain(ctypes.Structure):
    """One run of the chain: kernels.c's chain_t and the arrays it points into.

    The batch buffers and grid_states are the chain's own and serve the
    paths it runs one after another; the step tables and the time grid
    are only read, so chains may share them. t, k, gi and kept are the
    position of the path being run. Every array the step reads or writes
    is an attribute, so its address stays valid for the life of the run.
    times and states, one batch's events, are allocated only when the
    chain keeps events.
    """

    _fields_ = [
        ("rates_at", ctypes.c_void_p),
        ("p_up_at", ctypes.c_void_p),
        ("grid_at", ctypes.c_void_p),
        ("waits_at", ctypes.c_void_p),
        ("coins_at", ctypes.c_void_p),
        ("grid_states_at", ctypes.c_void_p),
        ("times_at", ctypes.c_void_p),
        ("states_at", ctypes.c_void_p),
        ("n_grid", ctypes.c_int64),
        ("k", ctypes.c_int64),
        ("gi", ctypes.c_int64),
        ("kept", ctypes.c_int64),
        ("t", ctypes.c_double),
    ]

    def __init__(self, tables: tuple, grid: np.ndarray, keep_events: bool = False):
        self.rates, self.p_up = tables  # _step_tables' result
        self.grid = np.ascontiguousarray(grid, dtype=float)
        self.waits = np.empty(_BATCH_MAX)
        self.coins = np.empty(_BATCH_MAX)
        self.grid_states = np.empty(self.grid.size, dtype=np.int64)
        self.times = np.empty(_BATCH_MAX) if keep_events else None
        self.states = np.empty(_BATCH_MAX, dtype=np.int64) if keep_events else None
        arrays = (self.rates, self.p_up, self.grid, self.waits, self.coins,
                  self.grid_states, self.times, self.states)
        super().__init__(*(None if a is None else a.ctypes.data for a in arrays), self.grid.size)

    @functools.cached_property
    def lists(self) -> tuple[list, list, list]:
        """The rate and up-move tables and the grid as lists, for _python_step."""
        return self.rates.tolist(), self.p_up.tolist(), self.grid.tolist()


def _python_step(chain: _Chain, n: int) -> int:
    """kernels.c's chain_step as a Python loop, with the same arithmetic.

    Python's float / + and < round as C's double ones do, so both steps
    give the same path bit for bit.
    """
    rates, p_up, grid = chain.lists  # scalar indexing into lists beats arrays
    grid_states = chain.grid_states
    n_grid, t_end = len(grid), grid[-1]
    waits = chain.waits[:n].tolist()
    coins = chain.coins[:n].tolist()
    keep = chain.times is not None
    times, states = [], []
    t, k, gi, i = chain.t, chain.k, chain.gi, 0
    while True:
        rate = rates[k]
        if rate <= 0.0:
            status = _ABSORBED
            break
        if i == n:
            status = _SPENT
            break
        t_next = t + waits[i] / rate
        up = coins[i] < p_up[k]
        i += 1
        if t_next > t_end:
            status = _HORIZON
            break
        # state k holds on [t, t_next); grid points there read k
        while gi < n_grid and grid[gi] < t_next:
            grid_states[gi] = k
            gi += 1
        t = t_next
        k = k + 1 if up else k - 1
        if keep:
            times.append(t)
            states.append(k)
    if keep:
        chain.times[: len(times)] = times
        chain.states[: len(states)] = states
    chain.t, chain.k, chain.gi, chain.kept = t, k, gi, len(times)
    return status


@functools.cache
def _batch_step():
    """The compiled chain_step, or _python_step where the library cannot be had."""
    kernels = native.library()
    if kernels is None:
        return _python_step
    step = kernels.chain_step
    step.argtypes = (ctypes.POINTER(_Chain), ctypes.c_int64)
    step.restype = ctypes.c_int
    return step


def _run_chain(k0: int, rng: np.random.Generator, chain: _Chain):
    """Drive one chain from k0 at time 0 to chain.grid[-1], drawing from rng.

    Leaves the state at each grid time in chain.grid_states and returns
    (absorbed, times, states): whether the chain stopped at a state of
    rate 0, and the event times and the state after each event, both
    empty unless the chain keeps events. Each step call runs one batch,
    at most _BATCH_MAX events, so signals are served between batches.
    """
    step = _batch_step()
    chain.t, chain.k, chain.gi = 0.0, k0, 0
    times, states = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    batch = _BATCH_START
    while True:
        # the batch's exponential waits, then as many uniform coins
        rng.standard_exponential(out=chain.waits[:batch])
        rng.random(out=chain.coins[:batch])
        status = step(chain, batch)
        if chain.times is not None:
            times.append(chain.times[: chain.kept].copy())
            states.append(chain.states[: chain.kept].copy())
        if status != _SPENT:
            break
        batch = min(batch * 4, _BATCH_MAX)
    chain.grid_states[chain.gi :] = chain.k
    return status == _ABSORBED, np.concatenate(times), np.concatenate(states)


def _run_paths(
    k0: int, grid: np.ndarray, rng_seed: int, n_paths: int, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Grid states (n_paths, grid.size) and absorbed flags of paths on the streams [rng_seed, p].

    The paths run on min(n_paths, native.usable_cpus()) threads, one with
    the Python step: this one and helpers (native.run_threads), each
    driving its own chain. A thread takes the next path from one locked
    source (a generator may not be advanced by two threads at once) and
    writes its row. The first exception in a helper stops every thread at
    its next path and is raised here, and one here stops the helpers too;
    every helper has been joined before this returns or raises.
    """
    threads = 1 if _batch_step() is _python_step else min(n_paths, native.usable_cpus())
    tables = _step_tables(params)
    states = np.empty((n_paths, grid.size), dtype=np.int64)
    absorbed = np.zeros(n_paths, dtype=bool)
    source = enumerate(path_generators(rng_seed, n_paths))
    lock, stop = threading.Lock(), threading.Event()

    def run(chain: _Chain) -> None:
        while not stop.is_set():
            with lock:
                p, rng = next(source, (None, None))
            if rng is None:
                return
            absorbed[p] = _run_chain(k0, rng, chain)[0]
            states[p] = chain.grid_states

    chains = [_Chain(tables, grid) for _ in range(threads)]
    native.run_threads([functools.partial(run, chain) for chain in chains], stop)
    return states, absorbed


def simulate_path(
    k0: int, t_end: float, rng_seed, params: ModelParams
) -> TrajectoryPath:
    """Simulate one path on [0, t_end], retaining every event.

    Args:
        k0: initial type-0 count.
        t_end: horizon, >= 0.
        rng_seed: non-negative integer (or sequence of them) feeding
            numpy's seed sequence; identical inputs give the identical
            path.
        params: model parameters.
    """
    k0 = check_int(k0, "k0", 0, params.N)
    t_end = check_real(t_end, "t_end", minimum=0.0)
    check_seed(rng_seed, sequence=True)
    chain = _Chain(_step_tables(params), np.array([t_end]), keep_events=True)
    absorbed, times, states = _run_chain(k0, np.random.default_rng(rng_seed), chain)
    return TrajectoryPath(
        params=params,
        k0=k0,
        times=times,
        states=states,
        final_time=t_end,
        absorbed=absorbed,
    )


def simulate_on_grid(
    k0: int, t_grid: Sequence[float], rng_seed, params: ModelParams
) -> np.ndarray:
    """States at the grid times only, without retaining events.

    Consumes randomness identically to simulate_path with
    t_end = t_grid[-1], so both views of one seed agree: simulate_path
    is the same chain run on the one-point grid [t_end], keeping its events.
    """
    k0 = check_int(k0, "k0", 0, params.N)
    grid = check_grid(t_grid)
    check_seed(rng_seed, sequence=True)
    chain = _Chain(_step_tables(params), grid)
    _run_chain(k0, np.random.default_rng(rng_seed), chain)
    return chain.grid_states


def sample_Z_at(times: ArrayLike, path: TrajectoryPath) -> ArrayLike:
    """Proportion Z^N = X^N / N of the path at the given times.

    Right-continuous lookup: a query at an event time sees the state
    after the jump. Times must lie in [0, path.final_time].
    """
    arr, scalar = check_times(times, "times", maximum=path.final_time)
    states = np.concatenate(([path.k0], path.states))
    idx = np.searchsorted(path.times, arr, side="right")
    values = states[idx] / path.params.N
    return float(values[0]) if scalar else values


def _grid_variance(values: np.ndarray) -> np.ndarray:
    """Sample variance over paths (rows) per grid time; zeros for one path."""
    if len(values) < 2:
        return np.zeros(values.shape[1])
    return values.var(axis=0, ddof=1)


@dataclass(frozen=True)
class EnsembleSummary:
    """Grid values of an i.i.d. path ensemble plus deviation statistics.

    z_values[p, j] is path p's proportion at t_grid[j], and z_ref[j] the
    reference curve's value there; the deviation views below compare
    against it. Each per-path or per-time statistic is formed on its
    first read and kept; the (n_paths, rows) scaled_deviations is formed
    afresh on each read, and kept by none.
    """

    params: ModelParams
    k0: int
    rng_seed: int
    n_paths: int
    t_grid: np.ndarray
    z_values: np.ndarray
    z_ref: np.ndarray
    absorbed_count: int

    @functools.cached_property
    def mean_z(self) -> np.ndarray:
        return self.z_values.mean(axis=0)

    @functools.cached_property
    def var_z(self) -> np.ndarray:
        return _grid_variance(self.z_values)

    @functools.cached_property
    def sup_deviation(self) -> np.ndarray:
        """Per-path sup over the grid of |Z^N_t - reference(t)|."""
        return np.abs(self.z_values - self.z_ref).max(axis=1)

    @property
    def scaled_deviations(self) -> np.ndarray:
        """Per-path, per-time sqrt(N) (Z^N_t - reference(t))."""
        return math.sqrt(self.params.N) * (self.z_values - self.z_ref)

    @functools.cached_property
    def _scaled_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """scaled_dev_mean and scaled_dev_var, from one scaled_deviations."""
        scaled = self.scaled_deviations
        return scaled.mean(axis=0), _grid_variance(scaled)

    @property
    def scaled_dev_mean(self) -> np.ndarray:
        """Per-time mean over paths of the scaled deviation."""
        return self._scaled_moments[0]

    @property
    def scaled_dev_var(self) -> np.ndarray:
        """Per-time sample variance over paths of the scaled deviation."""
        return self._scaled_moments[1]

    def to_record(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "k0": self.k0,
            "rng_seed": self.rng_seed,
            "absorbed_count": self.absorbed_count,
            "t_grid": self.t_grid.tolist(),
            "mean_z": self.mean_z.tolist(),
            "var_z": self.var_z.tolist(),
            "z_ref": self.z_ref.tolist(),
            "sup_deviation": self.sup_deviation.tolist(),
            "scaled_dev_mean": self.scaled_dev_mean.tolist(),
            "scaled_dev_var": self.scaled_dev_var.tolist(),
        }


def run_ensemble(
    k0: int,
    t_grid: Sequence[float],
    n_paths: int,
    rng_seed: int,
    params: ModelParams,
    reference: DeterministicSolution,
) -> EnsembleSummary:
    """Simulate n_paths independent paths and compare them with reference.

    Path p is simulated on the stream [rng_seed, p], exactly as
    simulate_on_grid(k0, t_grid, [rng_seed, p], params) would simulate
    it, so z_values[p] * N equals that call's result bit for bit.
    """
    k0 = check_int(k0, "k0", 0, params.N)
    grid = check_grid(t_grid)
    n_paths = check_int(n_paths, "n_paths", minimum=1)
    rng_seed = check_seed(rng_seed)

    states, absorbed = _run_paths(k0, grid, rng_seed, n_paths, params)
    return _summary(
        k0, grid, rng_seed, params, reference, states / params.N, int(absorbed.sum())
    )


def summarize_paths(
    paths: Sequence[TrajectoryPath],
    t_grid: Sequence[float],
    rng_seed: int,
    reference: DeterministicSolution,
) -> EnsembleSummary:
    """Grid statistics of an ensemble whose paths were kept event by event.

    paths[p] is simulate_path(k0, t_grid[-1], [rng_seed, p], params).
    Its grid values are read with sample_Z_at, which divides the same
    integer states by N, so the summary equals run_ensemble(k0, t_grid,
    len(paths), rng_seed, params, reference) bit for bit without
    simulating any path again.
    """
    grid = check_grid(t_grid)
    rng_seed = check_seed(rng_seed)
    if not paths:
        raise DomainError("paths must hold at least one path")
    first = paths[0]
    for path in paths:
        if (path.k0, path.params, path.final_time) != (first.k0, first.params, grid[-1]):
            raise DomainError("paths must share k0 and params and end at t_grid[-1]")
    z_values = np.array([sample_Z_at(grid, path) for path in paths])
    absorbed_count = sum(path.absorbed for path in paths)
    return _summary(
        first.k0, grid, rng_seed, first.params, reference, z_values, absorbed_count
    )


def _summary(
    k0: int,
    grid: np.ndarray,
    rng_seed: int,
    params: ModelParams,
    reference: DeterministicSolution,
    z_values: np.ndarray,
    absorbed_count: int,
) -> EnsembleSummary:
    return EnsembleSummary(
        params=params,
        k0=k0,
        rng_seed=rng_seed,
        n_paths=len(z_values),
        t_grid=grid,
        z_values=z_values,
        z_ref=reference(grid),
        absorbed_count=absorbed_count,
    )


def clt_statistics(
    z0: float,
    times: Sequence[float],
    n_paths: int,
    rng_seed: int,
    params: ModelParams,
) -> dict:
    """Scaled-deviation marginals at fixed times against the Gaussian law.

    Starts the chain at k0 = round(z0 N), simulates n_paths exact paths,
    and for each time reports the empirical mean and variance of
    sqrt(N) (Z^N_t - z(t)) next to the predicted variance Sigma(t) and
    the Kolmogorov-Smirnov distance from N(0, Sigma(t)). A leading t=0
    row carries only the deterministic rounding offset
    sqrt(N) (k0 / N - z0); its variance entries are None. Returns a dict
    with the keys k0, rows and rounding_offset.

    Requires u nu0 > 0 and u nu1 > 0 (the Gaussian law needs a positive
    noise floor).
    """
    check_seed(rng_seed)
    ts = check_grid(times, "times")
    if ts[0] <= 0.0:
        raise DomainError(f"times must be > 0, got {ts[0]}")

    law = FluctuationLaw(z0, params)
    reference = law.solution
    k0 = int(round(reference.z0 * params.N))
    grid = np.concatenate(([0.0], ts))
    summary = run_ensemble(k0, grid, n_paths, rng_seed, params, reference)
    sigma2 = law.variance_on_grid(grid)
    scaled = summary.scaled_deviations
    means = summary.scaled_dev_mean
    variances = summary.scaled_dev_var

    rows = []
    for j, t in enumerate(grid):
        variance = float(variances[j])
        row = {
            "t": float(t),
            "scaled_mean": float(means[j]),
            "scaled_var": variance,
            "sigma2": float(sigma2[j]),
        }
        if sigma2[j] > 0.0:
            row["var_ratio"] = variance / float(sigma2[j])
            row["ks_statistic"] = ks_sample_to_gaussian(
                scaled[:, j], math.sqrt(float(sigma2[j]))
            )
        else:
            row["var_ratio"] = None
            row["ks_statistic"] = None
        rows.append(row)

    return {"k0": k0, "rows": rows, "rounding_offset": float(scaled[0, 0])}
