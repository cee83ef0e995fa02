"""Exact event-driven simulation of the finite-N chain and path ensembles.

Every jump is simulated: the holding time at state k is exponential
with rate lambda_k + mu_k and the jump goes up with probability
lambda_k / (lambda_k + mu_k). No time discretisation enters anywhere;
grid values are read off the right-continuous step path. With u = 0 the
boundary states absorb and simulation stops early.

A path draws its waits and coins in batches of 64, 256, 1024, 4096 and
then 8192 each: a batch's exponential waits, then as many uniform
coins. Two kernels run the chain on that stream.

- The per-path kernel (_run_chain) serves single paths and small
  ensembles. It runs the 64- and 256-draw batches event by event. A
  batch of 1024 draws or more runs as one block: every up/down decision
  of the batch comes from a fixed-point iteration (Song et al., ICML
  2021, "Accelerating Feedforward Computation via Parallel Nonlinear
  Equation Solving"). A guess of the decisions gives, by a cumulative
  sum, the state before each event, and the coins are re-tested at those
  states. Every decision before the first one that changed, and that
  one, is final, so the iteration ends at the unique fixed point, which
  is the loop's path. Event times come from one np.add.accumulate seeded
  with the current time, which adds in the loop's order, so the block's
  path equals the loop's bit for bit. Where the drift is steep (small N,
  strong selection) the passes settle few decisions each; once they
  have cost more than the loop would have, the loop finishes the batch.
- The lockstep kernel (_run_lockstep) advances every path of an
  ensemble by one event per numpy step, Gillespie's direct method run
  across trajectories. Row p of its arrays is path p for the whole
  call: a path past the horizon stops drawing and steps on its last
  draws until every path is done. run_ensemble picks it from
  _LOCKSTEP_MIN_PATHS paths on.

Reproducibility contract: a path is a pure function of
(seed, params, k0, horizon). Ensembles give path p the dedicated stream
seeded by (master_seed, p), the generator
np.random.default_rng([master_seed, p]) builds, and both kernels draw
from it in the same order, so results do not depend on the kernel and
any prefix of paths can be regenerated in isolation. The contract fixes
each path's PCG64 state, not how it is computed: model.path_generators
hashes every path's state in one vectorised pass. The batch schedule is
part of that contract. The same holds for summarize_paths, which
summarises paths already kept event by event by simulate_path.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

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
# Batches of at least this many draws run as one block (1024, 4096 and
# 8192 of the schedule); the 64- and 256-draw batches run event by event.
_BLOCK_MIN = 1024


def _pass_cost(width: int) -> int:
    """Draws of the per-event loop that cost about as much as one block pass.

    A fixed-point pass over width draws takes about 30 us plus 10 ns a
    draw, and the loop about 0.3 us a draw (direct timings on a 2-vCPU
    VM).
    """
    return 96 + width // 32


# Ensembles of at least this many paths run in lockstep, the rest path by
# path, from direct timings of both kernels (2-vCPU VM, N = 200 to
# 5 * 10^4, 4 to 201 grid points). Below it neither kernel wins on every
# shape: lockstep holds two generators and two draw buffers per path, and
# long paths run mostly in the per-path kernel's block body.
_LOCKSTEP_MIN_PATHS = 128
# Draws per path buffered by the lockstep kernel between refills.
_CHUNK = 256


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


class _ChainTables(NamedTuple):
    """Total event rate and up-move probability per state 0..N.

    The lists serve the per-event loops: scalar indexing into lists is
    what they spend their time on, and numpy arrays are markedly slower
    there. The block body reads the arrays.
    """

    rates: list
    p_up: list
    rate_array: np.ndarray
    p_up_array: np.ndarray


def _chain_tables(params: ModelParams) -> _ChainTables:
    lam, mu = rate_tables(params)
    total = lam + mu
    with np.errstate(invalid="ignore", divide="ignore"):
        p_up = np.where(total > 0.0, lam / np.where(total > 0.0, total, 1.0), 0.0)
    return _ChainTables(total.tolist(), p_up.tolist(), total, p_up)


@np.errstate(over="ignore")  # a wait over a subnormal rate is past any horizon
def _run_chain(
    k0: int,
    grid: np.ndarray,
    rng: np.random.Generator,
    tables: _ChainTables,
    record: bool = False,
):
    """Drive one chain from k0 at time 0 to grid[-1], drawing from rng.

    grid is a sorted array of times from 0 on; tables come from
    _chain_tables. Returns (times, states, absorbed, grid_states): the
    event times and the state after each event, both empty unless
    record is set; whether the chain stopped at an absorbing state; and
    the state at each grid time. Batches of fewer than _BLOCK_MIN draws
    run event by event; longer ones run as one block, with the same
    result bit for bit.
    """
    total_rates, p_up = tables.rates, tables.p_up
    t_end = float(grid[-1])
    t = 0.0
    k = k0
    events_t: list = []  # the per-event loop's events since the last block
    events_k: list = []
    chunks_t: list = []  # every event before those, as arrays in order
    chunks_k: list = []
    absorbed = False
    n_grid = grid.size
    grid_states = np.empty(n_grid, dtype=np.int64)
    grid_list = grid.tolist()
    gi = 0

    batch = _BATCH_START
    waits = rng.exponential(size=batch).tolist()
    coins = rng.random(size=batch).tolist()
    idx = 0
    while True:
        rate = total_rates[k]
        if rate <= 0.0:
            absorbed = True
            break
        if idx == batch:
            batch = min(batch * 4, _BATCH_MAX)
            waits = rng.exponential(size=batch)
            coins = rng.random(size=batch)
            idx = 0
            if batch < _BLOCK_MIN:
                waits = waits.tolist()
                coins = coins.tolist()
            else:
                # Block body. ks[i] is the state before event i. Guess
                # every decision at state k, then re-test each coin at
                # the states the guess implies, over a window that
                # doubles each time it holds no change. Decisions before
                # the first one that changed, and that one, are final,
                # so each pass settles at least one more and the fixed
                # point is the loop's path. A wrong guess may leave
                # 0..N; the clipped lookups keep it in the table. Once
                # the passes have cost more than the loop would have
                # spent on the draws they settled, plus one first pass,
                # the loop takes over the rest of the batch.
                ups = coins < p_up[k]
                ks = np.empty(batch + 1, dtype=np.int64)
                ks[0] = k
                first = 0
                width = _BLOCK_MIN
                spent = -_pass_cost(width)
                while first < batch:
                    end = min(first + width, batch)
                    steps = ups[first:end].view(np.int8) * np.int8(2)
                    steps -= 1
                    np.cumsum(steps, dtype=np.int64, out=ks[first + 1 : end + 1])
                    ks[first + 1 : end + 1] += ks[first]
                    retest = coins[first:end] < tables.p_up_array.take(
                        ks[first:end], mode="clip"
                    )
                    changed = retest != ups[first:end]
                    c = int(changed.argmax())
                    spent += _pass_cost(end - first)
                    if changed[c]:
                        ups[first + c : end] = retest[c:]
                        first += c
                    else:
                        first = end
                        width *= 2
                    if spent > first:
                        break
                # The first pass settles decision 0 at least, and state k
                # has a positive rate, so argmax 0 means no absorbing state.
                # Only past an absorbing state can a settled path leave 0..N.
                rates = tables.rate_array.take(ks[:first], mode="clip")
                stop = int((rates <= 0.0).argmax()) or first
                # Event times, added in the loop's order: t + d0, then + d1, ...
                times = waits[:stop] / rates[:stop]
                times[0] += t
                np.add.accumulate(times, out=times)
                n = int(np.searchsorted(times, t_end, side="right"))
                if n:
                    # a grid point reads the state after the events up to it
                    hi = bisect_left(grid_list, times[n - 1], gi)
                    passed = np.searchsorted(times[:n], grid[gi:hi], side="right")
                    grid_states[gi:hi] = ks[passed]
                    gi = hi
                    if record:
                        chunks_t += [np.asarray(events_t, dtype=float), times[:n]]
                        chunks_k += [np.asarray(events_k, dtype=np.int64), ks[1 : n + 1]]
                        events_t, events_k = [], []
                    t = float(times[n - 1])
                    k = int(ks[n])
                if n < first:
                    absorbed = n == stop
                    break
                idx = first
                if first < batch:
                    waits = waits.tolist()
                    coins = coins.tolist()
                continue
        t_next = t + waits[idx] / rate
        up = coins[idx] < p_up[k]
        idx += 1
        if t_next > t_end:
            break
        # state k holds on [t, t_next); grid points there read k
        while gi < n_grid and grid_list[gi] < t_next:
            grid_states[gi] = k
            gi += 1
        t = t_next
        k = k + 1 if up else k - 1
        if record:
            events_t.append(t)
            events_k.append(k)
    grid_states[gi:] = k
    times = np.concatenate(chunks_t + [np.asarray(events_t, dtype=float)])
    states = np.concatenate(chunks_k + [np.asarray(events_k, dtype=np.int64)])
    return times, states, absorbed, grid_states


@np.errstate(over="ignore")  # a wait over a subnormal rate is past any horizon
def _run_lockstep(
    k0: int,
    grid: np.ndarray,
    rng_seed: int,
    n_paths: int,
    tables: _ChainTables,
) -> tuple[np.ndarray, np.ndarray]:
    """Drive n_paths chains to grid[-1] together, one event per numpy step.

    Returns the grid states (n_paths, grid.size) and the absorbed flags,
    equal to what _run_chain gives path p on the stream [rng_seed, p].
    Row p of every structure is path p for the whole call: a filled row
    stops drawing and steps on its last draws, which no output reads.
    Every path sits at the same event index, so all of them reach a
    boundary of _run_chain's batch schedule at the same step. Each path
    reads its stream through two generators, both in the state of
    default_rng([rng_seed, p]) and taken from two passes of
    path_generators: one draws the batch's exponential waits; the other
    skips them, then draws the batch's uniform coins. Both deliver in
    chunks of _CHUNK, which match one batched draw bit for bit, so the
    buffers hold (paths, _CHUNK) draws however long the batch is.
    """
    n_grid = grid.size
    grid_list = grid.tolist()
    states = np.empty((n_paths, n_grid), dtype=np.int64)
    absorbed = np.zeros(n_paths, dtype=bool)
    absorbing = tables.rate_array <= 0.0
    can_absorb = bool(absorbing.any())
    # absorbing states never divide: their paths skip to the horizon
    safe_rates = np.where(absorbing, 1.0, tables.rate_array)

    k = np.full(n_paths, k0, dtype=np.int64)
    t = np.zeros(n_paths)
    gi = [0] * n_paths  # first grid point each path has not filled
    g_t = np.full(n_paths, grid[0])  # its time; inf once the row is filled
    # One pass of path_generators for the waits and one for the coins.
    wait_rngs = list(path_generators(rng_seed, n_paths))
    coin_rngs = list(path_generators(rng_seed, n_paths))
    # Zeroed: a row filled before a wider chunk steps on columns it never
    # drew, which must hold valid coins.
    waits = np.zeros((n_paths, _CHUNK))
    coins = np.zeros((n_paths, _CHUNK))
    skipped = np.empty(_BATCH_MAX)
    running = n_paths  # rows not yet filled

    batch = batch_left = 0
    col = width = 0
    while running:
        if col == width:
            # Filled rows reuse their old draws; any coin in [0, 1) keeps a
            # row in 0..N, as p_up is 1 at 0 and 0 at N and absorbing states hold.
            live = np.flatnonzero(g_t < math.inf).tolist()
            if batch_left == 0:
                if batch:
                    # The waits stopped where this batch's coins began;
                    # the coins, one 64-bit word each, end where the
                    # next batch begins.
                    for r in live:
                        wait_rngs[r].bit_generator.advance(batch)
                batch = min(batch * 4, _BATCH_MAX) if batch else _BATCH_START
                for r in live:
                    coin_rngs[r].standard_exponential(out=skipped[:batch])
                batch_left = batch
            width = min(_CHUNK, batch_left)
            batch_left -= width
            for r in live:
                wait_rngs[r].standard_exponential(out=waits[r, :width])
                coin_rngs[r].random(out=coins[r, :width])
            col = 0

        t_next = waits[:, col] / safe_rates[k]
        t_next += t
        step = (coins[:, col] < tables.p_up_array[k]).view(np.int8) * 2 - 1
        col += 1
        if can_absorb:
            # an absorbing state holds for good: no step, no event before inf
            stuck = absorbing[k]
            if stuck.any():
                t_next[stuck] = np.inf
                step[stuck] = 0
        cross = t_next > g_t
        if cross.any():
            # state k holds on [t, t_next); grid points there read k
            hit = np.flatnonzero(cross)
            for r, t_hit, k_hit in zip(hit.tolist(), t_next[hit].tolist(), k[hit].tolist()):
                hi = bisect_left(grid_list, t_hit)
                states[r, gi[r] : hi] = k_hit
                gi[r] = hi
                if hi < n_grid:
                    g_t[r] = grid_list[hi]
                else:
                    # filled: absorbed iff it holds an absorbing state, as in _run_chain
                    g_t[r] = math.inf
                    absorbed[r] = absorbing[k_hit]
                    running -= 1
        k += step
        t = t_next
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
    rng = np.random.default_rng(rng_seed)
    times, states, absorbed, _ = _run_chain(
        k0, np.array([t_end]), rng, _chain_tables(params), record=True
    )
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
    is this kernel run on the one-point grid [t_end], keeping its events.
    """
    k0 = check_int(k0, "k0", 0, params.N)
    grid = check_grid(t_grid)
    check_seed(rng_seed, sequence=True)
    rng = np.random.default_rng(rng_seed)
    return _run_chain(k0, grid, rng, _chain_tables(params))[3]


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
    against it.
    """

    params: ModelParams
    k0: int
    rng_seed: int
    n_paths: int
    t_grid: np.ndarray
    z_values: np.ndarray
    z_ref: np.ndarray
    absorbed_count: int

    @property
    def mean_z(self) -> np.ndarray:
        return self.z_values.mean(axis=0)

    @property
    def var_z(self) -> np.ndarray:
        return _grid_variance(self.z_values)

    @property
    def sup_deviation(self) -> np.ndarray:
        """Per-path sup over the grid of |Z^N_t - reference(t)|."""
        return np.abs(self.z_values - self.z_ref).max(axis=1)

    @property
    def scaled_deviations(self) -> np.ndarray:
        """Per-path, per-time sqrt(N) (Z^N_t - reference(t))."""
        return math.sqrt(self.params.N) * (self.z_values - self.z_ref)

    @property
    def scaled_dev_mean(self) -> np.ndarray:
        """Per-time mean over paths of the scaled deviation."""
        return self.scaled_deviations.mean(axis=0)

    @property
    def scaled_dev_var(self) -> np.ndarray:
        """Per-time sample variance over paths of the scaled deviation."""
        return _grid_variance(self.scaled_deviations)

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
    it, so z_values[p] * N equals that call's result bit for bit. Two
    kernels produce the same paths (module docstring): the lockstep
    kernel for many paths and the per-path kernel for few.
    """
    k0 = check_int(k0, "k0", 0, params.N)
    grid = check_grid(t_grid)
    n_paths = check_int(n_paths, "n_paths", minimum=1)
    rng_seed = check_seed(rng_seed)

    tables = _chain_tables(params)
    if n_paths >= _LOCKSTEP_MIN_PATHS:
        states, absorbed = _run_lockstep(k0, grid, rng_seed, n_paths, tables)
    else:
        states = np.empty((n_paths, grid.size), dtype=np.int64)
        absorbed = np.zeros(n_paths, dtype=bool)
        for p, rng in enumerate(path_generators(rng_seed, n_paths)):
            _, _, absorbed[p], states[p] = _run_chain(k0, grid, rng, tables)

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
