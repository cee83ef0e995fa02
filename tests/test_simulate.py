"""Event-driven chain simulation, grid sampling, and ensemble statistics."""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigvalsh_tridiagonal
from scipy.stats import chisquare

from moranlimits import (
    DomainError,
    DriftFunctions,
    ModelParams,
    TrajectoryPath,
    UnsupportedModelError,
    clt_statistics,
    ode_oracle_at,
    run_ensemble,
    sample_Z_at,
    sample_fluctuation_paths,
    simulate_on_grid,
    simulate_path,
    solve_deterministic,
    stationary_distribution,
    summarize_paths,
    variance_ode,
)
from moranlimits import native, simulate
from moranlimits.io import dump_json, fork_pool
from moranlimits.model import rate_tables
from moranlimits.selfcheck import reference_params

REF = reference_params()


def flow_from(k0, params):
    """The deterministic flow from the ensemble's start k0 / N."""
    return solve_deterministic(k0 / params.N, params)


FLOW = flow_from(50, REF)


class TestValidation:
    def test_state_bounds(self):
        for bad in (-1, REF.N + 1, 0.5, None, True):
            with pytest.raises(DomainError):
                simulate_path(bad, 1.0, 1, REF)

    def test_horizon(self):
        with pytest.raises(DomainError):
            simulate_path(10, -1.0, 1, REF)
        with pytest.raises(DomainError):
            simulate_path(10, math.nan, 1, REF)

    def test_seed_forms(self):
        simulate_path(10, 0.01, 7, REF)
        simulate_path(10, 0.01, [7, 3], REF)
        for bad in (-1, 1.5, [3, -2], "7"):
            with pytest.raises(DomainError):
                simulate_path(10, 0.01, bad, REF)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            simulate_on_grid(10, np.array([1.0, 0.5]), 1, REF)
        with pytest.raises(DomainError):
            simulate_on_grid(10, np.array([-0.5, 1.0]), 1, REF)
        with pytest.raises(DomainError):
            simulate_on_grid(10, np.array([[0.0, 1.0]]), 1, REF)


class TestTrajectory:
    def test_determinism(self):
        a = simulate_path(50, 1.0, 42, REF)
        b = simulate_path(50, 1.0, 42, REF)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_event_structure(self):
        path = simulate_path(50, 1.0, 42, REF)
        assert path.k0 == 50
        assert path.final_time == 1.0
        assert not path.absorbed
        assert path.n_events == path.times.size == path.states.size
        assert np.all(np.diff(path.times) > 0.0)
        assert path.times.size == 0 or path.times[-1] <= 1.0
        full = np.concatenate(([path.k0], path.states))
        jumps = np.diff(full)
        assert set(np.unique(jumps)).issubset({-1, 1})
        assert np.all(path.states >= 0)
        assert np.all(path.states <= REF.N)

    def test_immediate_absorption_without_mutation(self):
        params = ModelParams(N=20, s=0.5, u=0.0, nu0=0.5)
        path = simulate_path(0, 5.0, 1, params)
        assert path.absorbed
        assert path.n_events == 0
        path = simulate_path(20, 5.0, 1, params)
        assert path.absorbed

    def test_interior_absorption_without_mutation(self):
        # Neutral, no mutation, tiny N: fixation well before T = 200.
        params = ModelParams(N=10, s=0.0, u=0.0, nu0=0.5)
        path = simulate_path(5, 200.0, 3, params)
        assert path.absorbed
        assert path.states[-1] in (0, params.N)

    def test_mutation_prevents_absorption(self):
        path = simulate_path(0, 2.0, 9, REF)
        assert not path.absorbed
        assert path.n_events > 0


class TestSampleZ:
    def test_right_continuous_lookup(self):
        params = ModelParams(N=10, s=1.0, u=0.5, nu0=0.5)
        path = TrajectoryPath(
            params=params,
            k0=5,
            times=np.array([1.0, 2.0]),
            states=np.array([6, 5]),
            final_time=3.0,
            absorbed=False,
        )
        grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        values = sample_Z_at(grid, path)
        assert values.tolist() == [0.5, 0.5, 0.6, 0.6, 0.5, 0.5]

    def test_scalar_query(self):
        path = simulate_path(50, 1.0, 42, REF)
        value = sample_Z_at(0.5, path)
        assert isinstance(value, float)
        assert 0.0 <= value <= 1.0

    def test_out_of_range_rejected(self):
        path = simulate_path(50, 1.0, 42, REF)
        with pytest.raises(DomainError):
            sample_Z_at(1.5, path)
        with pytest.raises(DomainError):
            sample_Z_at(-0.1, path)

    def test_grid_mode_matches_event_mode(self):
        # simulate_on_grid returns counts; dividing by N must reproduce
        # the sample_Z_at view of the same seed bit for bit.
        grid = np.linspace(0.0, 1.0, 41)
        direct = simulate_on_grid(50, grid, 42, REF)
        replay = sample_Z_at(grid, simulate_path(50, 1.0, 42, REF))
        assert np.array_equal(direct / REF.N, replay)


class TestChainStatistics:
    def test_holding_times_and_direction_neutral(self):
        # At k = N/2 with s = 0, u = 0 the exit rate is N/2 and up-moves
        # are fair coins. 4000 single-event paths pin both to ~4 SE.
        params = ModelParams(N=10, s=0.0, u=0.0, nu0=0.5)
        waits, ups = [], []
        for i in range(4000):
            path = simulate_path(5, 50.0, [555003, i], params)
            waits.append(path.times[0])
            ups.append(path.states[0] == 6)
        rate = 10 * (0.5 * 0.5 + 0.5 * 0.5)  # = 5.0 total exit rate
        mean_wait = float(np.mean(waits))
        se_wait = (1.0 / rate) / math.sqrt(len(waits))
        assert abs(mean_wait - 1.0 / rate) < 4.0 * se_wait
        up_frac = float(np.mean(ups))
        se_up = 0.5 / math.sqrt(len(ups))
        assert abs(up_frac - 0.5) < 4.0 * se_up

    def test_direction_bias_under_selection(self):
        # s = 1, u = 0 at any interior k: P(up) = (1+s)/(2+s) = 2/3.
        params = ModelParams(N=10, s=1.0, u=0.0, nu0=0.5)
        ups = []
        for i in range(4000):
            path = simulate_path(5, 50.0, [555004, i], params)
            ups.append(path.states[0] == 6)
        p = 2.0 / 3.0
        se = math.sqrt(p * (1 - p) / len(ups))
        assert abs(float(np.mean(ups)) - p) < 4.0 * se

    def test_event_count_tracks_total_activity(self):
        # E[number of events by T] is close to N int_0^T g(z(v)) dv; the
        # finite-N correction is O(1) so compare at 1.5% relative slack.
        params = ModelParams(N=1000, s=1.0, u=0.5, nu0=0.5)
        sol = solve_deterministic(0.1, params)
        g = DriftFunctions(params).diffusion
        expected, _ = quad(lambda v: g(sol(v)), 0.0, 3.0)
        expected *= params.N
        counts = [
            simulate_path(100, 3.0, [555005, i], params).n_events for i in range(200)
        ]
        assert float(np.mean(counts)) == pytest.approx(expected, rel=0.015)


class TestEnsemble:
    def test_determinism(self):
        grid = np.linspace(0.0, 1.0, 11)
        a = run_ensemble(50, grid, 8, 99, REF, FLOW)
        b = run_ensemble(50, grid, 8, 99, REF, FLOW)
        assert np.array_equal(a.z_values, b.z_values)

    def test_master_seed_rejected_before_any_work(self, monkeypatch):
        # Path p runs on [rng_seed, p], so the master seed is one integer.
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before validating the seed")

        monkeypatch.setattr(simulate, "_run_chain", no_simulation)
        grid = np.linspace(0.0, 1.0, 6)
        for bad in ([1, 2], (3,), -1, 1.5, "7", True, None):
            with pytest.raises(DomainError, match="rng_seed"):
                run_ensemble(50, grid, 4, bad, REF, FLOW)
            with pytest.raises(DomainError, match="rng_seed"):
                clt_statistics(0.1, (0.5,), 4, bad, REF)

    def test_summary_shapes_and_reference(self):
        grid = np.linspace(0.0, 1.0, 11)
        summary = run_ensemble(50, grid, 8, 99, REF, FLOW)
        assert summary.z_values.shape == (8, 11)
        assert summary.mean_z.shape == (11,)
        assert summary.var_z.shape == (11,)
        assert np.all(summary.z_values[:, 0] == 0.5)
        assert np.array_equal(summary.z_ref, FLOW(grid))
        scaled = summary.scaled_deviations
        assert scaled.shape == (8, 11)
        assert np.all(
            scaled == math.sqrt(REF.N) * (summary.z_values - summary.z_ref)
        )
        assert summary.sup_deviation.shape == (8,)

    def test_single_path_variance_is_zero(self):
        grid = np.linspace(0.0, 1.0, 6)
        summary = run_ensemble(50, grid, 1, 99, REF, FLOW)
        assert np.all(summary.var_z == 0.0)

    def test_absorbed_count(self):
        params = ModelParams(N=10, s=0.0, u=0.0, nu0=0.5)
        grid = np.linspace(0.0, 200.0, 5)
        summary = run_ensemble(5, grid, 12, 3, params, flow_from(5, params))
        assert summary.absorbed_count == 12

    def test_record_is_json_ready(self, tmp_path):
        grid = np.linspace(0.0, 1.0, 4)
        summary = run_ensemble(50, grid, 3, 99, REF, FLOW)
        dump_json(tmp_path / "record.json", summary.to_record())
        record = json.loads((tmp_path / "record.json").read_text(encoding="utf-8"))
        assert len(record) == 11
        assert record["z_ref"] == FLOW(grid).tolist()


class TestCltStatistics:
    def test_requires_mutation(self):
        params = ModelParams(N=50, s=1.0, u=0.0, nu0=0.5)
        with pytest.raises(UnsupportedModelError):
            clt_statistics(0.1, (1.0,), 10, 1, params)

    def test_times_validation(self):
        with pytest.raises(DomainError):
            clt_statistics(0.1, (0.0, 1.0), 10, 1, REF)
        with pytest.raises(DomainError):
            clt_statistics(0.1, (2.0, 1.0), 10, 1, REF)

    def test_row_structure(self):
        result = clt_statistics(0.1, (0.5, 1.0), 200, 31, REF)
        assert result["k0"] == 10
        assert result["rounding_offset"] == pytest.approx(0.0, abs=1e-12)
        rows = result["rows"]
        assert [r["t"] for r in rows] == [0.0, 0.5, 1.0]
        first = rows[0]
        assert first["scaled_var"] == 0.0
        assert first["sigma2"] == 0.0
        assert first["var_ratio"] is None
        assert first["ks_statistic"] is None
        for row in rows[1:]:
            assert row["sigma2"] > 0.0
            assert row["var_ratio"] > 0.0
            assert 0.0 <= row["ks_statistic"] <= 1.0

    def test_rounding_offset_reported(self):
        # z0 = 0.123 with N = 100 rounds k0 to 12, offset sqrt(N)(0.12-0.123).
        result = clt_statistics(0.123, (0.5,), 50, 31, REF)
        assert result["k0"] == 12
        assert result["rounding_offset"] == pytest.approx(
            math.sqrt(REF.N) * (0.12 - 0.123), abs=1e-12
        )

    def test_variance_ratio_near_one_at_scale(self):
        result = clt_statistics(0.1, (1.0,), 1000, 977002, REF)
        row = result["rows"][-1]
        assert abs(row["var_ratio"] - 1.0) < 0.10
        assert row["ks_statistic"] < 0.05


# A fixed number of examples by default; HYPOTHESIS_PROFILE=wide
# (tests/conftest.py) runs the profile's random search instead.
_ENSEMBLE_SWEEP = {} if settings.get_current_profile_name() == "wide" else {"max_examples": 40}


class TestLockstepKernel:
    """Ensembles equal reference_chain bit for bit, path by path, on both batch steps.

    These cases were written for the lockstep kernel, which ensembles of
    128 paths or more once ran on; the class keeps its name so that the
    cases keep their ids. Every ensemble now runs path by path.
    """

    PATHS = 64

    @staticmethod
    def run_and_compare(k0, grid, n_paths, seed, params):
        grid = np.asarray(grid, dtype=float)
        runs = [
            simulate._run_paths(k0, grid, seed, n_paths, params) for _ in each_step()
        ]
        events = []
        for p in range(n_paths):
            times, _, was_absorbed, expected = reference_chain(
                k0, float(grid[-1]), [seed, p], params, grid
            )
            for states, absorbed in runs:
                assert np.array_equal(states[p], expected), p
                assert absorbed[p] == was_absorbed, p
            events.append(len(times))
        return (*runs[0], events)

    @pytest.mark.parametrize(
        "n_paths, t_end",
        [(64, 0.1), (100, 0.1), (127, 3.0), (127, 17.0), (128, 0.1), (128, 3.0), (128, 17.0)],
        ids=["short-64", "short-100", "mid-127", "long-127", "short-128", "mid-128", "long-128"],
    )
    def test_kernel_choice_by_event_bound(self, monkeypatch, n_paths, t_end):
        # There is no kernel choice: whatever the path count and the event
        # bound (about 1000 t_end events a path at N = 1000 on the reference
        # shape), run_ensemble runs path p through _run_chain on the stream
        # [13, p] and writes row p, whichever of three threads takes it.
        # The chain is faked, so nothing simulates: it fills the row with a
        # mark of the stream it was given.
        marks = []

        def mark(state):  # exact as a float, and so after the division by N
            return state["state"]["state"] % 2**50

        def fake_chain(k0, rng, chain):
            marks.append(mark(rng.bit_generator.state))
            chain.grid_states[:] = marks[-1]
            return False, None, None

        monkeypatch.setattr(simulate, "_run_chain", fake_chain)
        monkeypatch.setattr(native, "usable_cpus", lambda: 3)
        params = ModelParams(N=1000, s=1.0, u=0.5, nu0=0.5)
        reference = flow_from(100, params)
        summary = run_ensemble(100, np.linspace(0.0, t_end, 6), n_paths, 13, params, reference)
        expected = [mark(np.random.default_rng([13, p]).bit_generator.state) for p in range(n_paths)]
        assert sorted(marks) == sorted(expected)  # each stream run exactly once
        rows = np.array(expected, dtype=np.int64)[:, None] / params.N
        assert np.array_equal(summary.z_values, np.broadcast_to(rows, (n_paths, 6)))

    @pytest.mark.parametrize("extra", [-1, 0, 37])
    def test_reference_shape_non_uniform_grid(self, extra):
        params = ModelParams(N=1000, s=1.0, u=0.5, nu0=0.5)
        grid = np.array([0.0, 1e-4, 0.013, 0.3, 0.31, 1.0, 2.5, 2.5 + 1e-9, 3.0])
        self.run_and_compare(100, grid, self.PATHS + extra, 5, params)

    @pytest.mark.parametrize("k0", [0, 60, 2, 57])
    def test_absorbing_boundaries(self, k0):
        params = ModelParams(N=60, s=0.3, u=0.0, nu0=0.5)
        grid = np.linspace(0.0, 10.0, 23)
        states, absorbed, _ = self.run_and_compare(k0, grid, self.PATHS, 11, params)
        assert absorbed.any()
        if k0 in (0, params.N):
            assert absorbed.all()
            assert np.all(states == k0)

    def test_long_paths_cross_batch_and_chunk_refills(self):
        # Neutral without mutation, paths absorb at 0 or N after a few
        # thousand to 20,000 events: some leave inside the 1024- and
        # 4096-draw batches, one runs on into the capped ones.
        params = ModelParams(N=200, s=0.0, u=0.0, nu0=0.5)
        grid = np.linspace(0.0, 1e4, 11)
        _, absorbed, events = self.run_and_compare(100, grid, 8, 4, params)
        assert absorbed.all()
        before_cap = 64 + 256 + 1024 + 4096
        assert min(events) < before_cap and max(events) > before_cap + 8192

    def test_filled_rows_never_read_unwritten_draws(self, monkeypatch):
        # Subnormal u: a path that reaches state 0 or N waits past the
        # horizon, so paths 1 and 2 stop within the 64-draw batch while
        # path 0 runs 142 events, into the 256-draw one. The run's batch
        # buffers are allocated once, 8192 draws long; fresh float buffers
        # hold -1 here, a coin that would step a path from N to N + 1, so
        # a step that read past the batch drawn for it would show.
        empty = np.empty

        def poisoned(shape, dtype=float, **kwargs):
            out = empty(shape, dtype=dtype, **kwargs)
            if out.dtype.kind == "f":
                out.fill(-1.0)
            return out

        monkeypatch.setattr(np, "empty", poisoned)
        params = ModelParams(N=13, s=0.0, u=1e-309, nu0=0.5)
        lam, mu = rate_tables(params)
        t_end = 200.0 / float((lam + mu).max())
        _, _, events = self.run_and_compare(6, [t_end], 3, 4, params)
        assert events == [142, 16, 34]

    def test_single_point_grid(self):
        states, _, _ = self.run_and_compare(30, [0.0], self.PATHS, 3, REF)
        assert np.all(states == 30)

    @pytest.mark.parametrize("seed", [2**32 - 1, 2**32, 2**100 + 3])
    def test_multi_word_seeds(self, seed):
        # The largest one-word seed, and seeds of two and four uint32 words.
        params = ModelParams(N=1000, s=1.0, u=0.5, nu0=0.5)
        self.run_and_compare(100, np.linspace(0.0, 2.0, 11), self.PATHS, seed, params)

    @pytest.mark.parametrize(
        "n_paths, seed, digest",
        [
            (128, 2**32, "c2b369640e9aca8d5b472a3e4a8a7992b5a6bd1604ad0ab6167d4ee18793cb27"),
            (16, 2**100 + 3, "4577461dbff7603a9a455fe6bdff3bef4396faa0e2ef7395077f2ab73ce8e737"),
        ],
        ids=["lockstep", "per-path"],
    )
    def test_golden_multi_word_seed(self, n_paths, seed, digest):
        # SHA-256 of the float64 proportions; numpy 2.4 on x86-64, as tests/test_golden.py.
        # The ids name the kernels that first ran these ensembles.
        params = ModelParams(N=1000, s=1.0, u=0.5, nu0=0.5)
        grid = np.linspace(0.0, 2.0, 11)
        summary = run_ensemble(100, grid, n_paths, seed, params, flow_from(100, params))
        assert hashlib.sha256(summary.z_values.tobytes()).hexdigest() == digest
        assert summary.absorbed_count == 0

    def test_lockstep_directly_on_long_paths(self):
        # Every path runs over 13,632 events to the horizon, so all of
        # them reach the 8192-draw batches.
        params = ModelParams(N=1000, s=1.0, u=0.5, nu0=0.5)
        grid = np.linspace(0.0, 25.0, 11)
        _, absorbed, events = self.run_and_compare(100, grid, 6, 8, params)
        assert not absorbed.any()
        assert min(events) > 64 + 256 + 1024 + 4096 + 8192

    @settings(deadline=None, **_ENSEMBLE_SWEEP)
    @given(
        n=st.one_of(st.integers(1, 60), st.sampled_from([1000, 50_000])),
        s=st.sampled_from([0.0, 0.3, 30.0]),
        u=st.sampled_from([0.0, 1e-309, 0.5]),
        nu0=st.floats(0.05, 0.95),
        start=st.sampled_from(["zero", "interior", "full"]),
        place=st.floats(0.0, 1.0),
        # up to 8000 events: past 64 + 256 + 1024 + 4096 into the 8192 batch
        events=st.one_of(st.just(0), st.integers(1, 8000)),
        grid_points=st.integers(1, 60),
        spread=st.floats(0.0, 1.0),
        n_paths=st.integers(1, 40),
        seed=st.integers(0, 2**64),
    )
    # u = 0: 27 of the 300 paths absorb, the rest run to the horizon
    @example(n=100, s=0.0, u=0.0, nu0=0.5, start="interior", place=0.5, events=1000,
             grid_points=41, spread=1.0, n_paths=300, seed=5)
    @example(n=1000, s=0.3, u=0.5, nu0=0.5, start="interior", place=0.1, events=8000,
             grid_points=60, spread=1.0, n_paths=40, seed=2**32)
    @example(n=1, s=0.0, u=0.0, nu0=0.5, start="full", place=0.0, events=10,
             grid_points=3, spread=1.0, n_paths=3, seed=0)
    # subnormal u: a wait at state 0 overflows to inf, yet nothing absorbs
    @example(n=2, s=0.3, u=1e-309, nu0=0.5, start="zero", place=0.0, events=50,
             grid_points=10, spread=1.0, n_paths=40, seed=3)
    def test_matches_reference(
        self, n, s, u, nu0, start, place, events, grid_points, spread, n_paths, seed
    ):
        params = ModelParams(N=n, s=s, u=u, nu0=nu0)
        k0 = {"zero": 0, "full": n, "interior": round(place * n)}[start]
        lam, mu = rate_tables(params)
        top = float((lam + mu).max())  # 0 or subnormal only for N = 1 with u < 1e-300
        t_end = events / top if top > 1e-300 else float(events)
        grid = np.unique(np.linspace(0.0, t_end, grid_points) * spread)
        grid = np.append(grid[grid < t_end], t_end)
        self.run_and_compare(k0, grid, n_paths, seed, params)


class TestThreadedPaths:
    """An ensemble's paths on helper threads, each with its own chain.

    The thread count, min(n_paths, usable CPUs) with the compiled step,
    is forced through native.usable_cpus; three threads are more than
    the cores of a two-CPU host.
    """

    PARAMS = ModelParams(N=1000, s=1.0, u=0.5, nu0=0.5)
    GRID = np.linspace(0.0, 2.0, 11)

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Sets the usable CPUs; skips where the compiled step cannot be had."""
        if simulate._batch_step() is simulate._python_step:
            pytest.skip("needs the compiled batch step")
        return lambda n: monkeypatch.setattr(native, "usable_cpus", lambda: n)

    @pytest.fixture
    def helpers(self, monkeypatch):
        """The threads started while the test runs."""
        started, start = [], threading.Thread.start

        def spy(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        return started

    @pytest.mark.parametrize(
        "n, s, u, k0, t_end, n_paths",
        [
            (1000, 1.0, 0.5, 100, 2.0, 40),
            (1000, 1.0, 0.5, 100, 2.0, 2),
            (60, 0.3, 0.0, 30, 40.0, 24),
            (13, 0.0, 1e-309, 6, 50.0, 16),
        ],
        ids=["reference-shape", "fewer-paths-than-threads", "absorbing", "subnormal-u"],
    )
    def test_identical_at_any_thread_count(self, cpus, n, s, u, k0, t_end, n_paths):
        params = ModelParams(N=n, s=s, u=u, nu0=0.5)
        grid = np.linspace(0.0, t_end, 9)
        reference = flow_from(k0, params)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads trade the GIL as often as they can
        try:
            for threads in (1, 2, 3):
                cpus(threads)
                summary = run_ensemble(k0, grid, n_paths, 9, params, reference)
                clt = clt_statistics(k0 / n, grid[1:], n_paths, 9, params) if u else None
                runs.append((summary.z_values.tobytes(), summary.to_record(), clt))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1] == runs[2]
        if u == 0.0:
            assert runs[0][1]["absorbed_count"] > 0

    def test_hand_out_under_contention(self, cpus, monkeypatch):
        # Paths that do no work, so the threads contend for the path source
        # alone: each writes the first draw of the stream it was given.
        def fake_chain(k0, rng, chain):
            chain.grid_states[:] = rng.integers(2**62)
            return False, None, None

        monkeypatch.setattr(simulate, "_run_chain", fake_chain)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 3):
                cpus(threads)
                runs.append(simulate._run_paths(0, np.zeros(1), 13, 4000, self.PARAMS)[0])
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("cpu_count, n_paths, threads", [(1, 8, 1), (3, 8, 3), (3, 2, 2)])
    def test_thread_count(self, cpus, helpers, cpu_count, n_paths, threads):
        cpus(cpu_count)
        run_ensemble(100, self.GRID, n_paths, 5, self.PARAMS, flow_from(100, self.PARAMS))
        assert len(helpers) == threads - 1
        assert not any(thread.is_alive() for thread in helpers)
        assert threading.active_count() == 1

    def test_python_step_runs_no_helper(self, monkeypatch, helpers):
        # Without the library, _batch_step finds the Python step, which
        # holds the GIL: this thread runs every path.
        monkeypatch.setattr(native, "usable_cpus", lambda: 3)
        reference = flow_from(100, self.PARAMS)
        expected = run_ensemble(100, self.GRID, 6, 5, self.PARAMS, reference).z_values
        helpers.clear()
        _BATCH_STEP.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(native, "library", lambda: None)
                assert simulate._batch_step() is simulate._python_step
                summary = run_ensemble(100, self.GRID, 6, 5, self.PARAMS, reference)
        finally:
            _BATCH_STEP.cache_clear()
        assert helpers == []
        assert np.array_equal(summary.z_values, expected)

    @pytest.mark.skipif(
        sys.platform == "win32" or not hasattr(os, "fork"), reason="fork_pool needs fork"
    )
    def test_a_helper_error_reaches_the_caller_and_no_thread_outlives_it(
        self, cpus, monkeypatch
    ):
        cpus(2)
        run_chain, failed = simulate._run_chain, threading.Event()

        def fail_in_helper(k0, rng, chain):
            if threading.current_thread() is not threading.main_thread():
                failed.set()
                raise RuntimeError("a path failed")
            assert failed.wait(timeout=30)  # this thread's path outlasts the helper's
            return run_chain(k0, rng, chain)

        monkeypatch.setattr(simulate, "_run_chain", fail_in_helper)
        reference = flow_from(100, self.PARAMS)
        with pytest.raises(RuntimeError, match="a path failed"):
            run_ensemble(100, self.GRID, 8, 5, self.PARAMS, reference)
        assert threading.active_count() == 1
        monkeypatch.setattr(simulate, "_run_chain", run_chain)
        run_ensemble(100, self.GRID, 8, 5, self.PARAMS, reference)
        assert threading.active_count() == 1
        pool = fork_pool()  # a worker may be forked right after an ensemble
        assert pool is not None
        pool.shutdown()

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert native.usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        assert native.usable_cpus() == (os.cpu_count() or 1)


class TestSummarizePaths:
    """Summaries of kept paths equal run_ensemble's, bit for bit."""

    @staticmethod
    def compare(k0, grid, n_paths, seed, params):
        t_end = float(np.asarray(grid)[-1])
        paths = [simulate_path(k0, t_end, [seed, p], params) for p in range(n_paths)]
        reference = flow_from(k0, params)
        kept = summarize_paths(paths, grid, seed, reference)
        direct = run_ensemble(k0, grid, n_paths, seed, params, reference)
        assert np.array_equal(kept.z_values, direct.z_values)
        assert kept.absorbed_count == direct.absorbed_count
        assert kept.to_record() == direct.to_record()
        return kept

    @pytest.mark.parametrize("n_paths", [4, 64, 100, 128])
    def test_matches_run_ensemble(self, n_paths):
        self.compare(100, np.linspace(0.0, 3.0, 61), n_paths, 20260817, REF)

    @pytest.mark.parametrize("n_paths", [4, 64])
    def test_absorbing_paths(self, n_paths):
        params = ModelParams(N=60, s=0.3, u=0.0, nu0=0.5)
        summary = self.compare(2, np.linspace(0.0, 10.0, 23), n_paths, 11, params)
        assert summary.absorbed_count > 0

    def test_single_point_grid(self):
        summary = self.compare(30, [0.0], 4, 3, REF)
        assert np.all(summary.z_values == 30 / REF.N)

    def test_rejects_paths_of_another_shape(self):
        grid = np.linspace(0.0, 1.0, 5)
        paths = [simulate_path(50, 1.0, [7, p], REF) for p in range(2)]
        with pytest.raises(DomainError, match="at least one path"):
            summarize_paths([], grid, 7, FLOW)
        with pytest.raises(DomainError, match="end at t_grid"):
            summarize_paths(paths, grid[:-1], 7, FLOW)
        with pytest.raises(DomainError, match="share k0"):
            summarize_paths(paths + [simulate_path(51, 1.0, [7, 2], REF)], grid, 7, FLOW)
        with pytest.raises(DomainError, match="rng_seed"):
            summarize_paths(paths, grid, [7, 0], FLOW)


def reference_chain(k0, t_end, seed, params, grid=None):
    """The chain as one plain per-event loop: (times, states, absorbed, grid states).

    Written out here, apart from the batch steps it checks. Draws come in
    batches of 64, 256, 1024, 4096 and then 8192 waits followed by as
    many coins; that schedule is part of the stream contract.
    """
    lam, mu = (table.tolist() for table in rate_tables(params))
    rng = np.random.default_rng(seed)
    t, k, absorbed = 0.0, k0, False
    times, states = [], []
    grid_states = None if grid is None else np.empty(len(grid), dtype=np.int64)
    gi = 0
    batch, idx = 64, 0
    waits = rng.exponential(size=batch).tolist()
    coins = rng.random(size=batch).tolist()
    while True:
        rate = lam[k] + mu[k]
        if rate <= 0.0:
            absorbed = True
            break
        if idx == batch:
            batch, idx = min(batch * 4, 8192), 0
            waits = rng.exponential(size=batch).tolist()
            coins = rng.random(size=batch).tolist()
        t_next = t + waits[idx] / rate
        up = coins[idx] < lam[k] / rate
        idx += 1
        if t_next > t_end:
            break
        while grid is not None and gi < len(grid) and grid[gi] < t_next:
            grid_states[gi] = k
            gi += 1
        t = t_next
        k += 1 if up else -1
        times.append(t)
        states.append(k)
    if grid is not None:
        grid_states[gi:] = k
    return times, states, absorbed, grid_states


_BATCH_STEP = simulate._batch_step
_LIBRARY = native.library
NUMPY_RANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def each_step():
    """Yield once per batch step, with the chain running on it: the compiled, then the Python one.

    Without a C compiler both runs take the Python step;
    TestBatchStepLoader::test_compiled_step_loads checks that the
    compiled one is found where a compiler is.
    """
    for step in (_BATCH_STEP(), simulate._python_step):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_batch_step", lambda: step)
            yield step


def assert_chain_matches_reference(k0, t_end, seed, params, grid):
    """simulate_path and simulate_on_grid reproduce reference_chain bit for bit on both steps."""
    times, states, absorbed, _ = reference_chain(k0, t_end, seed, params)
    _, _, _, expected = reference_chain(k0, float(grid[-1]), seed, params, grid)
    for _ in each_step():
        path = simulate_path(k0, t_end, seed, params)
        assert path.times.tolist() == times
        assert path.states.tolist() == states
        assert path.absorbed == absorbed
        assert np.array_equal(simulate_on_grid(k0, grid, seed, params), expected)
    return len(times)


# Events that take a path through the batches of 64, 256 and 1024 draws.
BLOCK_EVENTS = 64 + 256 + 1024


# A fixed number of examples by default; HYPOTHESIS_PROFILE=wide
# (tests/conftest.py) runs the profile's random search instead.
_CHAIN_SWEEP = {} if settings.get_current_profile_name() == "wide" else {"max_examples": 60}


class TestChainKernel:
    """Single paths on both batch steps against reference_chain, bit for bit."""

    @settings(deadline=None, **_CHAIN_SWEEP)
    @given(
        n=st.one_of(st.integers(1, 40), st.integers(41, 50_000)),
        s=st.sampled_from([0.0, 0.2, 1.0, 30.0]),
        u=st.sampled_from([0.0, 0.01, 0.5, 3.0]),
        nu0=st.floats(0.05, 0.95),
        start=st.sampled_from(["zero", "interior", "full"]),
        draw=st.floats(0.0, 1.0),
        events=st.one_of(st.just(0), st.integers(1, 20_000)),
        seed=st.integers(0, 2**32),
        grid_points=st.integers(1, 60),
    )
    @example(n=50_000, s=1.0, u=0.5, nu0=0.5, start="interior", draw=0.1,
             events=20_000, seed=1, grid_points=60)
    @example(n=1000, s=30.0, u=0.5, nu0=0.5, start="interior", draw=0.1,
             events=20_000, seed=2, grid_points=7)
    @example(n=2000, s=0.2, u=0.0, nu0=0.5, start="interior", draw=0.01,
             events=20_000, seed=3, grid_points=11)
    @example(n=30, s=0.0, u=0.0, nu0=0.5, start="interior", draw=0.5,
             events=20_000, seed=4, grid_points=5)
    # subnormal u: at states 0 and N a wait overflows to inf
    @example(n=20, s=0.0, u=1e-309, nu0=0.5, start="interior", draw=0.5,
             events=20_000, seed=128, grid_points=21)
    def test_matches_reference(self, n, s, u, nu0, start, draw, events, seed, grid_points):
        params = ModelParams(N=n, s=s, u=u, nu0=nu0)
        k0 = {"zero": 0, "full": n, "interior": round(draw * n)}[start]
        lam, mu = rate_tables(params)
        top = float((lam + mu).max())  # 0 only for N = 1 without mutation
        t_end = events / top if top > 0.0 else float(events)
        grid = np.unique(np.linspace(0.0, t_end, grid_points) * np.sqrt(draw))
        grid = np.append(grid[grid < t_end], t_end)
        assert_chain_matches_reference(k0, t_end, [seed, 0], params, grid)

    @pytest.mark.parametrize(
        "n, s, u, k0, t_end",
        [
            (50_000, 1.0, 0.5, 5000, 0.4),  # long and fast-converging
            (1000, 1.0, 0.5, 100, 25.0),  # every batch size, up to 8192
            (1000, 30.0, 0.5, 100, 2.0),  # steep drift
            (100, 0.0, 0.5, 0, 60.0),
            (3000, 0.2, 0.0, 30, 30.0),  # u = 0: absorbed inside a long batch
        ],
    )
    def test_block_batches_match_reference(self, n, s, u, k0, t_end):
        params = ModelParams(N=n, s=s, u=u, nu0=0.5)
        grid = np.linspace(0.0, t_end, 97)
        events = assert_chain_matches_reference(k0, t_end, [77, n], params, grid)
        assert events > BLOCK_EVENTS

    def test_absorbed_inside_a_block(self):
        # neutral and without mutation: absorbed at state 0 inside the
        # 8192-draw batch, with draws of that batch left unread
        params = ModelParams(N=3000, s=0.0, u=0.0, nu0=0.5)
        grid = np.linspace(0.0, 200.0, 41)
        events = assert_chain_matches_reference(30, 200.0, [77, 1], params, grid)
        path = simulate_path(30, 200.0, [77, 1], params)
        assert path.absorbed and path.states[-1] == 0
        assert 64 + 256 + 1024 + 4096 < events < 64 + 256 + 1024 + 4096 + 8192

    def test_zero_horizon(self):
        for _ in each_step():
            path = simulate_path(50, 0.0, 3, REF)
            assert path.n_events == 0 and not path.absorbed
            assert simulate_on_grid(50, [0.0], 3, REF).tolist() == [50]


class TestBatchStepLoader:
    """The kernels are built once into the cache; where they cannot be, the
    Python batch step and RK4 loops run."""

    PARAMS = ModelParams(N=1000, s=1.0, u=0.5, nu0=0.5)
    GRID = np.linspace(0.0, 2.0, 11)

    @pytest.fixture
    def cache(self, monkeypatch, tmp_path):
        """An empty cache home, and a native.library and _batch_step that look
        for the library afresh."""
        self.found = _BATCH_STEP()  # the step and the kernels found with the usual cache
        self.kernels = _LIBRARY()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        _LIBRARY.cache_clear()
        _BATCH_STEP.cache_clear()
        yield tmp_path / "cache" / "moranlimits"
        _LIBRARY.cache_clear()
        _BATCH_STEP.cache_clear()

    def outputs(self):
        states, absorbed = simulate._run_paths(100, self.GRID, 7, 16, self.PARAMS)
        path = simulate_path(100, 2.0, [7, 0], self.PARAMS)
        starts, models = np.array([0.1, 0.9]), [self.PARAMS, REF]
        return (
            states.tolist(), absorbed.tolist(), path.times.tolist(), path.states.tolist(),
            ode_oracle_at(0.1, self.GRID, 1e-3, self.PARAMS).tolist(),
            ode_oracle_at(starts, self.GRID, 1e-3, models).tolist(),
            variance_ode(starts, 2.0, 1e-3, models)[1].tolist(),
            sample_fluctuation_paths(0.1, self.GRID, 5, 7, self.PARAMS).tolist(),
        )

    @staticmethod
    def sampler_linked(kernels):
        """Whether the library's sampler found numpy's normal draw: a call on
        no rows returns 1 where it did not."""
        return kernels.fluctuation_rows(0, 0, 1, None, None, None, None) == 0

    @pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
    def test_compiled_step_loads(self, cache, capfd):
        step = _BATCH_STEP()
        assert step is not simulate._python_step
        assert _BATCH_STEP() is step
        assert _LIBRARY() is not None and _LIBRARY() is _LIBRARY()
        assert [p.name for p in cache.iterdir()] == [f"kernels-{library_key()}.so"]
        assert capfd.readouterr() == ("", "")

    @pytest.mark.skipif(
        shutil.which("cc") is None or not NUMPY_RANDOM.is_file(),
        reason="needs a C compiler and numpy's libnpyrandom.a",
    )
    def test_sampler_links_numpys_normal(self, cache):
        # kernels.c declares random_standard_normal weak; only the linker's
        # -u pulls it from the archive, else it is NULL and the sampler
        # silently runs its Python body
        assert self.sampler_linked(_LIBRARY())

    @pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
    def test_without_numpys_archive_the_sampler_runs_python(self, cache, monkeypatch, tmp_path):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_batch_step", lambda: self.found)
            patch.setattr(native, "library", lambda: self.kernels)
            expected = self.outputs()
        monkeypatch.setattr(native, "_NUMPY_RANDOM", tmp_path / "missing" / "libnpyrandom.a")
        kernels = _LIBRARY()
        assert kernels is not None and not self.sampler_linked(kernels)
        assert self.outputs() == expected
        started, start = [], threading.Thread.start

        def spy(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        monkeypatch.setattr(native, "usable_cpus", lambda: 3)
        sample_fluctuation_paths(0.1, self.GRID, 5, 7, self.PARAMS)
        assert started == []

    @pytest.mark.parametrize("failure", ["no-compiler", "compile-fails", "unwritable-cache"])
    def test_falls_back_with_identical_outputs(self, cache, capfd, monkeypatch, tmp_path, failure):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_batch_step", lambda: self.found)
            patch.setattr(native, "library", lambda: self.kernels)
            expected = self.outputs()
        if failure == "unwritable-cache":
            (tmp_path / "cache").write_text("a file, not a directory")
        else:
            bin_dir = tmp_path / "bin"
            bin_dir.mkdir()
            if failure == "compile-fails":
                (bin_dir / "cc").write_text("#!/bin/sh\necho 'cc: error' >&2\nexit 1\n")
                (bin_dir / "cc").chmod(0o755)
            monkeypatch.setenv("PATH", str(bin_dir))
        assert _BATCH_STEP() is simulate._python_step
        assert _LIBRARY() is None  # so the RK4 oracles run their Python loops
        assert self.outputs() == expected
        assert capfd.readouterr() == ("", "")
        if failure == "compile-fails":
            assert list(cache.iterdir()) == []  # no partial library left behind

    @pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
    def test_without_a_home_the_cache_is_private_in_the_temp_dir(
        self, cache, monkeypatch, tmp_path
    ):
        def no_home(cls):
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setattr(Path, "home", classmethod(no_home))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        private = tmp_path / f"moranlimits-{os.getuid()}"
        assert _BATCH_STEP() is not simulate._python_step
        assert private.stat().st_mode & 0o777 == 0o700
        assert [p.name for p in private.iterdir()] == [f"kernels-{library_key()}.so"]
        # a directory others may write to could hold anyone's library
        private.chmod(0o777)
        _LIBRARY.cache_clear()
        _BATCH_STEP.cache_clear()
        assert _BATCH_STEP() is simulate._python_step

    @pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
    def test_processes_building_at_once_each_load_a_whole_library(self, cache):
        script = (
            "import hashlib, numpy as np\n"
            "from moranlimits import ModelParams, simulate\n"
            "params = ModelParams(N=1000, s=1.0, u=0.5, nu0=0.5)\n"
            "states, _ = simulate._run_paths(100, np.linspace(0.0, 2.0, 11), 7, 16, params)\n"
            "compiled = simulate._batch_step() is not simulate._python_step\n"
            "print(compiled, hashlib.sha256(states.tobytes()).hexdigest())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(simulate.__file__).parents[1]))
        command = [sys.executable, "-c", script]
        workers = [
            subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True) for _ in range(2)
        ]
        lines = [worker.communicate(timeout=60)[0] for worker in workers]
        assert [worker.returncode for worker in workers] == [0, 0]
        states, _ = simulate._run_paths(100, self.GRID, 7, 16, self.PARAMS)
        expected = f"True {hashlib.sha256(states.tobytes()).hexdigest()}\n"
        assert lines == [expected, expected]
        assert [p.name for p in cache.iterdir()] == [f"kernels-{library_key()}.so"]


def library_key():
    """SHA-256 of the shipped source and the compiler flags, and of numpy's
    libnpyrandom.a and the flag that links its normal draw where numpy
    ships the archive."""
    key = native._SOURCE.read_bytes() + b"-O2 -ffp-contract=off -shared -fPIC"
    if NUMPY_RANDOM.is_file():
        key += b" -Wl,-u,random_standard_normal" + NUMPY_RANDOM.read_bytes()
    return hashlib.sha256(key).hexdigest()


# (N, s, u, nu0): tiny N, s = 0, u near the require_mutation floor, nu0
# near 0 and 1, and a steep drift, beside the reference shape.
STATIONARY_PANEL = [
    (1, 0.5, 0.3, 0.5),
    (1, 0.0, 1e-4, 0.5),
    (2, 0.0, 0.2, 0.5),
    (2, 1.0, 1e-6, 0.5),
    (50, 0.0, 0.5, 0.5),
    (50, 0.3, 1.7, 0.25),
    (50, 1.0, 0.02, 0.5),
    (50, 0.5, 1.0, 1e-3),
    (50, 0.5, 1.0, 0.999),
    (200, 1.0, 0.5, 0.5),
    (40, 30.0, 0.5, 0.5),
    (500, 3.0, 0.2, 0.1),
]
# Fixed with the panel, before its first run: a family-wise level of 1e-3
# split evenly over the points (Bonferroni), one seed per point.
STATIONARY_P_FLOOR = 1e-3 / len(STATIONARY_PANEL)
STATIONARY_PATHS = 2000


def spectral_gap(params):
    """The chain's exact relaxation rate, from its symmetrised generator.

    Detailed balance makes the tridiagonal generator similar to the
    symmetric matrix with off-diagonal sqrt(lambda_k mu_{k+1}); its
    eigenvalues are 0 and minus the relaxation rates.
    """
    lam, mu = rate_tables(params)
    coupling = np.sqrt(lam[:-1] * mu[1:])
    return -float(eigvalsh_tridiagonal(-(lam + mu), coupling)[-2])


def pooled_cells(expected, minimum=5.0):
    """Edges of runs of adjacent states, each with an expected count of at least minimum."""
    edges, total = [0], 0.0
    for k, count in enumerate(expected):
        total += count
        if total >= minimum:
            edges.append(k + 1)
            total = 0.0
    edges[-1] = len(expected)  # a short remainder joins the last cell
    return edges


@pytest.mark.parametrize(
    "index, point", list(enumerate(STATIONARY_PANEL)), ids=[str(p) for p in STATIONARY_PANEL]
)
def test_ensemble_matches_the_exact_stationary_law(index, point):
    # From the stationary mode k0, the law at T = 15 / gap differs from pi
    # by at most e^-15 / sqrt(pi(k0)) in the L2(pi) norm of its density,
    # below 1e-5 here: far under what 2000 paths resolve.
    n, s, u, nu0 = point
    params = ModelParams(N=n, s=s, u=u, nu0=nu0)
    law = stationary_distribution(params)
    pi = np.zeros(n + 1)
    pi[law.states] = law.probabilities
    k0 = int(pi.argmax())
    grid = [0.0, 15.0 / spectral_gap(params)]
    seed = 20261019 + index
    summary = run_ensemble(k0, grid, STATIONARY_PATHS, seed, params, flow_from(k0, params))
    finals = np.rint(summary.z_values[:, -1] * n).astype(np.int64)
    edges = pooled_cells(STATIONARY_PATHS * pi)
    observed = np.add.reduceat(np.bincount(finals, minlength=n + 1), edges[:-1])
    expected = np.add.reduceat(STATIONARY_PATHS * pi, edges[:-1])
    assert len(observed) >= 2
    assert chisquare(observed, expected).pvalue > STATIONARY_P_FLOOR
