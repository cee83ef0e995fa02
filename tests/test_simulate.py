"""Event-driven chain simulation, grid sampling, and ensemble statistics."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from moranlimits import (
    DomainError,
    DriftFunctions,
    ModelParams,
    TrajectoryPath,
    UnsupportedModelError,
    clt_statistics,
    run_ensemble,
    sample_Z_at,
    simulate_on_grid,
    simulate_path,
    solve_deterministic,
    summarize_paths,
)
from moranlimits import simulate
from moranlimits.io import dump_json
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
        monkeypatch.setattr(simulate, "_run_lockstep", no_simulation)
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
_LOCKSTEP_SWEEP = {} if settings.get_current_profile_name() == "wide" else {"max_examples": 40}


class TestLockstepKernel:
    """The lockstep kernel equals reference_chain bit for bit, path by path."""

    PATHS = 64

    @staticmethod
    def run_and_compare(k0, grid, n_paths, seed, params):
        grid = np.asarray(grid, dtype=float)
        tables = simulate._chain_tables(params)
        states, absorbed = simulate._run_lockstep(k0, grid, seed, n_paths, tables)
        events = []
        for p in range(n_paths):
            times, _, was_absorbed, expected = reference_chain(
                k0, float(grid[-1]), [seed, p], params, grid
            )
            assert np.array_equal(states[p], expected), p
            assert absorbed[p] == was_absorbed, p
            events.append(len(times))
        return states, absorbed, events

    @pytest.mark.parametrize(
        "n_paths, t_end",
        [(64, 0.1), (100, 0.1), (127, 3.0), (127, 17.0), (128, 0.1), (128, 3.0), (128, 17.0)],
        ids=["short-64", "short-100", "mid-127", "long-127", "short-128", "mid-128", "long-128"],
    )
    def test_kernel_choice_by_event_bound(self, monkeypatch, n_paths, t_end):
        # The choice depends on the path count alone, not on the event bound:
        # N = 1000 on the reference shape bounds each path by about 1000 t_end
        # events, and lockstep runs from _LOCKSTEP_MIN_PATHS paths on, whatever
        # that bound. Both kernels are faked, so nothing simulates.
        calls = []

        def fake_chain(k0, grid, rng, tables, record=False):
            calls.append("per-path")
            return None, None, False, np.full(grid.size, k0)

        def fake_lockstep(k0, grid, rng_seed, n_paths, tables):
            calls.append("lockstep")
            return np.full((n_paths, grid.size), k0), np.zeros(n_paths, dtype=bool)

        monkeypatch.setattr(simulate, "_run_chain", fake_chain)
        monkeypatch.setattr(simulate, "_run_lockstep", fake_lockstep)
        params = ModelParams(N=1000, s=1.0, u=0.5, nu0=0.5)
        reference = flow_from(100, params)
        run_ensemble(100, np.linspace(0.0, t_end, 6), n_paths, 13, params, reference)
        if n_paths >= simulate._LOCKSTEP_MIN_PATHS:
            assert calls == ["lockstep"]
        else:
            assert calls == ["per-path"] * n_paths

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
        # horizon, so paths 1 and 2 fill within the 64-draw batch while
        # path 0 runs 142 events, past column 64 of the 256-draw chunk
        # that only the unfilled row wrote. Fresh float buffers hold -1,
        # a coin that would step a row from N to N + 1.
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
        # SHA-256 of the float64 proportions; numpy 2.4 on x86-64, as tests/test_golden.py
        params = ModelParams(N=1000, s=1.0, u=0.5, nu0=0.5)
        grid = np.linspace(0.0, 2.0, 11)
        summary = run_ensemble(100, grid, n_paths, seed, params, flow_from(100, params))
        assert hashlib.sha256(summary.z_values.tobytes()).hexdigest() == digest
        assert summary.absorbed_count == 0

    def test_lockstep_directly_on_long_paths(self):
        # Every path runs over 13,632 events to the horizon, so all of
        # them cross the chunk and batch refills in step.
        params = ModelParams(N=1000, s=1.0, u=0.5, nu0=0.5)
        grid = np.linspace(0.0, 25.0, 11)
        _, absorbed, events = self.run_and_compare(100, grid, 6, 8, params)
        assert not absorbed.any()
        assert min(events) > 64 + 256 + 1024 + 4096 + 8192

    @settings(deadline=None, **_LOCKSTEP_SWEEP)
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

    # run_ensemble runs 4, 64 and 100 paths path by path, and
    # _LOCKSTEP_MIN_PATHS in lockstep.
    @pytest.mark.parametrize("n_paths", [4, 64, 100, simulate._LOCKSTEP_MIN_PATHS])
    def test_matches_run_ensemble(self, monkeypatch, n_paths):
        lockstep = simulate._run_lockstep
        calls = []

        def spy(*args):
            calls.append(args)
            return lockstep(*args)

        monkeypatch.setattr(simulate, "_run_lockstep", spy)
        self.compare(100, np.linspace(0.0, 3.0, 61), n_paths, 20260817, REF)
        assert len(calls) == (n_paths >= simulate._LOCKSTEP_MIN_PATHS)

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

    Written out here, apart from the kernels it checks. Draws come in
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


def assert_chain_matches_reference(k0, t_end, seed, params, grid):
    """simulate_path and simulate_on_grid reproduce reference_chain bit for bit."""
    times, states, absorbed, _ = reference_chain(k0, t_end, seed, params)
    path = simulate_path(k0, t_end, seed, params)
    assert path.times.tolist() == times
    assert path.states.tolist() == states
    assert path.absorbed == absorbed
    _, _, _, expected = reference_chain(k0, float(grid[-1]), seed, params, grid)
    assert np.array_equal(simulate_on_grid(k0, grid, seed, params), expected)
    return len(times)


# Events that take a path through the per-event batches of 64 and 256
# draws and the whole of the first block batch of 1024.
BLOCK_EVENTS = 64 + 256 + 1024


# A fixed number of examples by default; HYPOTHESIS_PROFILE=wide
# (tests/conftest.py) runs the profile's random search instead.
_CHAIN_SWEEP = {} if settings.get_current_profile_name() == "wide" else {"max_examples": 60}


class TestChainKernel:
    """The chain kernel against reference_chain, bit for bit."""

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
    # subnormal u: at states 0 and N a wait overflows to inf, inside a block
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
            (1000, 30.0, 0.5, 100, 2.0),  # steep drift: the loop takes over
            (100, 0.0, 0.5, 0, 60.0),
            (3000, 0.2, 0.0, 30, 30.0),  # u = 0: absorbed inside a block
        ],
    )
    def test_block_batches_match_reference(self, n, s, u, k0, t_end):
        params = ModelParams(N=n, s=s, u=u, nu0=0.5)
        grid = np.linspace(0.0, t_end, 97)
        events = assert_chain_matches_reference(k0, t_end, [77, n], params, grid)
        assert events > BLOCK_EVENTS

    def test_absorbed_inside_a_block(self):
        # neutral and without mutation, p_up is 1/2 at every inner state,
        # so the block body settles each batch in one pass, up to state 0
        params = ModelParams(N=3000, s=0.0, u=0.0, nu0=0.5)
        grid = np.linspace(0.0, 200.0, 41)
        events = assert_chain_matches_reference(30, 200.0, [77, 1], params, grid)
        path = simulate_path(30, 200.0, [77, 1], params)
        assert path.absorbed and path.states[-1] == 0
        assert 64 + 256 + 1024 + 4096 < events < 64 + 256 + 1024 + 4096 + 8192

    def test_zero_horizon(self):
        path = simulate_path(50, 0.0, 3, REF)
        assert path.n_events == 0 and not path.absorbed
        assert simulate_on_grid(50, [0.0], 3, REF).tolist() == [50]
