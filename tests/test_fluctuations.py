"""Variance law and the Gaussian path sampler."""

import hashlib
import math
import os
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import criterion_6_pid, each_kernel_body
from moranlimits import (
    DeterministicSolution,
    DomainError,
    DriftFunctions,
    FluctuationLaw,
    ModelParams,
    UnsupportedModelError,
    equilibria,
    limit_variance,
    sample_fluctuation_paths,
    solve_deterministic,
    variance_closed_form,
    variance_ode,
)
from moranlimits import fluctuations, native
from moranlimits.model import MAX_RATE
from moranlimits.selfcheck import parameter_panel, reference_params

REF = reference_params()
REF_EQ = equilibria(REF)
# variance_ode runs in relaxation time tau = rate t
RATE = REF_EQ.relaxation_rate

# Frozen oracle values for the reference set (s=1, u=0.5, nu0=0.5).
# Each was computed by an independent route (adaptive quadrature of the
# integral form, or the stationary-branch exponential) before pinning.
REF_VAR_FROM_TENTH_AT_1 = 0.7119665822504642  # z0 = 0.1, t = 1
REF_VAR_AT_STABLE_AT_2 = 0.3154532754589792  # z0 = x_stable, t = 2
REF_LIMIT_VARIANCE = 0.31909830056250527


class TestVariance:
    def test_mutation_free_models_rejected(self):
        params = ModelParams(N=5, s=1.0, u=0.0, nu0=0.5)
        with pytest.raises(UnsupportedModelError):
            variance_closed_form(0.5, 1.0, params)
        with pytest.raises(UnsupportedModelError):
            variance_ode(0.5, 1.0, 0.01, params)
        with pytest.raises(UnsupportedModelError):
            limit_variance(params)

    def test_subnormal_mutation_rate(self):
        # Sigma(infinity) = diffusion(nu0) / (2 u) overflows; Sigma(t) does not
        params = ModelParams(N=100, s=0.0, u=1e-320, nu0=0.5)
        with pytest.raises(UnsupportedModelError, match=r"s = 0\.0, u = 1e-320"):
            limit_variance(params)
        law = FluctuationLaw(0.1, params)
        assert math.isfinite(law.variance(1.0)) and law.variance(1.0) > 0.0

    def test_zero_at_time_zero(self):
        result = variance_closed_form(0.1, 0.0, REF)
        assert result.value == 0.0

    def test_frozen_transient_value(self):
        result = variance_closed_form(0.1, 1.0, REF)
        assert not result.used_fallback
        assert result.value == pytest.approx(REF_VAR_FROM_TENTH_AT_1, rel=1e-10)

    def test_frozen_stable_start_value(self):
        result = variance_closed_form(REF_EQ.x_stable, 2.0, REF)
        assert not result.used_fallback
        assert result.value == pytest.approx(REF_VAR_AT_STABLE_AT_2, rel=1e-11)

    def test_stable_start_matches_exact_exponential(self):
        sigma2 = limit_variance(REF)
        rate = REF_EQ.relaxation_rate
        for t in (0.1, 0.5, 2.0, 10.0):
            expected = sigma2 * (1.0 - math.exp(-2.0 * rate * t))
            result = variance_closed_form(REF_EQ.x_stable, t, REF)
            assert result.value == pytest.approx(expected, rel=1e-14)

    def test_start_next_to_stable_point_matches_ode(self):
        # within 1e-4 of x_stable, where a path-integral form would be ill-conditioned
        z0 = REF_EQ.x_stable + 5e-5
        taus, values = variance_ode(z0, 1.0, 1e-3, REF)
        result = variance_closed_form(z0, taus[-1] / RATE, REF)
        assert result.value == pytest.approx(values[-1], rel=1e-9)

    def test_decreasing_flow_side(self):
        taus, values = variance_ode(0.95, RATE, RATE * 1e-4, REF)
        assert taus[-1] / RATE == pytest.approx(1.0)
        result = variance_closed_form(0.95, taus[-1] / RATE, REF)
        assert not result.used_fallback
        assert result.value == pytest.approx(values[-1], rel=1e-8)

    def test_ode_and_closed_form_agree_across_panel(self):
        # one lockstep sweep over the panel, on [0, 2] in tau at 2000 steps
        rows = []
        for params, z0 in parameter_panel(6):
            eq = equilibria(params)
            rows.append((params, z0 if abs(z0 - eq.x_stable) >= 1e-2 else 0.5 * eq.x_stable))
        taus, values = variance_ode(
            np.array([z0 for _, z0 in rows]), 2.0, 1e-3, [params for params, _ in rows]
        )
        for j, (params, z0) in enumerate(rows):
            rate = equilibria(params).relaxation_rate
            for idx in (500, 1000, 2000):
                closed = variance_closed_form(z0, float(taus[idx]) / rate, params)
                assert closed.value == pytest.approx(values[idx, j], rel=1e-5)

    def test_limit_variance_frozen(self):
        assert limit_variance(REF) == pytest.approx(REF_LIMIT_VARIANCE, rel=1e-13)

    @pytest.mark.parametrize("s, u, nu0", [(1.0, 1e-100, 0.5), (1e150, 1.0, 0.5), (1.0, 1e-9, 0.5)])
    def test_limit_variance_where_x_stable_rounds_to_one(self, s, u, nu0):
        # 1 - x_stable is below float resolution or close to it; the
        # reference is g(x_stable) / (2 sqrt(D)) in 400-digit arithmetic
        with mpmath.workdps(400):
            s_, u_, nu0_ = (mpmath.mpf(value) for value in (s, u, nu0))
            root = mpmath.sqrt((s_ - u_) ** 2 + 4 * s_ * u_ * nu0_)
            x = (s_ - u_ + root) / (2 * s_)
            noise = (2 + s_) * x * (1 - x) + u_ * nu0_ * (1 - x) + u_ * (1 - nu0_) * x
            value = limit_variance(ModelParams(N=100, s=s, u=u, nu0=nu0))
            assert abs(value / (noise / (2 * root)) - 1) <= 1e-14

    def test_variance_is_nonnegative(self):
        _, values = variance_ode(0.02, 4.0, 1e-3, REF)
        assert np.all(values >= 0.0)

    def test_time_validation(self):
        with pytest.raises(DomainError):
            variance_closed_form(0.1, -1.0, REF)
        with pytest.raises(DomainError):
            variance_ode(0.1, 1.0, 0.0, REF)


class TestVarianceOde:
    """The RK4 variance oracle: a lockstep panel that never reads the closed form."""

    def test_panel_columns_match_single_rows(self):
        rows = [(REF, 0.1), (REF, 1.0), (REF, REF_EQ.x_stable)]
        rows += [(ModelParams(N=5, s=0.0, u=0.7, nu0=0.2), 0.9)]  # mutation only
        rows += parameter_panel(3)
        for _ in each_kernel_body():
            taus, panel = variance_ode(
                np.array([z0 for _, z0 in rows]), 2.0, 1e-2, [params for params, _ in rows]
            )
            assert panel.shape == (taus.size, len(rows))
            for j, (params, z0) in enumerate(rows):
                row_taus, row = variance_ode(z0, 2.0, 1e-2, params)
                assert np.array_equal(row_taus, taus)
                assert np.array_equal(panel[:, j], row)
                assert np.array_equal(np.signbit(panel[:, j]), np.signbit(row))
            with pytest.raises(DomainError):
                variance_ode(np.array([0.1, 0.2]), 2.0, 1e-2, [REF])

    def test_runs_without_the_closed_form(self, monkeypatch):
        def closed_form(*args, **kwargs):
            raise AssertionError("variance_ode read the closed form")

        monkeypatch.setattr(DeterministicSolution, "flow", closed_form)
        monkeypatch.setattr(DeterministicSolution, "__call__", closed_form)
        monkeypatch.setattr(fluctuations, "FluctuationLaw", closed_form)
        taus, values = variance_ode(0.1, 2.0, 1e-3, REF)
        monkeypatch.undo()
        closed = FluctuationLaw(0.1, REF).variance_on_grid(taus[1:] / RATE)
        np.testing.assert_allclose(values[1:], closed, rtol=1e-10, atol=0.0)


def log_uniform(low: float, high: float):
    """Powers of ten with exponents drawn from [low, high]."""
    return st.floats(low, high).map(lambda exponent: 10.0**exponent)


class TestClosedForm:
    # The oracle is RK4 at step (s + u) = 0.05 and at half that step,
    # Richardson-extrapolated: alone its error reaches 2e-5 of Sigma, and
    # combined about 1e-7. Its Horner polynomials also lose digits where
    # diffusion is far below its terms, near x = 1 when s >> u nu1; the
    # domain keeps s / (u nu1) below 1e10, where that stays under 1e-6.
    # Each example is one panel of rows sharing one step in relaxation
    # time, set by its stiffest row: every other row steps finer than
    # (s + u) h = 0.05, over a horizon shorter by the same factor.
    @settings(max_examples=8, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), log_uniform(-9.0, 4.0)),  # s
                log_uniform(-3.0, 3.0),  # u
                st.one_of(log_uniform(-12.0, -1.0), st.floats(0.1, 0.999)),  # nu0
                st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),  # z0
            ),
            min_size=20,
            max_size=40,
        ),
        n_steps=st.integers(1, 1000),
    )
    def test_matches_variance_ode(self, rows, n_steps):
        panel = [ModelParams(N=100, s=s, u=u, nu0=nu0) for s, u, nu0, _ in rows]
        z0 = np.array([row[3] for row in rows])
        rates = [equilibria(params).relaxation_rate for params in panel]
        step = 0.05 * min(rate / (p.s + p.u) for rate, p in zip(rates, panel))
        taus, coarse = variance_ode(z0, n_steps * step, step, panel)
        _, fine = variance_ode(z0, n_steps * step, step / 2.0, panel)
        assert fine.shape == (2 * coarse.shape[0] - 1, len(rows))
        oracle = fine[::2] + (fine[::2] - coarse) / 15.0
        closed = np.column_stack(
            [
                FluctuationLaw(start, params).variance_on_grid(taus[1:] / rate)
                for start, params, rate in zip(z0, panel, rates)
            ]
        )
        np.testing.assert_allclose(closed, oracle[1:], rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize(
        "s, u, nu0, z0",
        [
            (1.0, 1.0, 1e-12, 1.0),  # nearly critical: the power series in 1 - w
            (1.0, 1.0, 1e-8, 0.5),
            (2.0, 2.0, 1e-4, 1.0),
            (1.0, 0.1, 1e-8, 0.0),  # |C| = 8.1e8: the start sits next to x_minus
            (1e-6, 1.0, 0.3, 0.9),  # s -> 0+
            (0.0, 0.7, 0.2, 1.0),  # mutation only
        ],
    )
    def test_edge_regimes_match_fine_ode(self, s, u, nu0, z0):
        params = ModelParams(N=100, s=s, u=u, nu0=nu0)
        rate = equilibria(params).relaxation_rate
        # t in [0, 5] at step 1e-3
        taus, values = variance_ode(z0, 5.0 * rate, 1e-3 * rate, params)
        closed = FluctuationLaw(z0, params).variance_on_grid(taus[1:] / rate)
        np.testing.assert_allclose(closed, values[1:], rtol=1e-8, atol=0.0)

    def test_exact_limits(self):
        starts = [(params, z0) for params, z0 in parameter_panel(6)]
        starts += [(REF, 0.0), (REF, 1.0), (REF, REF_EQ.x_stable)]
        starts += [(ModelParams(N=5, s=0.0, u=0.7, nu0=0.2), 1.0)]
        for params, z0 in starts:
            law = FluctuationLaw(z0, params)
            sigma2 = law.variance_on_grid([0.0, 1e300])
            assert sigma2[0] == 0.0
            assert sigma2[1] == pytest.approx(limit_variance(params), rel=1e-13)

    @pytest.mark.parametrize(
        "s, u, nu0",
        [
            (MAX_RATE, MAX_RATE, 0.5),
            (MAX_RATE, 1.0, 0.5),
            (MAX_RATE, 1e-150, 0.5),
            (1e-150, MAX_RATE, 0.5),
            (0.0, MAX_RATE, 0.5),
            (1.0, 1.0, 1e-300),
            (MAX_RATE, MAX_RATE, 1e-300),
        ],
    )
    @pytest.mark.parametrize("z0", [0.0, 0.5, 1.0])
    def test_finite_up_to_max_rate(self, s, u, nu0, z0):
        # pytest turns any RuntimeWarning (overflow, inf * 0) into an error
        params = ModelParams(N=10, s=s, u=u, nu0=nu0)
        times = [0.0, 1e-300, 1e-150, 1e-10, 1.0, 1e10, 1e300]
        sigma2 = FluctuationLaw(z0, params).variance_on_grid(times)
        assert np.all(np.isfinite(sigma2)) and np.all(sigma2 >= 0.0)
        paths = sample_fluctuation_paths(z0, times, 4, 3, params)
        assert np.all(np.isfinite(paths))

    def test_start_at_unstable_point_stays_put(self):
        # u nu0 is the least subnormal, so x_minus = -u nu0 / (s x_plus) is -0.0
        params = ModelParams(N=10, s=4.0, u=1e-200, nu0=5e-124)
        assert params.u * params.nu0 == 5e-324
        assert equilibria(params).x_unstable == 0.0
        times = np.linspace(0.0, 3.0, 4)
        assert np.all(FluctuationLaw(0.0, params).variance_on_grid(times) == 0.0)
        assert np.all(sample_fluctuation_paths(0.0, times, 3, 1, params) == 0.0)

    def test_underflowing_mutation_rate_rejected(self):
        # u nu0 = 0 with u > 0: state 0 absorbs as it does at u = 0
        params = ModelParams(N=10, s=1.0, u=1e-200, nu0=1e-200)
        with pytest.raises(UnsupportedModelError, match=r"u \* nu0 = 0\.0"):
            FluctuationLaw(0.0, params)
        with pytest.raises(UnsupportedModelError, match=r"u \* nu0 = 0\.0"):
            limit_variance(params)

    def test_start_within_rounding_of_unstable_point_rejected(self):
        # x_minus is about -1e-310, so C = -x_plus / 1e-310 overflows
        params = ModelParams(N=10, s=1.0, u=1e-10, nu0=1e-300)
        with pytest.raises(UnsupportedModelError, match="unstable point"):
            FluctuationLaw(0.0, params)

    @pytest.mark.parametrize(
        "params, z0",
        [
            (REF, 0.1),
            (REF, 0.95),
            (REF, 0.0),
            (REF, REF_EQ.x_stable),
            (ModelParams(N=5, s=0.0, u=0.7, nu0=0.2), 0.9),
            (ModelParams(N=5, s=1.0, u=1.0, nu0=1e-8), 1.0),
            (ModelParams(N=5, s=3.0, u=0.1, nu0=1e-3), 0.0),
        ],
    )
    def test_propagator_matches_quadrature(self, params, z0):
        grid = np.linspace(0.0, 3.0, 13)
        law = FluctuationLaw(z0, params)
        slope = DriftFunctions(params).drift_slope
        flow = law.solution
        expected = [
            math.exp(quad(lambda v: slope(flow(v)), a, b, epsabs=1e-15, epsrel=1e-13)[0])
            for a, b in zip(grid[:-1], grid[1:])
        ]
        np.testing.assert_allclose(law.propagators(grid), expected, rtol=1e-12, atol=0.0)

    def test_propagator_at_frozen_start(self):
        # at the unstable point drift_slope is +sqrt(D) all along, so each
        # step grows by exp(sqrt(D) h); the last step's exponent reaches the
        # _X_CAP cap, past exp's overflow, and reads inf without a warning
        law = FluctuationLaw(0.0, ModelParams(N=10, s=4.0, u=1e-200, nu0=5e-124))
        rate = law.relaxation_rate
        grid = np.array([0.0, 0.3, 1.0, 1.0 + 700.0 / rate, 1.0 + 3.0 * fluctuations._X_CAP / rate])
        with np.errstate(over="ignore"):
            expected = np.exp(rate * np.diff(grid))
        propagators = law.propagators(grid)
        assert np.array_equal(propagators, expected)
        assert np.isfinite(propagators[:3]).all() and propagators[3] == math.inf


class TestFluctuationLaw:
    def test_exposes_model_quantities(self):
        law = FluctuationLaw(0.1, REF)
        assert law.relaxation_rate == REF_EQ.relaxation_rate

    def test_variance_matches_free_function(self):
        law = FluctuationLaw(0.1, REF)
        for t in (0.0, 0.4, 2.1):
            assert law.variance(t) == pytest.approx(
                variance_closed_form(0.1, t, REF).value, rel=1e-12
            )

    def test_grid_variance_against_pointwise(self):
        law = FluctuationLaw(0.1, REF)
        times = np.linspace(0.0, 3.0, 13)
        grid = law.variance_on_grid(times)
        for t, v in zip(times, grid):
            assert v == pytest.approx(variance_closed_form(0.1, float(t), REF).value, rel=1e-6)

    def test_grid_variance_at_stable_start(self):
        law = FluctuationLaw(REF_EQ.x_stable, REF)
        times = np.linspace(0.0, 3.0, 7)
        grid = law.variance_on_grid(times)
        sigma2 = limit_variance(REF)
        rate = REF_EQ.relaxation_rate
        expected = sigma2 * (1.0 - np.exp(-2.0 * rate * times))
        assert np.max(np.abs(grid - expected)) < 1e-14


class TestSampler:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            sample_fluctuation_paths(0.1, np.array([0.5, 1.0]), 4, 1, REF)
        with pytest.raises(DomainError):
            sample_fluctuation_paths(0.1, np.array([0.0, 1.0, 1.0]), 4, 1, REF)
        with pytest.raises(DomainError):
            sample_fluctuation_paths(0.1, np.array([0.0, 1.0]), 0, 1, REF)

    def test_seed_rejected_before_any_quadrature(self, monkeypatch):
        # Path p draws from [rng_seed, p], so the seed is one integer >= 0;
        # it is checked before the law is built or Sigma evaluated.
        def no_evaluation(*args, **kwargs):
            raise AssertionError("evaluated the law before validating the seed")

        monkeypatch.setattr(fluctuations, "FluctuationLaw", no_evaluation)
        for bad in ([1, 2], (3,), True, -1, 1.5, "7", None):
            with pytest.raises(DomainError, match="rng_seed"):
                sample_fluctuation_paths(0.1, np.array([0.0, 1.0]), 4, bad, REF)

    def test_requires_mutation(self):
        params = ModelParams(N=5, s=1.0, u=0.0, nu0=0.5)
        with pytest.raises(UnsupportedModelError):
            sample_fluctuation_paths(0.5, np.array([0.0, 1.0]), 4, 1, params)

    def test_shape_and_zero_start(self):
        grid = np.linspace(0.0, 2.0, 9)
        paths = sample_fluctuation_paths(0.1, grid, 50, 123, REF)
        assert paths.shape == (50, 9)
        assert np.all(paths[:, 0] == 0.0)

    @pytest.mark.parametrize(
        "params, z0, grid, n_paths, seed, digest",
        [
            # the shape of the benchmark's limits call
            (
                ModelParams(N=1000, s=1.3, u=0.7, nu0=0.45), 0.62,
                np.linspace(0.0, 10.0, 401), 512, 7,
                "db9855dd23b197e0c33ad3112e3318ac7d058d61e96cee03b9113ee836b163cf",
            ),
            # a start at the unstable point: every path is 0, no draw is made
            (
                ModelParams(N=10, s=4.0, u=1e-200, nu0=5e-124), 0.0,
                np.linspace(0.0, 3.0, 101), 64, 1,
                "20aec767acbfc817568f8683a7cc00a0bea607c5b4bda106b60992e39c9ecd5a",
            ),
            # seeds of three and four uint32 words: each path's entropy then
            # fills the hash pool, or runs past it
            (
                ModelParams(N=1000, s=1.3, u=0.7, nu0=0.45), 0.62,
                np.linspace(0.0, 10.0, 401), 64, 2**64 + 7,
                "53a1456eae038d1eb9f0529b56d397a95fd19fc5404732bb834e3c142ca50861",
            ),
            (
                ModelParams(N=1000, s=1.3, u=0.7, nu0=0.45), 0.62,
                np.linspace(0.0, 10.0, 401), 64, 2**100 + 3,
                "cc94a847da42af6bc4225eeb3baf457c3bc0ba17e4ee57690748ed960f38a464",
            ),
        ],
    )
    def test_golden_paths(self, params, z0, grid, n_paths, seed, digest):
        # SHA-256 of the float64 bytes; numpy 2.4 on x86-64, as tests/test_golden.py;
        # on the compiled sampler, then on the Python body
        for _ in each_kernel_body():
            paths = sample_fluctuation_paths(z0, grid, n_paths, seed, params)
            assert paths.shape == (n_paths, grid.size) and paths.dtype == np.float64
            assert hashlib.sha256(paths.tobytes()).hexdigest() == digest

    def test_peak_memory_is_the_output(self):
        # The normals are drawn into the output matrix itself: no second
        # (n_paths, n_steps) array, which would take the peak to 2x.
        grid = np.linspace(0.0, 10.0, 201)
        tracemalloc.start()
        try:
            paths = sample_fluctuation_paths(0.1, grid, 2000, 7, REF)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * paths.nbytes

    def test_bitwise_determinism(self):
        grid = np.linspace(0.0, 2.0, 9)
        first = sample_fluctuation_paths(0.1, grid, 20, 777, REF)
        second = sample_fluctuation_paths(0.1, grid, 20, 777, REF)
        assert np.array_equal(first, second)

    def test_path_count_prefix_property(self):
        # Per-path streams: the first paths of a larger run are unchanged.
        grid = np.linspace(0.0, 2.0, 9)
        small = sample_fluctuation_paths(0.1, grid, 10, 777, REF)
        large = sample_fluctuation_paths(0.1, grid, 30, 777, REF)
        assert np.array_equal(large[:10], small)

    def test_marginal_variances_transient_start(self):
        grid = np.array([0.0, 0.5, 1.0, 2.0])
        paths = sample_fluctuation_paths(0.1, grid, 10_000, 555001, REF)
        sample_var = paths.var(axis=0, ddof=1)
        for j in (1, 2, 3):
            target = variance_closed_form(0.1, float(grid[j]), REF).value
            assert sample_var[j] == pytest.approx(target, rel=0.05)

    def test_marginal_variances_stable_start(self):
        grid = np.array([0.0, 0.5, 1.0, 2.0])
        paths = sample_fluctuation_paths(REF_EQ.x_stable, grid, 10_000, 555002, REF)
        sample_var = paths.var(axis=0, ddof=1)
        sigma2 = limit_variance(REF)
        rate = REF_EQ.relaxation_rate
        for j in (1, 2, 3):
            target = sigma2 * (1.0 - math.exp(-2.0 * rate * grid[j]))
            assert sample_var[j] == pytest.approx(target, rel=0.05)

    def test_lagged_covariance_matches_propagator(self):
        # Cov(V(1), V(2)) = a * Var(V(1)) where a is the linearised
        # propagator over [1, 2]; estimate both sides from the sample.
        grid = np.array([0.0, 1.0, 2.0])
        paths = sample_fluctuation_paths(0.1, grid, 10_000, 555001, REF)
        v1, v2 = paths[:, 1], paths[:, 2]
        cov = np.cov(v1, v2, ddof=1)[0, 1]
        var1 = v1.var(ddof=1)
        var2_target = variance_closed_form(0.1, 2.0, REF).value
        var1_target = variance_closed_form(0.1, 1.0, REF).value
        # a^2 * Var(1) + shock variance = Var(2); recover a by quadrature-free
        # identity Cov = a * Var(1) and check the ratio against the model a.
        sol = solve_deterministic(0.1, REF)
        slope = DriftFunctions(REF).drift_slope
        log_a, _ = quad(lambda v: slope(sol(v)), 1.0, 2.0)
        a = math.exp(log_a)
        assert cov / var1 == pytest.approx(a, rel=0.05)
        assert a * a * var1_target < var2_target  # shocks add strictly positive mass


# A fixed number of examples by default; HYPOTHESIS_PROFILE=wide
# (tests/conftest.py) takes 2,000.
_SAMPLER_SWEEP = {} if settings.get_current_profile_name() == "wide" else {"max_examples": 60}


def seeds_of_words(words: int):
    """Seeds of exactly `words` uint32 words (0 is one word)."""
    return st.integers(0 if words == 1 else 2 ** (32 * (words - 1)), 2 ** (32 * words) - 1)


class TestSamplerBodies:
    """The compiled sampler (kernels.c's fluctuation_rows, on contiguous
    blocks of rows over min(n_paths, usable CPUs) threads) against the
    Python body, byte for byte."""

    @settings(deadline=None, **_SAMPLER_SWEEP)
    @given(
        s=st.just(0.0) | st.floats(0.01, 5.0),
        u=st.floats(0.05, 3.0),
        nu0=st.floats(0.05, 0.95),
        z0=st.floats(0.0, 1.0),
        t_end=st.floats(0.01, 20.0),
        n_steps=st.integers(1, 60),
        n_paths=st.integers(1, 9),
        seed=st.integers(1, 4).flatmap(seeds_of_words),
    )
    @example(s=1.3, u=0.7, nu0=0.45, z0=0.62, t_end=10.0, n_steps=1, n_paths=1, seed=7)
    @example(s=1.3, u=0.7, nu0=0.45, z0=0.62, t_end=10.0, n_steps=40, n_paths=2, seed=2**100 + 3)
    def test_compiled_equals_python(self, s, u, nu0, z0, t_end, n_steps, n_paths, seed):
        params = ModelParams(N=1000, s=s, u=u, nu0=nu0)
        self.compare(z0, np.linspace(0.0, t_end, n_steps + 1), n_paths, seed, params)

    def test_frozen_start(self):
        # at the unstable point every path is 0 on either body, and no draw is made
        params = ModelParams(N=10, s=4.0, u=1e-200, nu0=5e-124)
        paths = self.compare(0.0, np.linspace(0.0, 3.0, 11), 5, 1, params)
        assert not paths.any()

    @staticmethod
    def compare(z0, grid, n_paths, seed, params):
        """The paths on 1, 2 and 3 threads and on the Python body, all equal byte for byte."""
        runs = []
        with pytest.MonkeyPatch.context() as patch:
            for threads in (1, 2, 3):
                patch.setattr(native, "usable_cpus", lambda: threads)
                runs.append(sample_fluctuation_paths(z0, grid, n_paths, seed, params))
            patch.setattr(native, "library", lambda: None)
            runs.append(sample_fluctuation_paths(z0, grid, n_paths, seed, params))
        assert len({paths.tobytes() for paths in runs}) == 1
        return runs[0]


class TestSamplerThreads:
    """The compiled sampler's helper threads: none outlives a call, an error
    in one reaches the caller, and the Python body starts none."""

    PARAMS = ModelParams(N=1000, s=1.3, u=0.7, nu0=0.45)
    GRID = np.linspace(0.0, 10.0, 41)

    @pytest.fixture
    def helpers(self, monkeypatch):
        """The threads started while the test runs, on three usable CPUs."""
        started, start = [], threading.Thread.start

        def spy(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        monkeypatch.setattr(native, "usable_cpus", lambda: 3)
        return started

    @pytest.fixture
    def compiled(self, helpers):
        """Skips where the compiled sampler cannot run."""
        kernels = native.library()
        if kernels is None or kernels.fluctuation_rows(0, 0, 1, None, None, None, None) != 0:
            pytest.skip("needs the compiled sampler")
        return kernels

    @pytest.mark.parametrize("n_paths, threads", [(8, 3), (2, 2), (1, 1)])
    def test_no_helper_outlives_the_call(self, compiled, helpers, n_paths, threads):
        sample_fluctuation_paths(0.62, self.GRID, n_paths, 7, self.PARAMS)
        assert len(helpers) == threads - 1
        assert not any(thread.is_alive() for thread in helpers)
        assert threading.active_count() == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker needs fork")
    def test_a_worker_may_be_forked_after_the_call(self, compiled, helpers):
        sample_fluctuation_paths(0.62, self.GRID, 8, 7, self.PARAMS)
        assert helpers
        assert criterion_6_pid() != os.getpid()

    def test_a_helper_error_reaches_the_caller(self, compiled, helpers, monkeypatch):
        class FailingInHelpers:
            def fluctuation_rows(self, *args):
                if threading.current_thread() is not threading.main_thread():
                    raise RuntimeError("a block failed")
                return compiled.fluctuation_rows(*args)

        monkeypatch.setattr(native, "library", lambda: FailingInHelpers())
        with pytest.raises(RuntimeError, match="a block failed"):
            sample_fluctuation_paths(0.62, self.GRID, 8, 7, self.PARAMS)
        assert len(helpers) == 2
        assert threading.active_count() == 1

    def test_python_body_starts_no_helper(self, helpers, monkeypatch):
        expected = sample_fluctuation_paths(0.62, self.GRID, 8, 7, self.PARAMS)
        helpers.clear()
        monkeypatch.setattr(native, "library", lambda: None)
        paths = sample_fluctuation_paths(0.62, self.GRID, 8, 7, self.PARAMS)
        assert helpers == []
        assert paths.tobytes() == expected.tobytes()
