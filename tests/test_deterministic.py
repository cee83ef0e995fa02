"""Closed-form flow, equilibria, RK4 oracle, and the linear reduction."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moranlimits import (
    DomainError,
    rk4,
    DriftFunctions,
    ModelParams,
    Regime,
    UnsupportedModelError,
    classify_regime,
    equilibria,
    kernel_q,
    linear_model_solution,
    ode_oracle_at,
    solve_deterministic,
)
from moranlimits import deterministic, selfcheck
from moranlimits.deterministic import _snap_unit, _snap_unit_scalar
from moranlimits.selfcheck import parameter_panel, reference_params

REF = reference_params()

# Frozen reference-set constants, cross-checked against an independent
# quadratic-root and RK4 computation before being pinned here.
REF_X_STABLE = 0.8090169943749475
REF_X_UNSTABLE = -0.30901699437494745
REF_RATE = 1.118033988749895  # sqrt(1.25)
REF_DISCRIMINANT = 1.25
REF_Z_AT_5_FROM_TENTH = 0.8018260154015522  # RK4, step 1e-4, z0 = 0.1


class TestRegimeAndDrift:
    def test_classification(self):
        assert classify_regime(ModelParams(N=5, s=0.0, u=0.0, nu0=0.5)) is Regime.NEUTRAL
        assert (
            classify_regime(ModelParams(N=5, s=0.0, u=0.3, nu0=0.5))
            is Regime.MUTATION_ONLY
        )
        assert classify_regime(REF) is Regime.SELECTION

    def test_drift_against_direct_polynomial(self):
        funcs = DriftFunctions(REF)
        for x in np.linspace(-0.2, 1.2, 29):
            direct = REF.s * x * (1 - x) + REF.u * REF.nu0 * (1 - x) - REF.u * REF.nu1 * x
            assert funcs.drift(x) == pytest.approx(direct, abs=1e-15)
            slope = REF.s * (1 - 2 * x) - REF.u
            assert funcs.drift_slope(x) == pytest.approx(slope, abs=1e-15)

    def test_diffusion_is_total_kernel_activity(self):
        for params, _ in [(REF, None)] + parameter_panel(5):
            funcs = DriftFunctions(params)
            for p in np.linspace(0.0, 1.0, 41):
                total = sum(kernel_q(float(p), params))
                assert funcs.diffusion(float(p)) == pytest.approx(total, abs=1e-15)

    def test_diffusion_noise_floor(self):
        for params, _ in parameter_panel(10):
            funcs = DriftFunctions(params)
            floor = params.u * min(params.nu0, params.nu1)
            values = funcs.diffusion(np.linspace(0.0, 1.0, 201))
            assert values.min() >= floor - 1e-15
            assert floor > 0.0

    def test_discriminant_by_regime(self):
        assert equilibria(REF).discriminant == REF_DISCRIMINANT
        assert equilibria(ModelParams(N=5, s=0.0, u=0.7, nu0=0.4)).discriminant == 0.7
        with pytest.raises(UnsupportedModelError):
            equilibria(ModelParams(N=5, s=0.0, u=0.0, nu0=0.4)).discriminant


class TestEquilibria:
    def test_neutral_has_no_isolated_equilibrium(self):
        with pytest.raises(UnsupportedModelError):
            equilibria(ModelParams(N=5, s=0.0, u=0.0, nu0=0.5))

    @pytest.mark.parametrize("s, u", [(1e-200, 1e-200), (1e-200, 0.0), (1e-154, 0.0)])
    def test_underflowing_discriminant_rejected(self, s, u):
        # D = (s - u)^2 + 4 s u nu0 is 0, 0 and 1e-308, below the smallest normal float
        with pytest.raises(UnsupportedModelError, match="discriminant D"):
            equilibria(ModelParams(N=5, s=s, u=u, nu0=0.5))
        with pytest.raises(UnsupportedModelError, match="discriminant D"):
            solve_deterministic(0.5, ModelParams(N=5, s=s, u=u, nu0=0.5))

    def test_overflowing_unstable_root_rejected(self):
        # u / s ~ 1e327: (s - u - sqrt(D)) / (2 s) is -inf, and x_plus = 0.0 from it
        params = ModelParams(N=5, s=8.5e-206, u=7.7e122, nu0=0.76)
        with pytest.raises(UnsupportedModelError, match="x_minus") as err:
            equilibria(params)
        assert "s = 8.5e-206, u = 7.7e+122" in str(err.value)

    def test_smallest_normal_discriminant_resolved(self):
        eq = equilibria(ModelParams(N=5, s=2e-154, u=0.0, nu0=0.5))  # D = 4e-308
        assert eq.x_stable == 1.0
        assert eq.discriminant == pytest.approx(4e-308, rel=1e-15)

    def test_mutation_only(self):
        params = ModelParams(N=5, s=0.0, u=0.7, nu0=0.4)
        eq = equilibria(params)
        assert eq.regime is Regime.MUTATION_ONLY
        assert eq.x_stable == 0.4
        assert eq.x_unstable is None
        assert eq.slope_stable == -0.7
        assert eq.relaxation_rate == 0.7
        assert eq.discriminant == 0.7

    def test_reference_roots(self):
        eq = equilibria(REF)
        assert eq.x_stable == pytest.approx(REF_X_STABLE, rel=1e-14)
        assert eq.x_unstable == pytest.approx(REF_X_UNSTABLE, rel=1e-14)
        assert eq.relaxation_rate == pytest.approx(REF_RATE, rel=1e-14)
        assert eq.discriminant == pytest.approx(REF_DISCRIMINANT, rel=1e-14)

    def test_roots_annihilate_drift(self):
        for params, _ in parameter_panel():
            eq = equilibria(params)
            funcs = DriftFunctions(params)
            assert abs(funcs.drift(eq.x_stable)) < 1e-12
            assert abs(funcs.drift(eq.x_unstable)) < 1e-12

    def test_slopes_match_drift_derivative_and_signs(self):
        for params, _ in parameter_panel():
            eq = equilibria(params)
            funcs = DriftFunctions(params)
            assert eq.slope_stable < 0.0 < eq.slope_unstable
            assert eq.slope_stable == pytest.approx(
                funcs.drift_slope(eq.x_stable), rel=1e-11, abs=1e-13
            )
            assert eq.slope_unstable == pytest.approx(
                funcs.drift_slope(eq.x_unstable), rel=1e-11, abs=1e-13
            )

    def test_ordering_and_containment(self):
        for params, _ in parameter_panel():
            eq = equilibria(params)
            assert eq.x_unstable < 0.0 < eq.x_stable <= 1.0

    def test_pure_selection_roots_exact(self):
        eq = equilibria(ModelParams(N=5, s=0.8, u=0.0, nu0=0.5))
        assert eq.x_stable == 1.0
        assert eq.x_unstable == 0.0
        assert eq.relaxation_rate == pytest.approx(0.8, rel=1e-15)


class TestDeterministicSolution:
    def test_initial_condition(self):
        for params, z0 in [(REF, 0.1)] + parameter_panel(8):
            assert solve_deterministic(z0, params)(0.0) == pytest.approx(z0, abs=2e-15)

    def test_z0_validation(self):
        for bad in (-0.1, 1.1, math.nan, "0.5", None):
            with pytest.raises(DomainError):
                solve_deterministic(bad, REF)

    def test_negative_time_rejected(self):
        sol = solve_deterministic(0.5, REF)
        with pytest.raises(DomainError):
            sol(-1e-9)
        with pytest.raises(DomainError):
            sol(np.array([0.0, -2.0]))

    def test_unresolved_root_gap_rejected(self):
        # s = u and a tiny nu0 put the roots 1e-103 apart, so z0 - x_minus and
        # z0 - x_plus round alike and the flow's denominator is 0 at t = 0
        params = ModelParams(N=1, s=1.0, u=1.0, nu0=2.3012815966784414e-207)
        sol = solve_deterministic(0.1, params)
        with pytest.raises(UnsupportedModelError, match="closer than z0 = 0.1 resolves"):
            sol(0.0)
        for z0 in (0.0, equilibria(params).x_stable, 1e-104):  # a fixed point, or resolved
            assert math.isfinite(solve_deterministic(z0, params)(1.0))

    def test_neutral_flow_is_frozen(self):
        sol = solve_deterministic(0.37, ModelParams(N=5, s=0.0, u=0.0, nu0=0.5))
        times = np.array([0.0, 1.0, 50.0])
        assert np.all(sol(times) == 0.37)

    def test_mutation_only_exponential_relaxation(self):
        params = ModelParams(N=5, s=0.0, u=0.5, nu0=0.3)
        sol = solve_deterministic(0.9, params)
        assert sol(2.0) == pytest.approx(0.3 + 0.6 * math.exp(-1.0), rel=1e-14)

    def test_selection_against_frozen_rk4_value(self):
        assert solve_deterministic(0.1, REF)(5.0) == pytest.approx(
            REF_Z_AT_5_FROM_TENTH, abs=1e-12
        )

    def test_fixed_points_stay_fixed(self):
        eq = equilibria(REF)
        sol = solve_deterministic(eq.x_stable, REF)
        for t in (0.0, 1.0, 100.0, 1e6):
            assert sol(t) == eq.x_stable
        pure = ModelParams(N=5, s=1.0, u=0.0, nu0=0.5)
        assert solve_deterministic(1.0, pure)(300.0) == 1.0
        assert solve_deterministic(0.0, pure)(300.0) == 0.0

    def test_stays_inside_unit_interval(self):
        times = np.linspace(0.0, 30.0, 301)
        for params, _ in parameter_panel(10):
            for z0 in (0.0, 0.31, 1.0):
                values = solve_deterministic(z0, params)(times)
                assert np.all(values >= 0.0)
                assert np.all(values <= 1.0)

    def test_monotone_approach_to_stable_point(self):
        times = np.linspace(0.0, 20.0, 400)
        for params, z0 in parameter_panel(6):
            eq = equilibria(params)
            gaps = np.abs(solve_deterministic(z0, params)(times) - eq.x_stable)
            assert np.all(np.diff(gaps) <= 1e-12)

    def test_flow_property(self):
        for params, z0 in [(REF, 0.1)] + parameter_panel(8):
            sol = solve_deterministic(z0, params)
            for t in (0.3, 1.7):
                for r in (0.4, 2.5):
                    restarted = solve_deterministic(sol(t), params)(r)
                    assert restarted == pytest.approx(sol(t + r), abs=1e-10)

    def test_scalar_and_array_calling(self):
        sol = solve_deterministic(0.1, REF)
        assert isinstance(sol(1.0), float)
        out = sol(np.array([0.0, 1.0, 2.0]))
        assert out.shape == (3,)

    def test_long_horizon_is_finite(self):
        for params, z0 in parameter_panel(5):
            value = solve_deterministic(z0, params)(1e8)
            assert math.isfinite(value)
            assert value == pytest.approx(equilibria(params).x_stable, abs=1e-12)


def scalar_path_starts():
    """(params, z0) over every regime, with z0 at 0, 1, a drawn start and
    each fixed point that lies in [0, 1]."""
    models = [
        ModelParams(N=5, s=0.0, u=0.0, nu0=0.5),  # NEUTRAL
        ModelParams(N=5, s=0.0, u=0.5, nu0=0.3),  # MUTATION_ONLY
        REF,  # SELECTION, x_minus < 0
        ModelParams(N=5, s=1.0, u=0.0, nu0=0.5),  # SELECTION, x_minus = 0, x_plus = 1
    ] + [params for params, _ in parameter_panel(4)]
    drawn = np.random.default_rng(7).uniform(0.0, 1.0, len(models))
    cases = []
    for params, z_drawn in zip(models, drawn):
        starts = {0.0, 1.0, float(z_drawn)}
        if classify_regime(params) is not Regime.NEUTRAL:
            eq = equilibria(params)
            fixed = (eq.x_stable, eq.x_unstable)
            starts |= {x for x in fixed if x is not None and 0.0 <= x <= 1.0}
        cases += [(params, z0) for z0 in sorted(starts)]
    return cases


class TestScalarFlowPath:
    """A scalar time gives a float: the RK4 oracle's value up to t = 1, the
    stable point at long times, and DomainError for a time outside [0, inf)."""

    def test_covers_every_regime(self):
        assert {classify_regime(p) for p, _ in scalar_path_starts()} == set(Regime)

    @pytest.mark.parametrize("t", [0.0, 5e-324, 1e-300, 1.0, 1e3])
    def test_float_matches_array_bit_for_bit(self, t):
        for params, z0 in scalar_path_starts():
            value = solve_deterministic(z0, params)(t)
            assert type(value) is float
            if t <= 1.0:
                oracle = ode_oracle_at(z0, [t], 1e-3, params)[0]
                assert value == pytest.approx(oracle, abs=1e-9)
            elif classify_regime(params) is Regime.NEUTRAL or z0 == equilibria(params).x_unstable:
                assert value == z0  # the flow is constant
            else:
                assert value == pytest.approx(equilibria(params).x_stable, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_same_domain_errors_as_checked_path(self, bad):
        expected = "t must lie in [0, inf]" if bad == -1.0 else "t must be finite"
        sol = solve_deterministic(0.1, REF)
        with pytest.raises(DomainError) as err:
            sol(bad)
        assert str(err.value) == expected

    def test_other_scalars_take_the_checked_path(self, monkeypatch):
        original = deterministic.check_times
        checked = []

        def spy(times, name):
            checked.append(times)
            return original(times, name)

        sol = solve_deterministic(0.1, REF)
        expected = sol(np.array([2.0]))[0]
        monkeypatch.setattr(deterministic, "check_times", spy)
        for t in (2.0, 2, np.float64(2.0), np.array(2.0)):
            value = sol(t)
            assert type(value) is float
            assert value == expected
        assert len(checked) == 4


class TestOdeOracle:
    """rk4.integrate on the drift polynomial, and the flow oracle ode_oracle_at."""

    @staticmethod
    def integrate_drift(z0, t_end, step):
        return rk4.integrate(DriftFunctions(REF).drift, z0, t_end, step)

    def test_step_validation(self):
        with pytest.raises(DomainError):
            self.integrate_drift(0.1, 1.0, 0.0)
        with pytest.raises(DomainError):
            self.integrate_drift(0.1, 1.0, 2.0)  # step exceeds the horizon
        with pytest.raises(DomainError):
            self.integrate_drift(0.1, -1.0, 0.1)

    def test_zero_horizon(self):
        times, values = self.integrate_drift(0.1, 0.0, 0.5)
        assert times.tolist() == [0.0]
        assert values.tolist() == [0.1]

    def test_node_layout_with_remainder(self):
        times, _ = self.integrate_drift(0.1, 1.05, 0.25)
        assert times[0] == 0.0
        assert times[-1] == 1.05
        assert np.all(np.diff(times) > 0)

    def test_tracks_closed_form(self):
        times = np.arange(1, 10_001) * 1e-3
        values = ode_oracle_at(0.1, times, 1e-3, REF)
        closed = solve_deterministic(0.1, REF)(times)
        assert np.max(np.abs(closed - values)) < 1e-9

    def test_oracle_at_matches_full_integration(self):
        times, values = self.integrate_drift(0.2, 3.0, 1e-2)
        at = rk4.integrate_at(DriftFunctions(REF).drift, 0.2, times[1:], 1e-2)
        assert np.max(np.abs(at - values[1:])) < 1e-12

    def test_oracle_stays_in_unit_interval(self):
        params = ModelParams(N=5, s=1.0, u=0.0, nu0=0.5)
        values = ode_oracle_at(1.0, np.linspace(0.0, 5.0, 5001), 1e-3, params)
        assert np.all(values <= 1.0)
        assert np.all(values >= 0.0)


def assert_bitwise_equal(actual, expected):
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


class TestBatchedOracle:
    """An array of starts, one model per row, equals the per-row scalar calls."""

    @staticmethod
    def assert_rows_match(rows, times, step=1e-3):
        z0s = np.array([z0 for _, z0 in rows])
        batch = ode_oracle_at(z0s, times, step, [params for params, _ in rows])
        assert batch.shape == (len(times), len(rows))
        for j, (params, z0) in enumerate(rows):
            assert_bitwise_equal(batch[:, j], ode_oracle_at(z0, times, step, params))

    def test_criterion_one_panel(self):
        rows = [
            (params, z0)
            for params, z0_drawn in [(REF, 0.1)] + parameter_panel()
            for z0 in (0.0, z0_drawn, 1.0)
        ]
        self.assert_rows_match(rows, np.linspace(0.0, 2.0, 201))

    def test_degenerate_regimes_and_unit_boundary(self):
        absorbing = ModelParams(N=5, s=1.0, u=0.0, nu0=0.5)
        rows = [
            (ModelParams(N=5, s=0.0, u=0.7, nu0=0.4), 0.3),  # mutation only
            (absorbing, 0.0),
            (absorbing, 1.0),
            (absorbing, 0.999999),  # approaches the fixed point 1 from below
            (ModelParams(N=5, s=0.0, u=0.0, nu0=0.5), 0.4),  # frozen
            (REF, 0.999999),
        ]
        self.assert_rows_match(rows, np.linspace(0.0, 3.0, 31))

    def test_non_uniform_grid(self):
        rows = [(params, z0) for params, z0 in parameter_panel(4)]
        self.assert_rows_match(rows, [0.0, 0.0035, 0.01, 0.5, 0.73, 2.0], step=1e-2)

    def test_single_row(self):
        self.assert_rows_match([(REF, 0.1)], np.linspace(0.0, 1.0, 11))

    def test_snap_matches_scalar_snap(self):
        edges = np.array(
            [-1e-13, -5e-14, -5e-324, -0.0, 0.0, 0.5, 1.0, 1.0 + 5e-14,
             1.0 + 1e-13, -1e-12, 1.5, np.nan, np.inf, -np.inf]
        )
        expected = np.array([_snap_unit_scalar(float(z)) for z in edges])
        assert_bitwise_equal(_snap_unit(edges), expected)

    def test_rejects_mismatched_rows(self):
        times = [0.5, 1.0]
        with pytest.raises(DomainError):
            ode_oracle_at(np.array([0.1, 0.2]), times, 1e-3, [REF])
        with pytest.raises(DomainError):
            ode_oracle_at(np.array([0.1, 0.2]), times, 1e-3, REF)
        with pytest.raises(DomainError):
            ode_oracle_at(0.1, times, 1e-3, [REF])
        with pytest.raises(DomainError):
            ode_oracle_at(np.array([]), times, 1e-3, [])
        with pytest.raises(DomainError):
            ode_oracle_at(np.array([0.1, 1.5]), times, 1e-3, [REF, REF])


def test_integrate_at_array_state_matches_scalar_calls():
    # y' = rate (target - y); targets inside the snap bands make the
    # post-step snap fire once the state settles there.
    rates = np.array([0.0, 0.5, 3.0, 40.0, 3.0, 3.0])
    targets = np.array([0.2, 0.7, 1.0 + 5e-14, 0.1, -5e-14, 1.0 + 1e-12])
    y0 = np.array([0.3, 0.0, 1.0, 0.9, 0.0, 0.5])
    times = [0.0, 0.01, 0.25, 0.3, 1.0, 20.0]
    batch = rk4.integrate_at(
        lambda y: rates * (targets - y),
        y0,
        times,
        1e-2,
        post=_snap_unit,
    )
    assert batch.shape == (len(times), y0.size)
    for j in range(y0.size):
        rate, target = float(rates[j]), float(targets[j])
        scalar = rk4.integrate_at(
            lambda y: rate * (target - y),
            float(y0[j]),
            times,
            1e-2,
            post=_snap_unit_scalar,
        )
        assert_bitwise_equal(batch[:, j], scalar)
    assert batch[-1, 2] == 1.0 and batch[-1, 4] == 0.0  # snapped onto the boundary


@st.composite
def oracle_cases(draw):
    """A model, a start, irregular increasing times and a step inside RK4's stable range.

    The spans between times are arbitrary floats, so most end in a
    remainder sub-step; step (s + u) <= 2.785 keeps every step stable.
    """
    s, u = draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 5.0))
    nu0 = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    z0 = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8))
    times = list(itertools.accumulate(gaps))
    if draw(st.booleans()):
        times.insert(0, 0.0)
    step = draw(st.floats(1e-2, 1.0))
    if s + u > 0.0:
        step = min(step, 2.785 / (s + u))
    return ModelParams(N=5, s=s, u=u, nu0=nu0), z0, times, step


# A fixed number of examples by default; HYPOTHESIS_PROFILE=wide
# (tests/conftest.py) runs the profile's random search instead.
_ORACLE_SWEEP = {} if settings.get_current_profile_name() == "wide" else {"max_examples": 150}


@settings(deadline=None, **_ORACLE_SWEEP)
@given(case=oracle_cases())
# u = 0 from the fixed point 1, as in test_oracle_stays_in_unit_interval
@example(case=(ModelParams(N=5, s=1.0, u=0.0, nu0=0.5), 1.0, np.linspace(0.0, 5.0, 5001), 1e-3))
@example(case=(ModelParams(N=5, s=1.0, u=0.0, nu0=0.5), 0.999999, np.linspace(0.0, 3.0, 31), 0.1))
# x_plus rounds to 1: the state reaches 1 + 2^-52 and the snap fires 9 times
@example(case=(ModelParams(N=5, s=5.0, u=1e-13, nu0=1.0 - 2.0**-53), 0.5, [0.37, 5.0, 12.5, 40.37], 0.5))
# spans of 0.1 that divide by the step 0.1 to just above 1: REMAINDER_EPS keeps one sub-step
@example(case=(REF, 0.1, np.linspace(0.0, 2.0, 21), 0.1))
@example(case=(ModelParams(N=5, s=0.0, u=0.0, nu0=0.5), 0.4, [0.5, 1.5], 0.3))  # frozen
def test_scalar_oracle_matches_integrate_at(case):
    """The inline scalar loop equals rk4.integrate_at on the drift with the snap, bit for bit."""
    params, z0, times, step = case
    expected = rk4.integrate_at(
        DriftFunctions(params).drift, z0, times, step, post=_snap_unit_scalar
    )
    assert_bitwise_equal(ode_oracle_at(z0, times, step, params), expected)


@pytest.mark.parametrize("target", [-5e-14, -1e-12, 1.0 + 5e-14, 1.0 + 1e-12])
def test_scalar_oracle_snaps_as_integrate_at(monkeypatch, target):
    # No model's drift leaves [0, 1] by more than rounding; the stand-in
    # drift 3 (target - x) settles inside or past a snap band.
    class Relaxation(DriftFunctions):
        def __init__(self, params):
            super().__init__(params)
            self._a, self._b, self._c = 0.0, -3.0, 3.0 * target

    monkeypatch.setattr(deterministic, "DriftFunctions", Relaxation)
    times = [0.0, 0.01, 0.25, 1.0, 20.0]
    expected = rk4.integrate_at(
        Relaxation(REF).drift, 0.5, times, 1e-2, post=_snap_unit_scalar
    )
    assert_bitwise_equal(ode_oracle_at(0.5, times, 1e-2, REF), expected)
    assert expected[-1] == round(target)  # each step's excursion is snapped back


@pytest.mark.parametrize(
    "times, step",
    [
        ([], 1e-3),
        ([0.5, 0.5], 1e-3),
        ([-1.0, 0.5], 1e-3),
        ([0.5, math.nan], 1e-3),
        ([[0.5, 1.0]], 1e-3),
        (["a"], 1e-3),
        ([0.5], 0.0),
        ([0.5], -1.0),
        ([0.5], math.inf),
        ([0.5], math.nan),
        ([0.5], True),
        ([0.5], "0.1"),
    ],
)
def test_scalar_oracle_rejects_as_integrate_at(times, step):
    with pytest.raises(DomainError) as expected:
        rk4.integrate_at(DriftFunctions(REF).drift, 0.1, times, step, post=_snap_unit_scalar)
    with pytest.raises(DomainError) as raised:
        ode_oracle_at(0.1, times, step, REF)
    assert str(raised.value) == str(expected.value)


def test_integrate_at_scalar_state_stays_python_float():
    # A numpy time grid must not turn the step, and through it the state,
    # into numpy scalars: their arithmetic is several times slower.
    seen = []

    def f(y):
        seen.append(type(y))
        return -y

    def post(y):
        seen.append(type(y))
        return y

    rk4.integrate_at(f, 1.0, np.linspace(0.0, 1.0, 5), 0.1, post=post)
    assert len(seen) == 60  # 12 steps: four stages and one post each
    assert set(seen) == {float}


def test_criterion_one_sweeps_the_oracle_once(monkeypatch):
    calls = []

    def oracle_spy(z0, times, step, params):
        calls.append(np.shape(z0))
        return ode_oracle_at(z0, times, step, params)

    monkeypatch.setattr(selfcheck, "ode_oracle_at", oracle_spy)
    result = selfcheck.check_flow_vs_oracle()
    assert calls == [(3 * (selfcheck.PANEL_SIZE + 1),)]
    assert result.passed


class TestLinearModel:
    def test_requires_selection(self):
        with pytest.raises(UnsupportedModelError):
            linear_model_solution(0.5, ModelParams(N=5, s=0.0, u=0.5, nu0=0.5))

    def test_initial_condition(self):
        for params, z0 in [(REF, 0.1)] + parameter_panel(8):
            y0, y1 = linear_model_solution(z0, params)(0.0)
            assert y0 == pytest.approx(z0, abs=1e-12)
            assert y1 == pytest.approx(1.0 - z0, abs=1e-12)

    def test_growth_rates(self):
        linear = linear_model_solution(0.1, REF)
        eq = equilibria(REF)
        assert linear.growth_rates[0] == pytest.approx(1.0 + REF.s * eq.x_stable, rel=1e-14)
        assert linear.growth_rates[1] == pytest.approx(1.0 + REF.s * eq.x_unstable, rel=1e-14)

    def test_strict_positivity_for_interior_starts(self):
        times = np.linspace(0.0, 5.0, 26)
        for params, z0 in parameter_panel(8):
            z0 = min(max(z0, 1e-3), 1.0 - 1e-3)
            y0, y1 = linear_model_solution(z0, params)(times)
            assert np.all(y0 > 0.0)
            assert np.all(y1 > 0.0)

    def test_normalised_coordinate_is_the_flow(self):
        times = np.linspace(0.0, 5.0, 26)
        linear = linear_model_solution(0.1, REF)
        flow = solve_deterministic(0.1, REF)(times)
        y0, y1 = linear(times)
        assert np.max(np.abs(y0 / (y0 + y1) - flow)) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            linear_model_solution(0.1, REF)(-0.5)
