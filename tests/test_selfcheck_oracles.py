"""Selfcheck criterion 2's quadrature against exact references, and the
compiled RK4 oracles of criteria 1 and 4 against rk4.

The G7/K15 pair is checked on monomials, where both rules are exact up
to their degree, and on criterion 2's own 420 integrals against a
40-digit mpmath.quad of the flow whose equilibria are recomputed in
mpmath from (s, u, nu0). The bounds were fixed before the first run.
"""

import shutil

import mpmath
import numpy as np
import pytest

from conftest import each_kernel_body
from moranlimits import native, rk4
from moranlimits.deterministic import DriftFunctions, _snap_unit, ode_oracle_at, solve_deterministic
from moranlimits.fluctuations import variance_ode
from moranlimits.selfcheck import _flow_rows, _sweep_sets, _variance_rows, cumulative_integrals

FEW_ULPS = 8 * np.finfo(float).eps  # a few ulps of the integrals on [-1, 1], at most 2
CRITERION_2_TIMES = np.linspace(0.0, 5.0, 21)


def one_panel(k: int) -> tuple[float, float]:
    """K15 of x**k on [-1, 1] and the estimate |K15 - G7|."""
    integrals, errors = cumulative_integrals(lambda x: x**k, np.array([-1.0, 1.0]))
    return float(integrals[1]), float(errors[1])


@pytest.mark.parametrize("k", range(23))
def test_kronrod_is_exact_to_degree_22(k):
    exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
    kronrod, _ = one_panel(k)
    assert abs(kronrod - exact) <= FEW_ULPS


@pytest.mark.parametrize("k", range(14))
def test_gauss_is_exact_to_degree_13(k):
    # K15 is exact here as well, so |K15 - G7| is G7's own error
    _, estimate = one_panel(k)
    assert estimate <= FEW_ULPS


def test_estimate_is_the_gauss_error_at_degree_14():
    kronrod, estimate = one_panel(14)
    assert kronrod == pytest.approx(2.0 / 15.0, abs=FEW_ULPS)
    assert estimate > 1e-4  # G7's error on x**14 is about 1.85e-4


def test_constant_integrand_may_return_a_float():
    integrals, errors = cumulative_integrals(lambda t: 0.25, CRITERION_2_TIMES)
    assert integrals == pytest.approx(0.25 * CRITERION_2_TIMES, rel=1e-15, abs=0)
    assert np.all(errors <= FEW_ULPS)


def exact_flow(params, z0):
    """The selection flow at 40 digits, from the parameters themselves."""
    s, u, nu0, z = (mpmath.mpf(v) for v in (params.s, params.u, params.nu0, z0))
    root = mpmath.sqrt((s - u) ** 2 + 4 * s * u * nu0)
    x_plus, x_minus = (s - u + root) / (2 * s), (s - u - root) / (2 * s)
    d_minus, d_plus = z - x_minus, z - x_plus

    def flow(t):
        decay = mpmath.exp(-root * t)
        return (x_plus * d_minus - x_minus * d_plus * decay) / (d_minus - d_plus * decay)

    return flow


def test_criterion_2_integrals_match_mpmath():
    worst_rel = worst_estimate = 0.0
    compared = 0
    with mpmath.workdps(40):
        for params, z0 in _sweep_sets():
            integrals, errors = cumulative_integrals(
                solve_deterministic(z0, params).flow(), CRITERION_2_TIMES
            )
            flow = exact_flow(params, z0)
            exact = mpmath.mpf(0)
            for j in range(1, CRITERION_2_TIMES.size):
                exact += mpmath.quad(flow, [CRITERION_2_TIMES[j - 1], CRITERION_2_TIMES[j]])
                worst_rel = max(worst_rel, float(abs(integrals[j] - exact) / exact))
                compared += 1
            worst_estimate = max(worst_estimate, float(errors[-1]))
    assert compared == 420
    assert worst_rel < 1e-15
    assert worst_estimate < 1e-13


def bitwise_equal(actual, expected) -> bool:
    return np.array_equal(actual, expected, equal_nan=True) and np.array_equal(
        np.signbit(actual), np.signbit(expected)
    )


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
def test_compiled_sweeps_equal_rk4_on_criteria_1_and_4():
    """Criterion 1's 63 rows to t = 10 and criterion 4's 42 rows to tau = 5, at
    step 1e-3 as the criteria run them: the compiled flow sweep equals
    rk4.integrate_at, and the compiled variance sweep variance_ode's Python
    body, rk4.integrate on its right-hand side."""
    assert native.library() is not None

    rows = _flow_rows()
    z0s, models = np.array([z0 for _, z0 in rows]), [params for params, _ in rows]
    times = np.linspace(0.0, 10.0, 1001)
    expected = rk4.integrate_at(DriftFunctions(models).drift, z0s, times, 1e-3, post=_snap_unit)
    assert bitwise_equal(ode_oracle_at(z0s, times, 1e-3, models), expected)

    rows = _variance_rows()
    z0s, models = np.array([z0 for _, z0 in rows]), [params for params, _ in rows]
    (taus, compiled), (python_taus, python) = [
        variance_ode(z0s, 5.0, 1e-3, models) for _ in each_kernel_body()
    ]
    assert compiled.shape == (5001, 42)
    assert bitwise_equal(taus, python_taus) and bitwise_equal(compiled, python)
