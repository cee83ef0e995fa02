"""Gaussian fluctuation law of the scaled deviation sqrt(N) (Z^N_t - z(t)).

Around the deterministic flow z the rescaled deviation converges to the
centred Gaussian diffusion V with V_0 = 0 and

    dV_t = drift_slope(z(t)) V_t dt + sqrt(diffusion(z(t))) dB_t,

so its variance solves the linear equation

    Sigma'(t) = 2 drift_slope(z(t)) Sigma(t) + diffusion(z(t)),  Sigma(0) = 0.

Away from the stable point the solution also has the path-integral form

    Sigma(t) = drift(z(t))^2 * int_{z0}^{z(t)} diffusion(y) / drift(y)^3 dy,

which degenerates as z(t) approaches the stable point (the integrand
blows up while the prefactor vanishes); evaluation falls back to the
variance equation inside a small band around it. Started at the stable
point the law is an Ornstein-Uhlenbeck bridge from zero variance,

    Sigma(t) = sigma_inf^2 (1 - exp(-2 r t)),
    sigma_inf^2 = diffusion(x_stable) / (2 r),

with r the relaxation rate of the flow. All operations here require
u > 0 so the noise coefficient is bounded away from zero on [0, 1].
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np
from scipy.integrate import quad

from . import rk4
from .deterministic import (
    DeterministicSolution,
    DriftFunctions,
    equilibria,
    solve_deterministic,
)
from .model import (
    DomainError,
    ModelParams,
    UnsupportedModelError,
    check_grid,
    check_int,
    check_real,
    check_seed,
)

ArrayLike = Union[float, np.ndarray]

# |z(t) - x_stable| at or below this switches the closed form over to the
# variance equation; the path-integral form is ill-conditioned there.
FALLBACK_BAND = 1e-4
# Default RK4 step for the variance equation.
DEFAULT_ODE_STEP = 1e-3
# Quadrature tolerances shared by every quad call in this module.
QUAD_EPSABS = 1e-10
QUAD_EPSREL = 1e-8


class VarianceResult(NamedTuple):
    value: float
    used_fallback: bool


def _require_noise(params: ModelParams) -> None:
    if params.u <= 0.0:
        raise UnsupportedModelError(
            "fluctuation formulas require u > 0 so the noise floor is positive"
        )


def _snap_nonneg(value: float) -> float:
    return 0.0 if -1e-15 < value < 0.0 else value


def _variance_rhs(sol: DeterministicSolution) -> Callable[[float, float], float]:
    funcs = DriftFunctions(sol.params)
    flow = sol.flow(math.exp)

    def rhs(t: float, sigma2: float) -> float:
        z = flow(t)
        return 2.0 * funcs.drift_slope(z) * sigma2 + funcs.diffusion(z)

    return rhs


def variance_ode(
    z0: float, t_end: float, step: float, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 solution of the variance equation from Sigma(0) = 0.

    Returns (times, variances) at every node from 0 to t_end. This is
    the uniformly stable evaluator and the oracle the closed form is
    checked against.
    """
    _require_noise(params)
    sol = solve_deterministic(z0, params)
    return rk4.integrate(_variance_rhs(sol), 0.0, t_end, step, post=_snap_nonneg)


def variance_closed_form(z0: float, t: float, params: ModelParams) -> VarianceResult:
    """Sigma(t) by the path-integral closed form, with automatic fallback.

    Inside the band |z(t) - x_stable| <= 1e-4 the closed form loses all
    precision, so the variance equation is integrated instead and the
    returned flag records that the fallback engaged.
    """
    _require_noise(params)
    sol = solve_deterministic(z0, params)
    t = check_real(t, "t", minimum=0.0)
    eq = sol.equilibria
    x_stable, rate = eq.x_stable, eq.relaxation_rate
    funcs = DriftFunctions(params)
    if z0 == x_stable:
        return VarianceResult(limit_variance(params) * (1.0 - math.exp(-2.0 * rate * t)), False)
    z_t = sol(t)
    if abs(z_t - x_stable) <= FALLBACK_BAND:
        if t == 0.0:
            return VarianceResult(0.0, True)
        step = min(DEFAULT_ODE_STEP, t)
        _, values = rk4.integrate(
            _variance_rhs(sol), 0.0, t, step, post=_snap_nonneg
        )
        return VarianceResult(float(values[-1]), True)
    if t == 0.0:
        return VarianceResult(0.0, False)

    def integrand(y: float) -> float:
        drift = funcs.drift(y)
        return funcs.diffusion(y) / (drift * drift * drift)

    integral = quad(
        integrand,
        sol.z0,
        z_t,
        epsabs=QUAD_EPSABS,
        epsrel=QUAD_EPSREL,
        limit=200,
        full_output=1,
    )[0]
    prefactor = funcs.drift(z_t)
    return VarianceResult(prefactor * prefactor * integral, False)


def characteristic_fn(
    z0: float, t: float, theta: float, params: ModelParams
) -> complex:
    """Characteristic function E exp(i theta V_t) of the fluctuation law.

    The law is centred Gaussian, so the value is the real number
    exp(-theta^2 Sigma(t) / 2) embedded in the complex plane.
    """
    theta = check_real(theta, "theta")
    sigma2 = variance_closed_form(z0, t, params).value
    return complex(math.exp(-0.5 * theta * theta * sigma2), 0.0)


def limit_variance(params: ModelParams) -> float:
    """Stationary variance diffusion(x_stable) / (2 relaxation_rate)."""
    _require_noise(params)
    eq = equilibria(params)
    return DriftFunctions(params).diffusion(eq.x_stable) / (2.0 * eq.relaxation_rate)


class FluctuationLaw:
    """Time-indexed Gaussian law of the scaled deviation started at z0.

    Bundles the deterministic flow and the variance evaluators behind
    one object so repeated queries share the precomputed equilibrium
    data.
    """

    def __init__(self, z0: float, params: ModelParams, ode_step: float = DEFAULT_ODE_STEP):
        _require_noise(params)
        ode_step = check_real(ode_step, "ode_step", 0.0, exclusive=True)
        self.params = params
        self.solution = solve_deterministic(z0, params)
        self.z0 = self.solution.z0
        self._ode_step = ode_step
        eq = self.solution.equilibria
        self.x_stable = eq.x_stable
        self.relaxation_rate = eq.relaxation_rate
        self._at_stable = self.z0 == self.x_stable
        self.limit_variance = limit_variance(params)

    def variance(self, t: float) -> float:
        t = check_real(t, "t", minimum=0.0)
        return float(self.variance_on_grid([t])[0]) if t > 0.0 else 0.0

    def variance_on_grid(self, times: Sequence[float]) -> np.ndarray:
        """Sigma at the given strictly increasing times (t >= 0)."""
        ts = check_grid(times, "times")
        if self._at_stable:
            return self.limit_variance * (
                1.0 - np.exp(-2.0 * self.relaxation_rate * ts)
            )
        return rk4.integrate_at(
            _variance_rhs(self.solution), 0.0, ts, self._ode_step, post=_snap_nonneg
        )


def sample_fluctuation_paths(
    z0: float,
    t_grid: Sequence[float],
    n_paths: int,
    rng_seed: int,
    params: ModelParams,
) -> np.ndarray:
    """Exact draws of the Gaussian fluctuation process on a time grid.

    The process is Gaussian and Markov, so between consecutive grid
    times it propagates as V_{t+h} = a V_t + eps with

        a = exp( int_t^{t+h} drift_slope(z(v)) dv ),
        Var(eps) = Sigma(t+h) - a^2 Sigma(t),

    both evaluated by quadrature and the variance equation. Marginals
    on the grid are exact in distribution, not Euler approximations.
    Path p draws from the stream seeded by (rng_seed, p), so any prefix
    of paths is reproducible independently of n_paths.

    Returns an (n_paths, len(t_grid)) matrix; column 0 is identically 0.
    """
    n_paths = check_int(n_paths, "n_paths", minimum=1)
    rng_seed = check_seed(rng_seed)
    ts = check_grid(t_grid)
    if ts[0] != 0.0:
        raise DomainError(f"t_grid must start at 0, got {ts[0]}")

    law = FluctuationLaw(z0, params)
    sigma2 = law.variance_on_grid(ts)
    flow = law.solution.flow(math.exp)
    slope = DriftFunctions(params).drift_slope

    n_steps = ts.size - 1
    propagate = np.empty(n_steps)
    shock_sd = np.empty(n_steps)
    for i in range(n_steps):
        exponent = quad(
            lambda v: slope(flow(v)),
            ts[i],
            ts[i + 1],
            epsabs=QUAD_EPSABS,
            epsrel=QUAD_EPSREL,
            limit=200,
            full_output=1,
        )[0]
        propagate[i] = math.exp(exponent)
        # roundoff can push the shock variance a hair below zero
        shock_sd[i] = math.sqrt(
            max(sigma2[i + 1] - propagate[i] ** 2 * sigma2[i], 0.0)
        )

    paths = np.zeros((n_paths, ts.size))
    if n_steps == 0:
        return paths
    shocks = np.empty((n_paths, n_steps))
    for p in range(n_paths):
        shocks[p] = np.random.default_rng([rng_seed, p]).standard_normal(n_steps)
    for i in range(n_steps):
        paths[:, i + 1] = propagate[i] * paths[:, i] + shock_sd[i] * shocks[:, i]
    return paths
