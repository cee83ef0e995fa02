"""Gaussian fluctuation law of the scaled deviation sqrt(N) (Z^N_t - z(t)).

Around the deterministic flow z the rescaled deviation converges to the
centred Gaussian diffusion V with V_0 = 0 and

    dV_t = drift_slope(z(t)) V_t dt + sqrt(diffusion(z(t))) dB_t

(Kurtz 1971, 1978; van Kampen's linear-noise approximation), so its
variance solves Sigma' = 2 drift_slope(z) Sigma + diffusion(z) from
Sigma(0) = 0, and Sigma(t) = drift(z_t)^2 int_0^t diffusion(z_v) /
drift(z_v)^2 dv wherever the drift does not vanish. The flow is
explicit, and so is Sigma. Under selection (s > 0) let
w(t) = C exp(-sqrt(D) t), C = (z0 - x_plus) / (z0 - x_minus). Then
z = (x_plus - x_minus w) / (1 - w), drift(z) = -s Delta^2 w / (1 - w)^2
with Delta = x_plus - x_minus, diffusion(z) (1 - w)^2 is a quadratic
P(w), and with r_0..r_4 the coefficients of P(w) (1 - w)^2, x = sqrt(D) t,

    Sigma(t) = sum_k r_k w(t)^k I_k(x) / (sqrt(D) (1 - w(t))^4),
    I_k(x) = int_1^{e^x} y^(k - 3) dy,

so I_0..I_4 are -expm1(-2x)/2, -expm1(-x), x, expm1(x), expm1(2x)/2.
At w = 0 (a stable start) this is the Ornstein-Uhlenbeck law
sigma_inf^2 (1 - exp(-2 r t)), and every start tends to sigma_inf^2.
Without selection the same sum holds with w(t) = z(t) - nu0, r_k the
Taylor coefficients of diffusion at nu0, no (1 - w)^4 and sqrt(D) = u.

The sum neither overflows nor cancels: r_k is paired with C^k when
|C| <= 1, and w / (1 - w) and 1 / (1 - w), both bounded, are kept when
|C| > 1. Where 1 - w(t) < 0.05 (a start above x_plus in a nearly
critical model) the monomials cancel to about eps / (1 - w)^3 relative,
and a power series in 1 - w is summed instead.

Between grid times V_{t+h} = a V_t + eps, with Var(eps) =
Sigma(t+h) - a^2 Sigma(t) and the exact propagator

    a = exp(int_t^{t+h} drift_slope(z_v) dv) = drift(z_{t+h}) / drift(z_t)
      = exp(-sqrt(D) h) ((1 - w(t)) / (1 - w(t+h)))^2.

Everything here requires u nu0 > 0 and u nu1 > 0
(model.require_mutation), so the noise is bounded away from zero on
[0, 1].

variance_ode steps the flow and the variance equation together by RK4
(compiled, in kernels.c's rk4_variance, where the library can be had),
and selfcheck criterion 4 compares it with the closed form. Its
right-hand side evaluates only the drift, drift-slope and diffusion
polynomials, never the closed-form flow, so an error in the closed-form
z(t) or Sigma(t) shows as a gap between the two sides.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Union

import numpy as np

from . import native, rk4
from .deterministic import (
    DriftFunctions,
    Equilibria,
    Regime,
    check_starts,
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
    _path_states,
    path_generators,
    require_mutation,
)

# Past sqrt(D) t = 2000, C exp(-sqrt(D) t) underflows for every finite C;
# capping sqrt(D) t there keeps it finite for every t.
_X_CAP = 2000.0
# Below this 1 - w(t), Sigma is summed as a power series in 1 - w, whose
# n-th term is at most 0.05^(n - 3) n^2 of the first: below 1e-27 past 24.
_ETA_SERIES = 0.05
_SERIES_TERMS = 24


class VarianceResult(NamedTuple):
    """Sigma(t) by the closed form.

    used_fallback is always False: the closed form holds at every start
    and time. The field stays for callers that read it.
    """

    value: float
    used_fallback: bool


def variance_ode(
    z0: Union[float, np.ndarray],
    tau_end: float,
    step: float,
    params: Union[ModelParams, Sequence[ModelParams]],
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 solution of the variance equation from Sigma(0) = 0.

    Steps z' = drift(z) / r, Sigma' = (2 drift_slope(z) Sigma +
    diffusion(z)) / r from (z0, 0) in relaxation time tau = r t, r the
    relaxation rate, over the nodes of model.time_grid(tau_end, step),
    and returns (taus, variances) with variances[i] ~ Sigma(taus[i] / r);
    a wrong r would only rescale time. z0 and params take ode_oracle_at's
    float-or-panel form; a panel gives one column per row, equal to that
    row's own call bit for bit. It runs in kernels.c's rk4_variance, on
    the coefficients of DriftFunctions(params), and equals rk4.integrate
    on the right-hand side below bit for bit, which runs where the
    library cannot be had.
    """
    z0 = check_starts(z0, params)
    models = params if np.ndim(z0) else [params]
    for model in models:
        require_mutation(model)
    rates = [equilibria(model).relaxation_rate for model in models]
    rate = np.array(rates) if np.ndim(z0) else rates[0]
    funcs = DriftFunctions(params)
    taus = rk4.nodes(tau_end, step)
    coefficients = (funcs._a, funcs._b, funcs._c, funcs._ga, funcs._gb, funcs._gc, rate)
    swept = native.rk4_sweep("rk4_variance", coefficients, z0, taus, float(step))
    if swept is not None:
        return taus, swept

    def rhs(y: np.ndarray) -> np.ndarray:
        z, sigma2 = y
        slope, noise = funcs.drift_slope(z), funcs.diffusion(z)
        return np.array([funcs.drift(z) / rate, (2.0 * slope * sigma2 + noise) / rate])

    taus, values = rk4.integrate(rhs, np.array([z0, np.zeros_like(z0)]), tau_end, step)
    return taus, values[:, 1]


def variance_closed_form(z0: float, t: float, params: ModelParams) -> VarianceResult:
    """Sigma(t) from the start z0, by the elementary closed form."""
    law = FluctuationLaw(z0, params)
    return VarianceResult(law.variance(t), False)


def _stable_noise(params: ModelParams, eq: Equilibria) -> float:
    """diffusion(x_stable), which keeps its digits where x_plus rounds to 1.

    Under selection it is 2 x_plus (1 - x_plus + u nu1), with 1 - x_plus =
    u nu1 / (s (1 - x_minus)) from drift(1) = -u nu1.
    """
    if eq.regime is Regime.MUTATION_ONLY:
        return DriftFunctions(params).diffusion(eq.x_stable)
    down = params.u * params.nu1
    return 2.0 * eq.x_stable * (down / (params.s * (1.0 - eq.x_unstable)) + down)


def limit_variance(params: ModelParams) -> float:
    """Stationary variance diffusion(x_stable) / (2 relaxation_rate).

    Raises:
        UnsupportedModelError: for u = 0, and where the quotient
            overflows: s = 0 with a subnormal u makes the rate u too
            small to divide by.
    """
    require_mutation(params)
    eq = equilibria(params)
    value = _stable_noise(params, eq) / (2.0 * eq.relaxation_rate)
    if not math.isfinite(value):
        raise UnsupportedModelError(
            "the stationary variance diffusion(x_stable) / (2 relaxation_rate)"
            f" overflows to {value!r} at s = {params.s!r}, u = {params.u!r}: the"
            f" relaxation rate {eq.relaxation_rate!r} is too small to divide by"
        )
    return value


def _times_coefficients(p0: float, p1: float, p2: float, c: float) -> tuple:
    """Coefficients of (p0 + p1 y + p2 y^2) (1 - c y)^2 in y."""
    return (
        p0,
        p1 - 2.0 * c * p0,
        p2 - 2.0 * c * p1 + c * c * p0,
        c * c * p1 - 2.0 * c * p2,
        c * c * p2,
    )


class FluctuationLaw:
    """Time-indexed Gaussian law of the scaled deviation started at z0.

    The constructor reduces the model and start to the few numbers the
    closed form needs, so every query on a grid costs a fixed number of
    array operations.
    """

    def __init__(self, z0: float, params: ModelParams):
        require_mutation(params)
        self.params = params
        self.solution = solve_deterministic(z0, params)
        self.z0 = self.solution.z0
        eq = self.solution.equilibria
        self.relaxation_rate = eq.relaxation_rate
        # A start at the unstable point stays there. In [0, 1] that takes
        # x_minus = -u nu0 / (s x_plus) rounding to 0, so the noise u nu0
        # at 0 is negligible beside s, and Sigma (all rho_k = 0) and V are
        # taken as 0.
        self._frozen = self.z0 == eq.x_unstable
        # w(0); 1 - w(0); rho_k = r_k scale^k; omega = w(0) / scale, so
        # w(t) / scale = omega exp(-x); power-series weights in 1 - w.
        self._w0, self._eta0, self._rho, self._omega, self._series = 0.0, 1.0, (0.0,) * 5, 1.0, None
        if eq.regime is Regime.MUTATION_ONLY:
            # diffusion(nu0 + w) = 2 nu0 nu1 (1 + u) + (1 - 2 nu0) (2 + u) w - 2 w^2
            nu0, u, offset = params.nu0, params.u, self.z0 - params.nu0
            self._rho = _times_coefficients(
                2.0 * nu0 * params.nu1 * (1.0 + u),
                (1.0 - 2.0 * nu0) * (2.0 + u) * offset,
                -2.0 * offset * offset,
                0.0,
            )
        elif not self._frozen:
            self._selection(params, eq)

    def _selection(self, params: ModelParams, eq: Equilibria) -> None:
        s, u = params.s, params.u
        x_plus, x_minus, rate = eq.x_stable, eq.x_unstable, eq.relaxation_rate
        delta = x_plus - x_minus
        d_minus = self.z0 - x_minus
        w0 = (self.z0 - x_plus) / d_minus
        if not math.isfinite(w0):
            raise UnsupportedModelError(
                f"z0 = {self.z0!r} lies within float rounding of the unstable point"
                f" {x_minus!r}: w(0) = (z0 - x_plus) / (z0 - x_minus) overflows"
            )
        self._w0, self._eta0 = w0, delta / d_minus
        # diffusion = 2 q(., -1) + drift, so with q(z, -1) = z (k - z):
        # P(w) = 2 (x_plus - x_minus w) (k (1 - w) - x_plus + x_minus w) - s Delta^2 w.
        # Its coefficients, times scale^k, are formed without cancellation
        # or overflow: 1 - x_plus comes from drift(1) = -u nu1, and scale
        # is w(0) when |w(0)| <= 1, which keeps them finite as s -> 0.
        k = 1.0 + u * params.nu1
        scale, self._omega = (w0, 1.0) if abs(w0) <= 1.0 else (1.0, w0)
        minus = x_minus * scale
        p0 = _stable_noise(params, eq)
        p1 = -2.0 * k * (x_plus * scale + minus) + 4.0 * x_plus * minus - rate * (delta * scale)
        p2 = 2.0 * minus * ((k - x_minus) * scale)
        self._rho = _times_coefficients(p0, p1, p2, scale)
        if 0.0 < w0 and self._eta0 < _ETA_SERIES:
            # P(1 - eta) = c0 + c1 eta + c2 eta^2, and
            # int eta^(j+2) / (1 - eta)^3 = sum_m binom(m+2, 2) eta^n / n
            # over n = j + m + 3.
            c = (
                -(2.0 + s) * delta * delta,
                delta * (2.0 * k - 4.0 * x_minus + s * delta),
                2.0 * x_minus * (k - x_minus),
            )
            n = np.arange(3, _SERIES_TERMS + 3)
            self._series = sum(cj * (n - j - 1) * (n - j - 2) / 2 for j, cj in enumerate(c)) / n

    def _coordinates(self, ts: np.ndarray) -> tuple:
        """x = sqrt(D) t (capped), exp(-x), -expm1(-x) and 1 - w(t) on a grid."""
        rate = self.relaxation_rate
        x = np.minimum(ts, _X_CAP / rate) * rate
        decay = np.exp(-x)
        rise = -np.expm1(-x)
        w0 = self._w0
        # for w0 > 0, 1 - w0 + w0 (1 - exp(-x)) adds two positive terms
        eta = self._eta0 + w0 * rise if w0 > 0.0 else 1.0 - w0 * decay
        return x, decay, rise, eta

    def variance(self, t: float) -> float:
        t = check_real(t, "t", minimum=0.0)
        return float(self.variance_on_grid([t])[0]) if t > 0.0 else 0.0

    def variance_on_grid(self, times: Sequence[float]) -> np.ndarray:
        """Sigma at the given strictly increasing times (t >= 0)."""
        ts = check_grid(times, "times")
        x, decay, rise, eta = self._coordinates(ts)
        half_rise2 = -0.5 * np.expm1(-2.0 * x)
        near = eta < _ETA_SERIES
        rho0, rho1, rho2, rho3, rho4 = self._rho
        b = 1.0 / np.where(near, 1.0, eta)
        a = self._omega * decay * b  # w(t) / (scale (1 - w(t)))
        ab = a * b
        abw = ab * self._omega
        total = (
            rho0 * b**4 * half_rise2
            + rho1 * a * b**3 * rise
            + rho2 * ab * ab * x
            + rho3 * ab * abw * rise
            + rho4 * abw * abw * half_rise2
        )
        if near.any():
            total[near] = self._series_sum(decay[near], rise[near], eta[near])
        return np.maximum(total, 0.0) / self.relaxation_rate

    def _series_sum(self, decay: np.ndarray, rise: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """sqrt(D) Sigma as w^2 / eta^4 times int_{eta0}^{eta} e^2 P(1 - e) / (1 - e)^3 de.

        Each eta^n - eta0^n is (eta - eta0) eta^(n-1) h, with the
        bounded h = sum_{i<n} (eta0 / eta)^i, so nothing cancels.
        """
        w0 = self._w0
        ratio = self._eta0 / eta
        h = 1.0 + ratio * (1.0 + ratio)
        term = w0 * rise / eta / eta  # (eta - eta0) eta^(n-5) at n = 3
        inner = np.zeros_like(eta)
        for weight in self._series:
            inner += weight * term * h
            term = term * eta
            h = 1.0 + ratio * h
        w = w0 * decay
        return w * w * inner

    def propagators(self, times: Sequence[float]) -> np.ndarray:
        """exp(int drift_slope(z_v) dv) = drift(z_{t+h}) / drift(z_t) over each grid step."""
        ts = check_grid(times, "times")
        rate = self.relaxation_rate
        x_steps = np.minimum(np.diff(ts), _X_CAP / rate) * rate
        if self._frozen:  # drift_slope(x_minus) = +sqrt(D)
            with np.errstate(over="ignore"):
                return np.exp(x_steps)
        _, _, _, eta = self._coordinates(ts)
        ratio = eta[:-1] / eta[1:]
        return np.exp(-x_steps) * ratio * ratio


def sample_fluctuation_paths(
    z0: float,
    t_grid: Sequence[float],
    n_paths: int,
    rng_seed: int,
    params: ModelParams,
) -> np.ndarray:
    """Exact draws of the Gaussian fluctuation process on a time grid.

    The process is Gaussian and Markov, so between consecutive grid
    times it propagates as V_{t+h} = a V_t + eps with the exact
    propagator a = drift(z_{t+h}) / drift(z_t) and Var(eps) =
    Sigma(t+h) - a^2 Sigma(t), both in closed form. Marginals on the
    grid are exact in distribution, not Euler approximations. Path p
    draws from the stream seeded by (rng_seed, p), the generator
    default_rng([rng_seed, p]) builds, so any prefix of paths is
    reproducible independently of n_paths. model._path_states hashes
    all the paths' PCG64 states in one vectorised pass.

    The rows are filled by kernels.c's fluctuation_rows
    (native.fluctuation_rows), which seeds numpy's PCG64 from each
    state, draws with numpy's own normal and runs the recurrence while
    the row is in cache, in contiguous blocks of rows on
    min(n_paths, usable CPUs) threads; row p reads only its stream, so
    the bytes do not depend on the thread count. The benchmark's 4000
    paths of 401 points take about 21 ms on one thread and 12 ms on
    two, against 54 ms in the Python body below (2-vCPU VM, medians of
    9), which runs on this thread where the kernel cannot: numpy's
    generators, then the recurrence column by column.

    Returns an (n_paths, len(t_grid)) matrix; column 0 is identically 0.
    It is the only matrix the sampler allocates: each path's normals are
    drawn into its row and the recurrence overwrites them, so the peak
    memory is about the output's size.
    """
    n_paths = check_int(n_paths, "n_paths", minimum=1)
    rng_seed = check_seed(rng_seed)
    ts = check_grid(t_grid)
    if ts[0] != 0.0:
        raise DomainError(f"t_grid must start at 0, got {ts[0]}")

    law = FluctuationLaw(z0, params)
    paths = np.zeros((n_paths, ts.size))
    n_steps = ts.size - 1
    if n_steps == 0 or law._frozen:
        return paths
    sigma2 = law.variance_on_grid(ts)
    propagate = law.propagators(ts)
    # roundoff can push the shock variance a hair below zero
    shock_sd = np.sqrt(np.maximum(sigma2[1:] - propagate * (propagate * sigma2[:-1]), 0.0))
    if native.fluctuation_rows(_path_states(rng_seed, n_paths), propagate, shock_sd, paths):
        return paths
    # column i + 1 holds the normal of step i until the recurrence reaches it
    for row, rng in zip(paths, path_generators(rng_seed, n_paths)):
        rng.standard_normal(out=row[1:])
    for i in range(n_steps):
        paths[:, i + 1] = propagate[i] * paths[:, i] + shock_sd[i] * paths[:, i + 1]
    return paths
