"""Deterministic large-population limit of the type-0 proportion.

As N grows, the proportion process Z^N converges to the flow of

    z'(t) = drift(z(t)),   drift(x) = s x (1 - x) + u nu0 (1 - x) - u nu1 x,

a Riccati equation solved in closed form below. For s > 0 the drift
has roots

    x_minus < 0 <= x_plus <= 1,   x_{+/-} = (s - u +/- sqrt(disc)) / (2 s),

with disc = (s - u)^2 + 4 s u nu0; x_plus attracts every start in
[0, 1] at exponential rate sqrt(disc). For s = 0, u > 0 the flow
relaxes to nu0 at rate u. For s = u = 0 every point is a fixed point.

The same flow arises from a linear two-type growth system: y' = y A
with per-capita birth rates (1 + s, 1) and mutation exchange, whose
normalised first coordinate reproduces z(t) and whose total mass obeys
y0 + y1 = exp(t + s * int_0^t z).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import native, rk4
from .model import (
    DomainError,
    ModelParams,
    UnsupportedModelError,
    check_grid,
    check_real,
    check_times,
)

ArrayLike = Union[float, np.ndarray]

# Width of the band around 0 and 1 treated as representation rounding
# of a boundary value. Excursions beyond it are real and left visible.
_UNIT_SNAP = 1e-13


class Regime(enum.Enum):
    """Qualitative behaviour of the limiting flow."""

    NEUTRAL = "NEUTRAL"              # s = u = 0: frozen
    MUTATION_ONLY = "MUTATION_ONLY"  # s = 0, u > 0: exponential relaxation to nu0
    SELECTION = "SELECTION"          # s > 0: rational-exponential relaxation to x_plus


def classify_regime(params: ModelParams) -> Regime:
    if params.s > 0.0:
        return Regime.SELECTION
    if params.u > 0.0:
        return Regime.MUTATION_ONLY
    return Regime.NEUTRAL


class DriftFunctions:
    """Drift, drift slope, and jump-activity polynomials of one model.

    diffusion(x) is the total per-capita jump activity q(x, +1) +
    q(x, -1), the sum of the pair kernel_q(x, params): the finite
    chain's total event rate at proportion p equals N * diffusion(p),
    and the same function is the noise coefficient of the Gaussian
    fluctuation law. For u > 0 it is bounded below on [0, 1] by
    u * min(nu0, nu1) > 0.

    Built from a sequence of models, it holds one coefficient row per
    model, and the polynomials take an array x with one entry per row.
    Each entry equals the single-model value bit for bit, since the
    same elementwise operations run in the same order.
    """

    def __init__(self, params: Union[ModelParams, Sequence[ModelParams]]):
        if isinstance(params, ModelParams):
            s, u, nu0 = params.s, params.u, params.nu0
        else:
            s, u, nu0 = np.array([(p.s, p.u, p.nu0) for p in params]).T
        nu1 = 1.0 - nu0
        # drift(x) = -s x^2 + (s - u) x + u nu0
        self._a = -s
        self._b = s - u
        self._c = u * nu0
        # diffusion(x) = -(2 + s) x^2 + (2 + s - u (nu0 - nu1)) x + u nu0
        self._ga = -(2.0 + s)
        self._gb = 2.0 + s - u * (nu0 - nu1)
        self._gc = u * nu0

    def drift(self, x: ArrayLike) -> ArrayLike:
        return (self._a * x + self._b) * x + self._c

    def drift_slope(self, x: ArrayLike) -> ArrayLike:
        return 2.0 * self._a * x + self._b

    def diffusion(self, x: ArrayLike) -> ArrayLike:
        return (self._ga * x + self._gb) * x + self._gc


@dataclass(frozen=True)
class Equilibria:
    """Fixed points of the limiting flow and their linear stability.

    x_stable attracts all of [0, 1]; slope_stable is the drift slope
    there and is always negative. x_unstable (present only under
    selection) lies at or below 0 and repels; its slope is positive.
    relaxation_rate = -slope_stable is the exponential approach rate,
    equal to sqrt(discriminant) when s > 0 and to u when s = 0.
    """

    regime: Regime
    x_stable: float
    x_unstable: Optional[float]
    slope_stable: float
    slope_unstable: Optional[float]
    discriminant: float

    @property
    def relaxation_rate(self) -> float:
        return -self.slope_stable


def _drift_roots(params: ModelParams, root: float) -> tuple[float, float]:
    """Roots (x_minus, x_plus) of the drift for s > 0, cancellation-free.

    The drift vanishes where s x^2 - (s - u) x - u nu0 = 0, and `root`
    is the square root of its discriminant. The root on the same side
    as the sign of (s - u) is computed from the quadratic formula (no
    cancellation there) and the other from the root product -u nu0 / s,
    which stays accurate when the subtraction would cancel.
    """
    s, u, nu0 = params.s, params.u, params.nu0
    if s - u >= 0.0:
        x_plus = (s - u + root) / (2.0 * s)
        x_minus = -(u * nu0) / (s * x_plus)
    else:
        x_minus = (s - u - root) / (2.0 * s)
        x_plus = -(u * nu0) / (s * x_minus)
    return x_minus, x_plus


def equilibria(params: ModelParams) -> Equilibria:
    """Classify the flow and report its fixed points.

    Raises:
        UnsupportedModelError: for s = u = 0, where every point is a
            fixed point and no isolated equilibrium exists; and for s > 0
            when the discriminant is below the smallest normal float,
            where it has lost its digits (s = u = 1e-200 rounds it to 0),
            or when u / s is so large that x_minus overflows.
    """
    regime = classify_regime(params)
    if regime is Regime.NEUTRAL:
        raise UnsupportedModelError(
            "s = u = 0 freezes the flow; no isolated equilibrium exists"
        )
    if regime is Regime.MUTATION_ONLY:
        return Equilibria(
            regime=regime,
            x_stable=params.nu0,
            x_unstable=None,
            slope_stable=-params.u,
            slope_unstable=None,
            discriminant=params.u,
        )
    s, u = params.s, params.u
    disc = (s - u) ** 2 + 4.0 * s * u * params.nu0
    if disc < sys.float_info.min:
        raise UnsupportedModelError(
            f"the drift discriminant D = (s - u)^2 + 4 s u nu0 = {disc!r} underflows"
            f" below {sys.float_info.min!r} at s = {s!r}, u = {u!r};"
            " the equilibria and the relaxation rate are not resolved"
        )
    root = math.sqrt(disc)
    x_minus, x_plus = _drift_roots(params, root)
    if not math.isfinite(x_minus):
        raise UnsupportedModelError(
            f"the unstable root x_minus = (s - u - sqrt(D)) / (2 s) overflows to"
            f" {x_minus!r} at s = {s!r}, u = {u!r}; the equilibria are not resolved"
        )
    return Equilibria(
        regime=regime,
        x_stable=x_plus,
        x_unstable=x_minus,
        slope_stable=-root,
        slope_unstable=root,
        discriminant=disc,
    )


def _snap_unit_scalar(z: float) -> float:
    """z with a rounding excursion past 0 or 1 pinned back to the boundary.

    kernels.c's rk4_flow writes these two comparisons inline.
    """
    if -_UNIT_SNAP < z < 0.0:
        return 0.0
    if 1.0 < z < 1.0 + _UNIT_SNAP:
        return 1.0
    return z


def _snap_unit(z: np.ndarray) -> np.ndarray:
    z = np.where((z > -_UNIT_SNAP) & (z < 0.0), 0.0, z)
    z = np.where((z < 1.0 + _UNIT_SNAP) & (z > 1.0), 1.0, z)
    return z


def _validate_z0(z0: float) -> float:
    return check_real(z0, "z0", 0.0, 1.0)


class DeterministicSolution:
    """Closed-form flow t -> z(z0, t) of the limiting proportion ODE.

    Callable on scalars or arrays of non-negative times. Satisfies the
    flow property z(z(z0, t), r) = z(z0, t + r) and stays inside [0, 1].
    """

    def __init__(self, z0: float, params: ModelParams):
        self.z0 = _validate_z0(z0)
        self.params = params
        self.regime = classify_regime(params)
        self.equilibria: Optional[Equilibria] = (
            None if self.regime is Regime.NEUTRAL else equilibria(params)
        )

    def __call__(self, t: ArrayLike) -> ArrayLike:
        arr, scalar = check_times(t, "t")
        # broadcast: where the flow is constant the closure returns z0 itself
        values = _snap_unit(np.broadcast_to(self.flow()(arr), arr.shape))
        return float(values[0]) if scalar else values

    def flow(self) -> Callable[[ArrayLike], ArrayLike]:
        """The closed-form flow t -> z(z0, t), unchecked and unsnapped.

        Where the flow is constant the closure returns z0 itself. Raises
        UnsupportedModelError under selection when z0 - x_minus and
        z0 - x_plus round alike, where the closed form divides by 0.
        """
        z0 = self.z0
        if self.regime is Regime.NEUTRAL:
            return lambda t: z0
        if self.regime is Regime.MUTATION_ONLY:
            nu0, u = self.params.nu0, self.params.u
            return lambda t: nu0 + (z0 - nu0) * np.exp(-u * t)
        eq = self.equilibria
        x_plus, x_minus, rate = eq.x_stable, eq.x_unstable, eq.relaxation_rate
        if z0 == x_plus or z0 == x_minus:
            return lambda t: z0
        d_minus = z0 - x_minus
        d_plus = z0 - x_plus
        if d_minus == d_plus:
            params = self.params
            raise UnsupportedModelError(
                f"the roots x_minus = {x_minus!r} and x_plus = {x_plus!r} at s = {params.s!r},"
                f" u = {params.u!r}, nu0 = {params.nu0!r} are closer than z0 = {z0!r}"
                " resolves, so the closed-form flow divides by 0"
            )

        def selection_flow(t: ArrayLike) -> ArrayLike:
            decay = np.exp(-rate * t)
            return (x_plus * d_minus - x_minus * d_plus * decay) / (d_minus - d_plus * decay)

        return selection_flow


def solve_deterministic(z0: float, params: ModelParams) -> DeterministicSolution:
    """Closed-form solution of the limiting ODE started at z0 in [0, 1]."""
    return DeterministicSolution(z0, params)


def check_starts(z0: ArrayLike, params: Union[ModelParams, Sequence[ModelParams]]) -> ArrayLike:
    """z0 checked as one float start, or as a non-empty 1-d array of starts.

    A float takes one ModelParams, an array a sequence with one per start.
    """
    if np.ndim(z0) == 0:
        if not isinstance(params, ModelParams):
            raise DomainError("a single start z0 takes a single ModelParams")
        return _validate_z0(z0)
    if np.ndim(z0) != 1 or len(z0) == 0:
        raise DomainError(f"z0 must be a float or a non-empty 1-d array, got {z0!r}")
    if isinstance(params, ModelParams) or len(params) != len(z0):
        raise DomainError("an array of starts takes one ModelParams per start")
    return np.array([_validate_z0(z) for z in z0])


def ode_oracle_at(
    z0: ArrayLike,
    times: ArrayLike,
    step: float,
    params: Union[ModelParams, Sequence[ModelParams]],
) -> np.ndarray:
    """RK4 state at the requested times, sub-stepping at most `step`.

    A float z0 takes one ModelParams and gives shape (len(times),). A
    1-d array of m starts takes a sequence of m ModelParams, one per
    start, and gives shape (len(times), m), column j equal to
    ode_oracle_at(float(z0[j]), times, step, params[j]) bit for bit.
    Either equals rk4.integrate_at on the drift with the unit snap bit
    for bit. It runs in kernels.c's rk4_flow, on the coefficients of
    DriftFunctions(params), and in rk4.integrate_at itself where the
    library cannot be had: on Python floats for a float start, and in
    one lockstep sweep for an array.
    """
    z0 = check_starts(z0, params)
    ts = check_grid(times, "times")
    max_step = check_real(step, "max_step", 0.0, exclusive=True)
    drift = DriftFunctions(params)
    swept = native.rk4_sweep(
        "rk4_flow", (drift._a, drift._b, drift._c), z0, ts, max_step,
        -_UNIT_SNAP, 1.0 + _UNIT_SNAP,
    )
    if swept is not None:
        return swept
    post = _snap_unit if np.ndim(z0) else _snap_unit_scalar
    return rk4.integrate_at(drift.drift, z0, ts, max_step, post=post)


class LinearModelSolution:
    """Absolute type frequencies (y0, y1) of the linear growth system.

    The two-type branching description assigns per-capita birth rates
    1 + s and 1 and mutation exchange at rates u nu1, u nu0; its mean
    y(t) = (y0, y1) solves y' = y A started from (z0, 1 - z0). Both
    coordinates grow like exp((1 + s x_plus) t) and the normalised
    first coordinate y0 / (y0 + y1) equals the proportion flow z(z0, t).
    """

    def __init__(self, z0: float, params: ModelParams):
        if params.s <= 0.0:
            raise UnsupportedModelError(
                "the linear two-type reduction requires s > 0"
            )
        solution = DeterministicSolution(z0, params)
        self.z0 = solution.z0
        self.params = params
        eq = self.equilibria = solution.equilibria
        self.growth_rates = (1.0 + params.s * eq.x_stable, 1.0 + params.s * eq.x_unstable)

    def __call__(self, t: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        arr, scalar = check_times(t, "t")
        eq = self.equilibria
        x_plus, x_minus = eq.x_stable, eq.x_unstable
        d_minus = self.z0 - x_minus
        d_plus = self.z0 - x_plus
        decay = np.exp(-eq.relaxation_rate * arr)  # relaxation_rate = s * (x_plus - x_minus)
        scale = np.exp(self.growth_rates[0] * arr) / (x_plus - x_minus)
        y0 = scale * (x_plus * d_minus - x_minus * d_plus * decay)
        y1 = scale * ((1.0 - x_plus) * d_minus - (1.0 - x_minus) * d_plus * decay)
        if scalar:
            return float(y0[0]), float(y1[0])
        return y0, y1


def linear_model_solution(z0: float, params: ModelParams) -> LinearModelSolution:
    """Evaluator t -> (y0, y1) for the linear two-type system.

    Raises:
        UnsupportedModelError: when s = 0; the reduction needs a
            selection gap.
    """
    return LinearModelSolution(z0, params)
