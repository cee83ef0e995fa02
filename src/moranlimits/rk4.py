"""Classical fixed-step fourth-order Runge-Kutta for autonomous y' = f(y).

`integrate` records every node of model.time_grid from t = 0, and
`integrate_at` the requested times, sub-stepping between them. Both run
one loop, with the four stages inline and one call to f each. Its times,
steps and a float state stay Python floats rather than numpy scalars,
which round the same IEEE doubles the same way but cost several times
as much per operation in a scalar loop.

The package's oracles run this loop compiled: kernels.c's rk4_flow and
rk4_variance (native.py) step the flow oracle
(deterministic.ode_oracle_at) and the variance oracle
(fluctuations.variance_ode) with _march's sub-step rule, stage
association and snap, and equal integrate_at and integrate on those
systems bit for bit. Where the library cannot be had, the oracles call
integrate_at and integrate here: this loop is their one Python body.

The state may also be a float array of independent rows advanced in
lockstep on one shared time grid. `f` and `post` then take and return
arrays of that shape, and each row of the result equals the integration
of that row alone bit for bit, provided `f` and `post` act elementwise
with the same operations in the same order as their single-row forms:
numpy's elementwise + - * / round exactly as Python floats do.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .model import REMAINDER_EPS, DomainError, check_grid, check_real, time_grid


def _march(f: Callable, y0, ts: np.ndarray, max_step: float, post) -> np.ndarray:
    """State at each time of ts from y0 at t = 0, no step longer than max_step."""
    out = np.empty(ts.shape + np.shape(y0))
    y = y0
    t_prev = 0.0
    for j, t_next in enumerate(ts.tolist()):
        span = t_next - t_prev
        if span > 0.0:
            n_sub = max(1, math.ceil(span / max_step - REMAINDER_EPS))
            h = span / n_sub
            for _ in range(n_sub):
                k1 = f(y)
                k2 = f(y + 0.5 * h * k1)
                k3 = f(y + 0.5 * h * k2)
                k4 = f(y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if post is not None:
                    y = post(y)
        out[j] = y
        t_prev = t_next
    return out


def nodes(t_end: float, step: float) -> np.ndarray:
    """integrate's nodes model.time_grid(t_end, step), with its checks of t_end and step."""
    step = check_real(step, "step", 0.0, exclusive=True)
    t_end = check_real(t_end, "t_end", minimum=0.0)
    if t_end > 0.0 and step > t_end:
        raise DomainError(f"step {step} exceeds integration horizon {t_end}")
    return time_grid(t_end, step)


def integrate(
    f: Callable[[float], float], y0: float, t_end: float, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate from t = 0 to t_end, recording every node including 0.

    The nodes are model.time_grid(t_end, step): a shorter final step
    covers any remainder when step does not divide t_end. Returns the
    nodes and the states, of shape (nodes,) + shape(y0).
    """
    times = nodes(t_end, step)
    return times, _march(f, y0, times, float(step), None)


def integrate_at(
    f: Callable[[float], float],
    y0: float,
    times: Sequence[float],
    max_step: float,
    post: Optional[Callable[[float], float]] = None,
) -> np.ndarray:
    """State at each requested time, sub-stepping so no step exceeds max_step.

    `times` must be non-negative and strictly increasing; integration
    starts at t = 0 with state y0, a float or an array of rows. The
    result has shape (len(times),) + shape(y0). `post` is applied to the
    state after each step (used by callers to pin rounding excursions
    back onto an invariant set).
    """
    ts = check_grid(times, "times")
    check_real(max_step, "max_step", 0.0, exclusive=True)
    return _march(f, y0, ts, max_step, post)
