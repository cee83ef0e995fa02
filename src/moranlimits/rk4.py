"""Classical fixed-step fourth-order Runge-Kutta.

`integrate` solves y' = f(t, y) for a float state. `integrate_at` solves
the autonomous y' = f(y), which is all the flow oracle needs, and runs
the four stages inline: one call to f per stage, and no stage times to
add up. Its times, steps and a float state stay Python floats rather
than numpy scalars, which round the same IEEE doubles the same way but
cost several times as much per operation in a scalar loop.

For `integrate_at` the state may also be a 1-d float array of
independent rows advanced in lockstep on one shared time grid. `f` and
`post` then take and return arrays of that shape, and each row of the
result equals the scalar integration of that row bit for bit, provided
`f` and `post` act elementwise with the same operations in the same
order as their scalar forms: numpy's elementwise + - * / round exactly
as Python floats do.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .model import DomainError, check_grid, check_real

# Remainder intervals shorter than this fraction of the step are rounding
# debris from the grid construction, not a real final step.
_REMAINDER_EPS = 1e-9


def rk4_step(f: Callable[[float, float], float], t: float, y: float, h: float) -> float:
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(
    f: Callable[[float, float], float],
    y0: float,
    t_end: float,
    step: float,
    post: Optional[Callable[[float], float]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate from t = 0 to t_end, recording every node including 0.

    A shorter final step covers any remainder when step does not divide
    t_end. `post` is applied to the state after each step (used by
    callers to pin rounding excursions back onto an invariant set).
    """
    step = check_real(step, "step", 0.0, exclusive=True)
    t_end = check_real(t_end, "t_end", minimum=0.0)
    if t_end > 0.0 and step > t_end:
        raise DomainError(f"step {step} exceeds integration horizon {t_end}")

    n_full = int(t_end / step)
    remainder = t_end - n_full * step
    if remainder <= _REMAINDER_EPS * step:
        remainder = 0.0

    times = [0.0]
    values = [y0]
    y = y0
    for i in range(n_full):
        y = rk4_step(f, i * step, y, step)
        if post is not None:
            y = post(y)
        times.append((i + 1) * step)
        values.append(y)
    if remainder > 0.0:
        y = rk4_step(f, n_full * step, y, remainder)
        if post is not None:
            y = post(y)
        times.append(t_end)
        values.append(y)
    else:
        times[-1] = t_end if n_full else 0.0
    return np.asarray(times), np.asarray(values)


def integrate_at(
    f: Callable[[float], float],
    y0: float,
    times: Sequence[float],
    max_step: float,
    post: Optional[Callable[[float], float]] = None,
) -> np.ndarray:
    """State at each requested time, sub-stepping so no step exceeds max_step.

    Integrates the autonomous y' = f(y). `times` must be non-negative and
    strictly increasing; integration starts at t = 0 with state y0, a
    float or a 1-d array of rows. The result has shape
    (len(times),) + shape(y0). Each step rounds exactly as `rk4_step`.
    """
    ts = check_grid(times, "times")
    check_real(max_step, "max_step", 0.0, exclusive=True)

    out = np.empty(ts.shape + np.shape(y0))
    y = y0
    t_prev = 0.0
    for j, t_next in enumerate(ts.tolist()):
        span = t_next - t_prev
        if span > 0.0:
            n_sub = max(1, math.ceil(span / max_step - _REMAINDER_EPS))
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
