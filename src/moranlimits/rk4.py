"""Classical fixed-step fourth-order Runge-Kutta for ODEs y' = f(t, y).

The state is a float, or for `integrate_at` also a 1-d float array of
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

from .model import DomainError

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
    if not (step > 0.0) or not math.isfinite(step):
        raise DomainError(f"step must be positive and finite, got {step!r}")
    if not (t_end >= 0.0) or not math.isfinite(t_end):
        raise DomainError(f"t_end must be >= 0 and finite, got {t_end!r}")
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
    f: Callable[[float, float], float],
    y0: float,
    times: Sequence[float],
    max_step: float,
    post: Optional[Callable[[float], float]] = None,
) -> np.ndarray:
    """State at each requested time, sub-stepping so no step exceeds max_step.

    `times` must be non-negative and strictly increasing; integration
    starts at t = 0 with state y0, a float or a 1-d array of rows. The
    result has shape (len(times),) + shape(y0).
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise DomainError("times must be a non-empty 1-d sequence")
    if ts[0] < 0.0 or not np.all(np.isfinite(ts)):
        raise DomainError("times must be finite and >= 0")
    if np.any(np.diff(ts) <= 0.0):
        raise DomainError("times must be strictly increasing")
    if not (max_step > 0.0):
        raise DomainError(f"max_step must be positive, got {max_step!r}")

    out = np.empty(ts.shape + np.shape(y0))
    y = y0
    t_prev = 0.0
    for j, t_next in enumerate(ts):
        span = t_next - t_prev
        if span > 0.0:
            n_sub = max(1, math.ceil(span / max_step - _REMAINDER_EPS))
            h = span / n_sub
            for i in range(n_sub):
                y = rk4_step(f, t_prev + i * h, y, h)
                if post is not None:
                    y = post(y)
        out[j] = y
        t_prev = t_next
    return out
