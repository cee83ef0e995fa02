"""Stationary law of the finite chain and its Gaussian concentration.

For u > 0 the chain is irreducible on {0, ..., N} and reversible, so
its stationary law is the birth-death product

    pi(k) proportional to prod_{i=1..k} lambda_{i-1} / mu_i.

As N grows, pi concentrates at the stable point of the limiting flow:
sqrt(N) (Z^N_infty - x_stable) converges to a centred Gaussian whose
variance is the fluctuation law's stationary variance
diffusion(x_stable) / (2 relaxation_rate). Almost all of pi's mass
therefore sits in O(sqrt(N)) states, and only a window of them is
computed. The log-weight is 0 at the mode and is summed outward on
each side, one log(lambda_k / mu_{k+1}) per state, until it falls below
-745 - log(N + 1); exp underflows to 0 in float64 below about -745.13.
So the window keeps every state a float64 law can hold as non-zero, and
its partial sums stay O(1) in the bulk, where a sum started at k = 0
grows to O(N) and its rounding error with it.

lambda_k > mu_{k+1} exactly where D(p) = q(p, +1) - q(p + 1/N, -1) > 0
at p = k / N, and D is a quadratic in p with leading coefficient -s.
So the ratio exceeds 1 on one run of states at most: the log-weights
fall, rise to the mode at the end of that run, then fall. The first
fall exists only when lambda_0 <= mu_1, that is
N u nu0 <= 1 - 1/N + u nu1. State 0 is then a second local maximum,
log-weight R above the valley floor, and the left side runs on until
its log-weight falls below the cut minus R.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import ndtr

from .deterministic import equilibria
from .fluctuations import limit_variance
from .model import (
    ModelParams,
    check_int,
    check_real,
    check_seed,
    kernel_q,
    rate_tables,
    require_mutation,
)

_UNDERFLOW_LOG = -745.0


@dataclass(frozen=True)
class StationaryDistribution:
    """Exact stationary law pi of one finite chain, on a window of states.

    The window is the states offset, ..., offset + len(probabilities) - 1;
    pi is 0 in float64 outside it. log_weights[j] is the unnormalised log
    of the product formula at state offset + j, 0 at the mode;
    probabilities is its normalised exponential.
    """

    params: ModelParams
    offset: int
    log_weights: np.ndarray
    probabilities: np.ndarray

    @property
    def states(self) -> np.ndarray:
        """The window's states k."""
        return np.arange(self.offset, self.offset + self.probabilities.size)

    def mean_z(self) -> float:
        """Mean of the stationary proportion Z = k / N."""
        return float(np.dot(self.probabilities, self.states / self.params.N))

    def var_z(self) -> float:
        """Variance of the stationary proportion."""
        support = self.states / self.params.N
        mean = np.dot(self.probabilities, support)
        return float(np.dot(self.probabilities, (support - mean) ** 2))

    def cdf(self) -> np.ndarray:
        """P(k' <= k) at the window's states; 0 below the window, 1 above it."""
        return np.cumsum(self.probabilities)

    def full_probabilities(self) -> np.ndarray:
        """pi over all N + 1 states, padded with zeros outside the window."""
        full = np.zeros(self.params.N + 1)
        full[self.offset : self.offset + self.probabilities.size] = self.probabilities
        return full


def _log_ratios(start: int, stop: int, params: ModelParams) -> np.ndarray:
    """log(lambda_k / mu_{k+1}) for k = start, ..., stop - 1."""
    up, down = kernel_q(np.arange(start, stop + 1) / params.N, params)
    return np.log(up[:-1]) - np.log(down[1:])  # the factor N of both rates cancels


def _rises(k: int, params: ModelParams) -> bool:
    return bool(_log_ratios(k, k + 1, params)[0] > 0.0)


def _sign_change(lo: int, hi: int, params: ModelParams) -> int:
    """By bisection, a k in (lo, hi] where _rises turns from its value at lo.

    The value at hi must differ from the one at lo.
    """
    side = _rises(lo, params)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _rises(mid, params) == side:
            lo = mid
        else:
            hi = mid
    return hi


def _mode(params: ModelParams) -> int:
    """The state that ends the run of k with lambda_k > mu_{k+1}, or 0 if none.

    Past the vertex of D the ratio falls, so the run's end is found by
    bisection from the vertex.
    """
    n, s = params.N, params.s
    slope = s - params.u + 2.0 / n  # D'(0)
    if s > 0.0:
        vertex = slope / (2.0 * s) * n
    else:
        vertex = math.inf if slope > 0.0 else -math.inf
    lo = math.ceil(min(max(vertex, 0.0), n - 1.0))
    if not _rises(lo, params):
        # D peaks at the vertex, in (lo - 1, lo], so only lo - 1 may still rise
        return lo if lo > 0 and _rises(lo - 1, params) else 0
    if _rises(n - 1, params):
        return n
    return _sign_change(lo, n - 1, params)


def _outward(mode: int, end: int, floor: float, params: ModelParams) -> np.ndarray:
    """Log-weights of the states from mode toward end (mode excluded, end included).

    Summed outward from 0 at mode in chunks of doubling size, and cut
    before the first one below floor.
    """
    chunks = []
    total = 0.0
    k = mode
    size = 32 * math.isqrt(params.N) + 64
    while k != end:
        if end > k:
            nxt = min(k + size, end)
            ratios = _log_ratios(k, nxt, params)
        else:
            nxt = max(k - size, end)
            ratios = -_log_ratios(nxt, k, params)[::-1]
        ratios[0] += total  # continue the running sum in the same order
        part = np.cumsum(ratios)
        below = np.flatnonzero(part < floor)
        if below.size:
            chunks.append(part[: below[0]])
            break
        chunks.append(part)
        total = part[-1]
        k = nxt
        size *= 2
    return np.concatenate(chunks) if chunks else np.zeros(0)


def stationary_distribution(params: ModelParams) -> StationaryDistribution:
    """Stationary law by the log-space product formula, anchored at the mode.

    Raises:
        UnsupportedModelError: when u = 0 and the product breaks down at
            the absorbing boundaries.
    """
    require_mutation(params)
    mode = _mode(params)
    floor = _UNDERFLOW_LOG - math.log(params.N + 1)
    left_floor = floor
    if mode > 0 and not _rises(0, params):
        # state 0 is a second peak: the log-ratios below the valley that
        # starts the run sum to minus its height above that valley
        valley = _sign_change(0, mode - 1, params)
        left_floor += float(np.sum(_log_ratios(0, valley, params)))
    left = _outward(mode, 0, left_floor, params)
    right = _outward(mode, params.N, floor, params)
    log_weights = np.concatenate((left[::-1], [0.0], right))
    weights = np.exp(log_weights - log_weights.max())
    probabilities = weights / weights.sum()
    return StationaryDistribution(
        params=params,
        offset=mode - left.size,
        log_weights=log_weights,
        probabilities=probabilities,
    )


def brute_force_stationary(params: ModelParams) -> np.ndarray:
    """Stationary law as the null space of the transposed generator.

    Independent oracle for the product formula: builds the dense
    generator Q and solves pi Q = 0 by SVD. Dense in N, so meant for
    small chains.
    """
    from scipy.linalg import null_space  # deferred: only this oracle needs scipy.linalg

    require_mutation(params)
    lam, mu = rate_tables(params)
    n = params.N
    generator = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        if k < n:
            generator[k, k + 1] = lam[k]
        if k > 0:
            generator[k, k - 1] = mu[k]
        generator[k, k] = -(lam[k] + mu[k])
    basis = null_space(generator.T)
    if basis.shape[1] != 1:
        raise RuntimeError(
            f"generator null space has dimension {basis.shape[1]}, expected 1"
        )
    pi = basis[:, 0]
    pi = pi / pi.sum()
    return pi


def detailed_balance_residual(dist: StationaryDistribution) -> float:
    """Largest relative violation of pi(k) lambda_k = pi(k+1) mu_{k+1} on the window."""
    up, down = kernel_q(dist.states / dist.params.N, dist.params)  # lambda / N, mu / N
    left = dist.probabilities[:-1] * up[:-1]
    right = dist.probabilities[1:] * down[1:]
    scale = max(float(np.max(left, initial=0.0)), float(np.max(right, initial=0.0)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(left - right))) / scale


def ks_distance_to_gaussian(
    dist: StationaryDistribution, center: float, sigma: float
) -> float:
    """Exact sup-distance between the law of sqrt(N)(Z - center) and N(0, sigma^2).

    The discrete CDF jumps at the support points, so the supremum is
    attained either just after a jump (F - G there) or just before one
    (G minus the previous F level). Below the window F is 0 and above it
    F is 1, so the window's first and last jumps bound those states.
    """
    check_real(sigma, "sigma", 0.0, exclusive=True)
    n = dist.params.N
    support = math.sqrt(n) * (dist.states / n - center)
    cum = dist.cdf()
    gauss = ndtr(support / sigma)
    cum_before = np.concatenate(([0.0], cum[:-1]))
    return float(max(np.max(cum - gauss), np.max(gauss - cum_before)))


def ks_sample_to_gaussian(sample, sigma: float) -> float:
    """Two-sided one-sample KS statistic of sample against N(0, sigma^2).

    The empirical CDF of the sorted sample steps to i / n at its i-th
    point, so the supremum is i / n - G there or G - (i - 1) / n just
    before it. The same formula as
    scipy.stats.kstest(sample, "norm", args=(0, sigma)).statistic, and
    equal to it bit for bit.
    """
    check_real(sigma, "sigma", 0.0, exclusive=True)
    x = np.sort(sample)
    n = x.size
    gauss = ndtr(x / sigma)
    above = np.arange(1.0, n + 1) / n - gauss
    below = gauss - np.arange(0.0, n) / n
    return float(max(above.max(), below.max()))


@dataclass(frozen=True)
class GaussianLimitReport:
    """Concentration diagnostics of one stationary law against its limit.

    window_states is the number of states the law was summed over.
    """

    N: int
    empirical_var_scaled: float
    target: float
    ks_statistic: float
    mean_z: float
    x_stable: float
    eps: float
    mass_outside: float
    window_states: int

    def to_record(self) -> dict:
        return asdict(self)


def gaussian_limit_check(params: ModelParams, eps: float = 0.05) -> GaussianLimitReport:
    """Compare the exact stationary law with its Gaussian limit.

    Reports N * Var(Z) against the limit variance, the exact KS
    distance of sqrt(N)(Z - x_stable) from that Gaussian, and the mass
    outside the eps-neighbourhood of x_stable.
    """
    eps = check_real(eps, "eps", 0.0, 1.0, exclusive=True)
    require_mutation(params)
    eq = equilibria(params)
    target = limit_variance(params)
    dist = stationary_distribution(params)
    n = params.N
    support = dist.states / n
    mass_outside = float(
        dist.probabilities[np.abs(support - eq.x_stable) >= eps].sum()
    )
    return GaussianLimitReport(
        N=n,
        empirical_var_scaled=n * dist.var_z(),
        target=target,
        ks_statistic=ks_distance_to_gaussian(
            dist, center=eq.x_stable, sigma=math.sqrt(target)
        ),
        mean_z=dist.mean_z(),
        x_stable=eq.x_stable,
        eps=eps,
        mass_outside=mass_outside,
        window_states=dist.probabilities.size,
    )


def stationary_sampler(
    dist: StationaryDistribution, n: int, rng_seed
) -> np.ndarray:
    """n i.i.d. draws of the state k under pi, by inverse-CDF lookup on the window."""
    n = check_int(n, "n", minimum=1)
    rng_seed = check_seed(rng_seed)
    uniforms = np.random.default_rng(rng_seed).random(n)
    index = np.searchsorted(dist.cdf(), uniforms, side="right")
    return dist.offset + np.minimum(index, dist.probabilities.size - 1).astype(np.int64)
