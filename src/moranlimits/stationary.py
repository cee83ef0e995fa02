"""Stationary law of the finite chain and its Gaussian concentration.

For u > 0 the chain is irreducible on {0, ..., N} and reversible, so
its stationary law is the birth-death product

    pi(k) proportional to prod_{i=1..k} lambda_{i-1} / mu_i,

accumulated here as log-weights so no N in the desk range overflows.
As N grows, pi concentrates at the stable point of the limiting flow:
sqrt(N) (Z^N_infty - x_stable) converges to a centred Gaussian whose
variance is the fluctuation law's stationary variance
diffusion(x_stable) / (2 relaxation_rate).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import null_space
from scipy.special import ndtr

from .deterministic import equilibria
from .fluctuations import limit_variance
from .model import (
    ModelParams,
    UnsupportedModelError,
    check_int,
    check_real,
    check_seed,
    rate_tables,
)


def _require_mutation(params: ModelParams) -> None:
    if params.u <= 0.0:
        raise UnsupportedModelError(
            "u = 0 makes the boundary states absorbing; no stationary law on the"
            " interior exists"
        )


@dataclass(frozen=True)
class StationaryDistribution:
    """Exact stationary law pi of one finite chain.

    log_weights[k] is the unnormalised log of the product formula
    (log_weights[0] = 0); probabilities is its normalised exponential.
    """

    params: ModelParams
    log_weights: np.ndarray
    probabilities: np.ndarray

    def mean_z(self) -> float:
        """Mean of the stationary proportion Z = k / N."""
        n = self.params.N
        return float(np.dot(self.probabilities, np.arange(n + 1) / n))

    def var_z(self) -> float:
        """Variance of the stationary proportion."""
        n = self.params.N
        support = np.arange(n + 1) / n
        mean = np.dot(self.probabilities, support)
        return float(np.dot(self.probabilities, (support - mean) ** 2))

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probabilities)


def stationary_distribution(params: ModelParams) -> StationaryDistribution:
    """Stationary law by the log-space product formula.

    Raises:
        UnsupportedModelError: when u = 0 and the product breaks down at
            the absorbing boundaries.
    """
    _require_mutation(params)
    lam, mu = rate_tables(params)
    # lambda_k > 0 for k < N and mu_k > 0 for k > 0 whenever u > 0
    steps = np.log(lam[:-1]) - np.log(mu[1:])
    log_weights = np.concatenate(([0.0], np.cumsum(steps)))
    shifted = log_weights - log_weights.max()
    weights = np.exp(shifted)
    probabilities = weights / weights.sum()
    return StationaryDistribution(
        params=params, log_weights=log_weights, probabilities=probabilities
    )


def brute_force_stationary(params: ModelParams) -> np.ndarray:
    """Stationary law as the null space of the transposed generator.

    Independent oracle for the product formula: builds the dense
    generator Q and solves pi Q = 0 by SVD. Dense in N, so meant for
    small chains.
    """
    _require_mutation(params)
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
    """Largest relative violation of pi(k) lambda_k = pi(k+1) mu_{k+1}."""
    lam, mu = rate_tables(dist.params)
    left = dist.probabilities[:-1] * lam[:-1]
    right = dist.probabilities[1:] * mu[1:]
    scale = max(float(np.max(left)), float(np.max(right)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(left - right))) / scale


def generator_residual(dist: StationaryDistribution) -> float:
    """max_j |(pi Q)_j|, the stationarity defect of the balance equations."""
    lam, mu = rate_tables(dist.params)
    pi = dist.probabilities
    flow_in = np.zeros_like(pi)
    flow_in[1:] += pi[:-1] * lam[:-1]
    flow_in[:-1] += pi[1:] * mu[1:]
    return float(np.max(np.abs(flow_in - pi * (lam + mu))))


def ks_distance_to_gaussian(
    dist: StationaryDistribution, center: float, sigma: float
) -> float:
    """Exact sup-distance between the law of sqrt(N)(Z - center) and N(0, sigma^2).

    The discrete CDF jumps at the support points, so the supremum is
    attained either just after a jump (F - G there) or just before one
    (G minus the previous F level).
    """
    check_real(sigma, "sigma", 0.0, exclusive=True)
    n = dist.params.N
    support = math.sqrt(n) * (np.arange(n + 1) / n - center)
    cum = np.cumsum(dist.probabilities)
    gauss = ndtr(support / sigma)
    cum_before = np.concatenate(([0.0], cum[:-1]))
    return float(max(np.max(cum - gauss), np.max(gauss - cum_before)))


@dataclass(frozen=True)
class GaussianLimitReport:
    """Concentration diagnostics of one stationary law against its limit."""

    N: int
    empirical_var_scaled: float
    target: float
    ks_statistic: float
    mean_z: float
    x_stable: float
    eps: float
    mass_outside: float

    def to_record(self) -> dict:
        return asdict(self)


def gaussian_limit_check(params: ModelParams, eps: float = 0.05) -> GaussianLimitReport:
    """Compare the exact stationary law with its Gaussian limit.

    Reports N * Var(Z) against the limit variance, the exact KS
    distance of sqrt(N)(Z - x_stable) from that Gaussian, and the mass
    outside the eps-neighbourhood of x_stable.
    """
    eps = check_real(eps, "eps", 0.0, 1.0, exclusive=True)
    _require_mutation(params)
    dist = stationary_distribution(params)
    eq = equilibria(params)
    target = limit_variance(params)
    n = params.N
    support = np.arange(n + 1) / n
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
    )


def stationary_sampler(
    dist: StationaryDistribution, n: int, rng_seed
) -> np.ndarray:
    """n i.i.d. draws of the state k under pi, by inverse-CDF lookup."""
    n = check_int(n, "n", minimum=1)
    rng_seed = check_seed(rng_seed)
    cdf = dist.cdf()
    uniforms = np.random.default_rng(rng_seed).random(n)
    states = np.searchsorted(cdf, uniforms, side="right")
    return np.minimum(states, dist.params.N).astype(np.int64)
