"""Finite-N two-type Moran model with mutation and selection.

Exact event-driven simulation of the finite chain, the closed-form
deterministic limit of the type proportion, the Gaussian fluctuation
law around it, and the exact stationary distribution with its Gaussian
concentration diagnostics.
"""

from .model import (
    DomainError,
    ModelParams,
    UnsupportedModelError,
    kernel_q,
    rate_tables,
)
from .deterministic import (
    DeterministicSolution,
    DriftFunctions,
    Equilibria,
    LinearModelSolution,
    Regime,
    classify_regime,
    equilibria,
    linear_model_solution,
    ode_oracle,
    ode_oracle_at,
    solve_deterministic,
)
from .fluctuations import (
    FluctuationLaw,
    VarianceResult,
    limit_variance,
    sample_fluctuation_paths,
    variance_closed_form,
    variance_ode,
)
from .simulate import (
    EnsembleSummary,
    TrajectoryPath,
    clt_statistics,
    run_ensemble,
    sample_Z_at,
    simulate_on_grid,
    simulate_path,
    summarize_paths,
)
from .stationary import (
    GaussianLimitReport,
    StationaryDistribution,
    brute_force_stationary,
    detailed_balance_residual,
    gaussian_limit_check,
    ks_distance_to_gaussian,
    ks_sample_to_gaussian,
    stationary_distribution,
    stationary_sampler,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ModelParams",
    "UnsupportedModelError",
    "kernel_q",
    "rate_tables",
    "DeterministicSolution",
    "DriftFunctions",
    "Equilibria",
    "LinearModelSolution",
    "Regime",
    "classify_regime",
    "equilibria",
    "linear_model_solution",
    "ode_oracle",
    "ode_oracle_at",
    "solve_deterministic",
    "FluctuationLaw",
    "VarianceResult",
    "limit_variance",
    "sample_fluctuation_paths",
    "variance_closed_form",
    "variance_ode",
    "EnsembleSummary",
    "TrajectoryPath",
    "clt_statistics",
    "run_ensemble",
    "sample_Z_at",
    "simulate_on_grid",
    "simulate_path",
    "summarize_paths",
    "GaussianLimitReport",
    "StationaryDistribution",
    "brute_force_stationary",
    "detailed_balance_residual",
    "gaussian_limit_check",
    "ks_distance_to_gaussian",
    "ks_sample_to_gaussian",
    "stationary_distribution",
    "stationary_sampler",
]
