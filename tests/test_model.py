"""Parameter validation, jump kernel, and the density-dependence identity."""

import math

import numpy as np
import pytest

from moranlimits import DomainError, ModelParams, kernel_q, rate_tables
from moranlimits.model import MAX_RATE, check_int, check_real, max_jump_rate
from moranlimits.selfcheck import parameter_panel, reference_params


REF = reference_params()  # N=100, s=1, u=0.5, nu0=0.5


class TestModelParams:
    def test_reference_construction(self):
        assert REF.N == 100
        assert REF.s == 1.0
        assert REF.u == 0.5
        assert REF.nu0 == 0.5
        assert REF.nu1 == 0.5

    @pytest.mark.parametrize("nu0", [0.3, 0.25, 0.7, 1e-9, 1 - 1e-9])
    def test_nu1_complements_exactly(self, nu0):
        params = ModelParams(N=10, s=0.0, u=1.0, nu0=nu0)
        assert params.nu0 + params.nu1 == 1.0

    def test_integer_like_floats_rejected_for_N(self):
        with pytest.raises(DomainError):
            ModelParams(N=10.0, s=1.0, u=0.5, nu0=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(N=0, s=1.0, u=0.5, nu0=0.5),
            dict(N=-5, s=1.0, u=0.5, nu0=0.5),
            dict(N=True, s=1.0, u=0.5, nu0=0.5),
            dict(N=10, s=-0.1, u=0.5, nu0=0.5),
            dict(N=10, s=1.0, u=-0.5, nu0=0.5),
            dict(N=10, s=1.0, u=0.5, nu0=0.0),
            dict(N=10, s=1.0, u=0.5, nu0=1.0),
            dict(N=10, s=1.0, u=0.5, nu0=-0.2),
            dict(N=10, s=1.0, u=0.5, nu0=1.3),
            dict(N=10, s=math.inf, u=0.5, nu0=0.5),
            dict(N=10, s=math.nan, u=0.5, nu0=0.5),
            dict(N=10, s="1", u=0.5, nu0=0.5),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(DomainError):
            ModelParams(**kwargs)

    def test_rates_capped_at_max_rate(self):
        params = ModelParams(N=10, s=MAX_RATE, u=MAX_RATE, nu0=0.5)
        assert params.s == params.u == MAX_RATE
        for key in ("s", "u"):
            rates = {"s": 1.0, "u": 0.5, key: 1e151}
            with pytest.raises(DomainError, match=rf"{key} must lie in \[0, 1e\+150\]"):
                ModelParams(N=10, nu0=0.5, **rates)

    def test_frozen(self):
        with pytest.raises(Exception):
            REF.s = 2.0


class TestKernel:
    def test_reference_values_at_half(self):
        # (1+s) p (1-p) + u nu0 (1-p) = 2*0.25 + 0.5*0.5*0.5 = 0.625
        # p (1-p) + u nu1 p = 0.25 + 0.5*0.5*0.5 = 0.375
        assert kernel_q(0.5, REF) == (0.625, 0.375)

    def test_boundaries(self):
        assert kernel_q(0.0, REF)[1] == 0.0
        assert kernel_q(1.0, REF)[0] == 0.0
        assert kernel_q(0.0, REF)[0] == REF.u * REF.nu0
        assert kernel_q(1.0, REF)[1] == REF.u * REF.nu1

    def test_boundaries_absorb_without_mutation(self):
        params = ModelParams(N=50, s=1.0, u=0.0, nu0=0.5)
        assert kernel_q(0.0, params)[0] == 0.0
        assert kernel_q(1.0, params)[1] == 0.0

    @pytest.mark.parametrize("p", [-0.01, 1.01, math.nan, 2.0])
    def test_p_outside_unit_interval_rejected(self, p):
        with pytest.raises(DomainError):
            kernel_q(p, REF)
        with pytest.raises(DomainError):
            kernel_q(np.array([0.0, 0.5, p]), REF)

    def test_empty_array_gives_empty_rates(self):
        up, down = kernel_q(np.array([]), REF)
        assert up.shape == (0,) and down.shape == (0,)

    def test_nonnegative_across_panel(self):
        grid = np.linspace(0.0, 1.0, 101)
        for params, _ in parameter_panel(5):
            up, down = kernel_q(grid, params)
            assert np.all(up >= 0.0) and np.all(down >= 0.0)

    def test_kernel_values_pairs(self):
        # the array form holds the scalar pair of every entry, bit for bit
        grid = np.linspace(0.0, 1.0, 37)
        up, down = kernel_q(grid, REF)
        for j, p in enumerate(grid):
            assert (up[j], down[j]) == kernel_q(float(p), REF)


class TestChainRates:
    @pytest.mark.parametrize(
        "s, u, nu0, vertex",
        [
            (1.0, 0.5, 0.5, 0.5),  # reference shape: g = 3 p (1 - p) + 1/4
            (0.0, 0.0, 0.5, 0.5),
            (0.0, 100.0, 0.9, 0.0),  # vertex clipped to p = 0
            (0.0, 100.0, 0.1, 1.0),  # and to p = 1
            (2.0, 1.0, 0.25, 0.5 + 0.5 / 8.0),
        ],
    )
    def test_max_jump_rate(self, s, u, nu0, vertex):
        params = ModelParams(N=100, s=s, u=u, nu0=nu0)
        up, down = kernel_q(vertex, params)
        assert max_jump_rate(params) == up + down
        grid = np.linspace(0.0, 1.0, 100_001)
        up, down = kernel_q(grid, params)
        assert max_jump_rate(params) == pytest.approx((up + down).max(), rel=1e-9)
        lam, mu = rate_tables(params)
        assert (lam + mu).max() <= params.N * max_jump_rate(params) * (1.0 + 1e-15)

    def test_reference_values(self):
        # lambda_50 = 50*50*2/100 + 50*0.25 = 62.5; mu_50 = 25 + 50*0.25 = 37.5
        lam, mu = rate_tables(REF)
        assert (lam[50], mu[50]) == (62.5, 37.5)

    def test_boundary_rates(self):
        lam, mu = rate_tables(REF)
        assert lam[REF.N] == 0.0
        assert mu[0] == 0.0

    @pytest.mark.parametrize("k", [-1, 101, 0.5, None])
    def test_state_validation(self, k):
        # the state check the simulator applies to k0
        with pytest.raises(DomainError):
            check_int(k, "k0", 0, REF.N)

    def test_density_dependence_identity_exact(self):
        # the rates are N * kernel_q(k/N) bit for bit, not just approximately
        for params, _ in [(REF, None)] + parameter_panel(5):
            n = params.N
            lam, mu = rate_tables(params)
            for k in range(n + 1):
                up, down = kernel_q(k / n, params)
                assert lam[k] == n * up
                assert mu[k] == n * down

    @pytest.mark.parametrize("n", [1, 2, 137])
    def test_rate_tables_match_scalar_rates(self, n):
        params = ModelParams(N=n, s=0.7, u=0.9, nu0=0.31)
        lam, mu = rate_tables(params)
        assert lam.shape == (n + 1,)
        up, down = kernel_q(np.arange(n + 1) / n, params)
        assert np.array_equal(lam, n * up) and np.array_equal(mu, n * down)
        for k in range(n + 1):
            assert (lam[k], mu[k]) == tuple(n * q for q in kernel_q(k / n, params))

    def test_absorbing_states_without_mutation(self):
        params = ModelParams(N=20, s=0.5, u=0.0, nu0=0.5)
        lam, mu = rate_tables(params)
        assert (lam[0], mu[0]) == (0.0, 0.0)
        assert (lam[20], mu[20]) == (0.0, 0.0)



SMALL = ModelParams(N=20, s=1.0, u=0.5, nu0=0.5)
GRID = [0.0, 0.25, 0.5]


def _call(name, **override):
    """Call one entry point behind a shared checker on valid arguments but one."""
    from moranlimits import (
        FluctuationLaw,
        clt_statistics,
        rk4,
        run_ensemble,
        sample_fluctuation_paths,
        simulate_on_grid,
        simulate_path,
        stationary_distribution,
        stationary_sampler,
        summarize_paths,
    )

    args = {"k0": 2, "n_paths": 2, "rng_seed": 1, "t_grid": GRID, "times": GRID, "n": 3, "N": 20}
    args.update(override)
    calls = {
        "run_ensemble": lambda: run_ensemble(
            args["k0"], args["t_grid"], args["n_paths"], args["rng_seed"], SMALL
        ),
        "clt_statistics": lambda: clt_statistics(
            0.1, override.get("times", GRID[1:]), args["n_paths"], args["rng_seed"], SMALL  # t > 0
        ),
        "sample_fluctuation_paths": lambda: sample_fluctuation_paths(
            0.1, args["t_grid"], args["n_paths"], args["rng_seed"], SMALL
        ),
        "simulate_path": lambda: simulate_path(args["k0"], 0.5, args["rng_seed"], SMALL),
        "simulate_on_grid": lambda: simulate_on_grid(
            args["k0"], args["t_grid"], args["rng_seed"], SMALL
        ),
        "summarize_paths": lambda: summarize_paths(
            [simulate_path(2, 0.5, [1, 0], SMALL)], args["t_grid"], args["rng_seed"]
        ),
        "stationary_sampler": lambda: stationary_sampler(
            stationary_distribution(SMALL), args["n"], args["rng_seed"]
        ),
        "rk4.integrate_at": lambda: rk4.integrate_at(lambda y: -y, 1.0, args["times"], 0.1),
        "FluctuationLaw.variance_on_grid": lambda: FluctuationLaw(0.1, SMALL).variance_on_grid(
            args["times"]
        ),
        "ModelParams": lambda: ModelParams(N=args["N"], s=1.0, u=0.5, nu0=0.5),
    }
    return calls[name]()


# The arguments of each entry point that go through check_int, check_seed
# and check_grid.
CHECKED_ARGUMENTS = {
    "run_ensemble": {"count": ("k0", "n_paths"), "seed": ("rng_seed",), "grid": ("t_grid",)},
    "clt_statistics": {"count": ("n_paths",), "seed": ("rng_seed",), "grid": ("times",)},
    "sample_fluctuation_paths": {
        "count": ("n_paths",),
        "seed": ("rng_seed",),
        "grid": ("t_grid",),
    },
    "simulate_path": {"count": ("k0",), "seed": ("rng_seed",)},
    "simulate_on_grid": {"count": ("k0",), "seed": ("rng_seed",), "grid": ("t_grid",)},
    "summarize_paths": {"seed": ("rng_seed",), "grid": ("t_grid",)},
    "stationary_sampler": {"count": ("n",), "seed": ("rng_seed",)},
    "rk4.integrate_at": {"grid": ("times",)},
    "FluctuationLaw.variance_on_grid": {"grid": ("times",)},
    "ModelParams": {"count": ("N",)},
}

# bool, float, negative and nested values of each kind of argument; grids
# also ragged and non-numeric
BAD_VALUES = {
    "count": (True, 3.0, -1, [3]),
    "seed": (True, 1.5, -1, [[1, 2]]),
    "grid": (True, 1.0, [-1.0, 0.5], [[0.0, 0.5]], [[0.0], [0.5, 1.0]], ["a"]),
}


class TestSharedCheckers:
    @pytest.mark.parametrize("name", sorted(CHECKED_ARGUMENTS))
    def test_valid_arguments_accepted(self, name):
        _call(name)

    @pytest.mark.parametrize(
        "name, argument, bad",
        [
            pytest.param(name, argument, bad, id=f"{name}-{argument}-{bad!r}")
            for name, kinds in sorted(CHECKED_ARGUMENTS.items())
            for kind, arguments in kinds.items()
            for argument in arguments
            for bad in BAD_VALUES[kind]
        ],
    )
    def test_bad_argument_rejected(self, name, argument, bad):
        with pytest.raises(DomainError, match=argument):
            _call(name, **{argument: bad})

    @pytest.mark.parametrize("value", [10**400, -(10**400)])
    def test_integer_beyond_float_range_rejected(self, value):
        # float() of such an int raises OverflowError; the checker reports it
        with pytest.raises(DomainError, match="finite"):
            check_real(value, "s")
        with pytest.raises(DomainError):
            ModelParams(N=10, s=value, u=0.5, nu0=0.5)
