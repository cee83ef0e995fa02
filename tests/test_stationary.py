"""Birth-death stationary law, its oracles, and the Gaussian limit check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.special import ndtr
from scipy.stats import kstest

from moranlimits import (
    DomainError,
    ModelParams,
    UnsupportedModelError,
    brute_force_stationary,
    detailed_balance_residual,
    equilibria,
    gaussian_limit_check,
    ks_distance_to_gaussian,
    ks_sample_to_gaussian,
    limit_variance,
    stationary_distribution,
    stationary_sampler,
)
from moranlimits import stationary
from moranlimits.model import rate_tables
from moranlimits.selfcheck import _sweep_sets, parameter_panel, reference_params

REF = reference_params()


class TestStationaryDistribution:
    def test_requires_mutation(self):
        params = ModelParams(N=10, s=1.0, u=0.0, nu0=0.5)
        with pytest.raises(UnsupportedModelError):
            stationary_distribution(params)
        with pytest.raises(UnsupportedModelError):
            brute_force_stationary(params)

    def test_normalisation(self):
        for n in (1, 2, 10, 500):
            params = ModelParams(N=n, s=1.0, u=0.5, nu0=0.5)
            dist = stationary_distribution(params)
            assert dist.full_probabilities().shape == (n + 1,)
            assert np.all(dist.probabilities > 0.0)
            assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-14)

    def test_two_state_symmetric_is_uniform(self):
        # N = 2, s = 0, u = 1, nu0 = 1/2: up and down rates match at
        # every k, so all three states carry weight 1/3.
        params = ModelParams(N=2, s=0.0, u=1.0, nu0=0.5)
        dist = stationary_distribution(params)
        assert np.max(np.abs(dist.probabilities - 1.0 / 3.0)) < 1e-15

    def test_matches_null_space_oracle(self):
        for n in (2, 5, 17):
            params = ModelParams(N=n, s=0.9, u=0.35, nu0=0.3)
            product = stationary_distribution(params).full_probabilities()
            oracle = brute_force_stationary(params)
            assert np.max(np.abs(product - oracle)) < 1e-12

    def test_null_space_is_scipys_bit_for_bit_on_criterion_7(self):
        shapes = [REF] + [p for p, _ in parameter_panel(2)]
        for shape in shapes:
            for n in (2, 3, 5, 10, 25, 50):
                params = ModelParams(N=n, s=shape.s, u=shape.u, nu0=shape.nu0)
                lam, mu = rate_tables(params)
                generator = np.diag(lam[:-1], 1) + np.diag(mu[1:], -1) - np.diag(lam + mu)
                basis = null_space(generator.T)
                assert basis.shape == (n + 1, 1)
                expected = basis[:, 0] / basis[:, 0].sum()
                assert brute_force_stationary(params).tobytes() == expected.tobytes()

    def test_detailed_balance(self):
        params = ModelParams(N=500, s=1.0, u=0.5, nu0=0.5)
        dist = stationary_distribution(params)
        assert detailed_balance_residual(dist) < 1e-9

    def test_mean_concentrates_at_stable_point(self):
        params = ModelParams(N=5000, s=1.0, u=0.5, nu0=0.5)
        dist = stationary_distribution(params)
        assert abs(dist.mean_z() - equilibria(params).x_stable) < 0.02
        assert dist.var_z() > 0.0

    def test_cdf_monotone(self):
        dist = stationary_distribution(REF)
        cdf = dist.cdf()
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-14)


class TestKsDistance:
    def test_against_dense_grid_scan(self):
        # Exact sup over jump points versus a dense numeric scan of
        # |F_n - Phi| on the sqrt(N)-scaled axis; the scan can only
        # ever find a smaller value.
        params = ModelParams(N=100, s=1.0, u=0.5, nu0=0.5)
        dist = stationary_distribution(params)
        eq = equilibria(params)
        sigma = math.sqrt(limit_variance(params))
        exact = ks_distance_to_gaussian(dist, eq.x_stable, sigma)
        support = math.sqrt(params.N) * (
            np.arange(params.N + 1) / params.N - eq.x_stable
        )
        ys = np.linspace(support[0] - 1.0, support[-1] + 1.0, 200_001)
        idx = np.searchsorted(support, ys, side="right")
        cum = np.concatenate(([0.0], np.cumsum(dist.full_probabilities())))
        scanned = np.max(np.abs(cum[idx] - ndtr(ys / sigma)))
        assert scanned <= exact + 1e-12
        assert exact - scanned < 1e-4

    def test_sigma_validation(self):
        dist = stationary_distribution(REF)
        with pytest.raises(DomainError):
            ks_distance_to_gaussian(dist, 0.5, 0.0)
        with pytest.raises(DomainError):
            ks_distance_to_gaussian(dist, 0.5, -1.0)


def ndtr_test_points() -> np.ndarray:
    """Over 10^6 arguments: random bulk and tails, and every branch point of Cephes' ndtr.

    The branches switch at |a| = 1 (erf to erfc), sqrt(2) (erfc's own
    erf branch), 8 sqrt(2) (P / Q to R / S) and sqrt(2 MAXLOG), about
    37.7 (erfc underflows to 0); each is scanned ulp by ulp and nearby.
    """
    rng = np.random.default_rng(20261019)
    parts = [
        rng.normal(0.0, 3.0, 350_000),
        rng.uniform(-40.0, 40.0, 300_000),
        rng.uniform(-1.5, 1.5, 100_000),
        np.geomspace(1e-300, 1e3, 50_000),
        -np.geomspace(1e-300, 1e3, 50_000),
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324],
        [2.2250738585072014e-308, -2.2250738585072014e-308, 1e-310, -1e-310, 1e308, -1e308],
    ]
    for branch in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * stationary._MAXLOG)):
        for point in (branch, -branch):
            parts.append(point + np.arange(-5000, 5001) * np.spacing(point))
            parts.append(point + rng.uniform(-1e-3, 1e-3, 10_000))
    return np.concatenate([np.asarray(part, dtype=float) for part in parts])


def scipy_ks_distance(dist, center: float, sigma: float) -> float:
    """ks_distance_to_gaussian as it was written on scipy.special.ndtr."""
    n = dist.params.N
    cum = dist.cdf()
    gauss = ndtr(math.sqrt(n) * (dist.states / n - center) / sigma)
    cum_before = np.concatenate(([0.0], cum[:-1]))
    return float(max(np.max(cum - gauss), np.max(gauss - cum_before)))


class TestNdtrPort:
    def test_exact_port_matches_scipy_bit_for_bit(self):
        points = ndtr_test_points()
        assert points.size >= 10**6
        ported = stationary._ndtr(points)
        expected = ndtr(points)
        differ = np.flatnonzero(ported.view(np.uint64) != expected.view(np.uint64))
        assert differ.size == 0, (points[differ[:5]], ported[differ[:5]], expected[differ[:5]])

    def test_near_port_within_the_sup_margin(self):
        points = np.sort(ndtr_test_points())
        near = stationary._ndtr_near(points)
        assert np.array_equal(np.isnan(near), np.isnan(points))
        finite = ~np.isnan(points)
        assert np.max(np.abs(near[finite] - ndtr(points[finite]))) <= 2.5e-16
        assert 2.5e-16 < stationary._SUP_MARGIN / 1000.0

    def test_ks_distance_matches_scipy_form_on_the_selfcheck_panel(self):
        for params, _ in _sweep_sets():
            for exponent in range(2, 8):
                swept = ModelParams(N=10**exponent, s=params.s, u=params.u, nu0=params.nu0)
                dist = stationary_distribution(swept)
                center = equilibria(swept).x_stable
                sigma = math.sqrt(limit_variance(swept))
                assert ks_distance_to_gaussian(dist, center, sigma) == scipy_ks_distance(
                    dist, center, sigma
                )

    @pytest.mark.parametrize("extra", [math.nan, math.inf, -math.inf])
    def test_ks_sample_non_finite_matches_scipy_form(self, extra):
        sample = np.append(np.random.default_rng(3).normal(0.0, 1.0, 200), extra)
        x = np.sort(sample)
        gauss = ndtr(x)
        above = np.arange(1.0, x.size + 1) / x.size - gauss
        below = gauss - np.arange(0.0, x.size) / x.size
        expected = float(max(above.max(), below.max()))
        got = ks_sample_to_gaussian(sample, 1.0)
        assert got == expected or (math.isnan(got) and math.isnan(expected))


class TestKsSample:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 1500),
        log_sigma=st.floats(-6.0, 6.0),
        spread=st.floats(0.25, 4.0),
        lattice=st.one_of(st.none(), st.floats(0.01, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scipy_kstest_bit_for_bit(self, n, log_sigma, spread, lattice, seed):
        sigma = 10.0**log_sigma
        sample = np.random.default_rng(seed).normal(0.0, spread * sigma, n)
        if lattice is not None:  # ties, as in the chain's scaled deviations
            sample = np.round(sample / (lattice * sigma)) * (lattice * sigma)
        expected = kstest(sample, "norm", args=(0.0, sigma)).statistic
        assert ks_sample_to_gaussian(sample, sigma) == expected

    def test_sigma_validation(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                ks_sample_to_gaussian(np.zeros(3), bad)


class TestGaussianLimitCheck:
    def test_report_fields(self):
        params = ModelParams(N=500, s=1.0, u=0.5, nu0=0.5)
        report = gaussian_limit_check(params)
        assert report.N == 500
        assert report.window_states == stationary_distribution(params).probabilities.size
        assert report.target == pytest.approx(limit_variance(params), rel=1e-13)
        assert report.empirical_var_scaled > 0.0
        assert 0.0 <= report.ks_statistic <= 1.0
        assert report.eps == 0.05
        assert 0.0 <= report.mass_outside <= 1.0
        record = report.to_record()
        assert set(record) == {
            "N",
            "empirical_var_scaled",
            "target",
            "ks_statistic",
            "mean_z",
            "x_stable",
            "eps",
            "mass_outside",
            "window_states",
        }

    def test_variance_and_mass_converge(self):
        params = ModelParams(N=5000, s=1.0, u=0.5, nu0=0.5)
        report = gaussian_limit_check(params)
        assert abs(report.empirical_var_scaled / report.target - 1.0) < 0.05
        assert report.mass_outside < 0.01

    def test_eps_validation(self):
        with pytest.raises(DomainError):
            gaussian_limit_check(REF, eps=0.0)
        with pytest.raises(DomainError):
            gaussian_limit_check(REF, eps=1.0)

    def test_requires_mutation(self):
        params = ModelParams(N=100, s=1.0, u=0.0, nu0=0.5)
        with pytest.raises(UnsupportedModelError):
            gaussian_limit_check(params)

    @pytest.mark.parametrize(
        "s, u, nu0", [(1.0, 1e-309, 0.5), (1e150, 1e-160, 0.1)], ids=["subnormal-u", "s/u=1e310"]
    )
    def test_overflowing_variance_ratio_rejected(self, s, u, nu0):
        # the limit variance is so small that N Var(Z) / sigma^2 overflows to inf
        params = ModelParams(N=1, s=s, u=u, nu0=nu0)
        with pytest.raises(UnsupportedModelError, match="N Var\\(Z\\) / sigma\\^2"):
            gaussian_limit_check(params)


class TestSampler:
    def test_determinism_and_range(self):
        dist = stationary_distribution(REF)
        a = stationary_sampler(dist, 1000, 5)
        b = stationary_sampler(dist, 1000, 5)
        assert np.array_equal(a, b)
        assert a.dtype.kind == "i"
        assert a.min() >= 0
        assert a.max() <= REF.N

    def test_validation(self):
        dist = stationary_distribution(REF)
        with pytest.raises(DomainError):
            stationary_sampler(dist, 0, 5)
        with pytest.raises(DomainError):
            stationary_sampler(dist, -3, 5)

    def test_sample_mean_matches_distribution(self):
        dist = stationary_distribution(REF)
        draws = stationary_sampler(dist, 200_000, 555006)
        target = dist.mean_z() * REF.N
        sd = math.sqrt(dist.var_z()) * REF.N
        se = sd / math.sqrt(draws.size)
        assert abs(float(draws.mean()) - target) < 4.0 * se

    def test_draws_lie_in_the_window(self):
        dist = stationary_distribution(reference_params(N=10**6))
        draws = stationary_sampler(dist, 10_000, 3)
        assert dist.offset > 0
        assert draws.min() >= dist.offset
        assert draws.max() < dist.offset + dist.probabilities.size


def full_support_law(params):
    """The law by one log-space cumsum from k = 0 over all N + 1 states."""
    lam, mu = rate_tables(params)
    log_weights = np.concatenate(([0.0], np.cumsum(np.log(lam[:-1]) - np.log(mu[1:]))))
    weights = np.exp(log_weights - log_weights.max())
    return weights / weights.sum()


def longdouble_law(params):
    """The product form in np.longdouble, summed outward from its mode."""
    n = params.N
    p = np.arange(n + 1, dtype=np.longdouble) / n
    s, u, nu0, nu1 = (np.longdouble(v) for v in (params.s, params.u, params.nu0, params.nu1))
    up = (1 + s) * p * (1 - p) + u * nu0 * (1 - p)
    down = p * (1 - p) + u * nu1 * p
    steps = np.log(up[:-1]) - np.log(down[1:])
    mode = int(np.argmax(np.concatenate(([0.0], np.cumsum(steps)))))
    log_weights = np.zeros(n + 1, dtype=np.longdouble)
    log_weights[mode + 1 :] = np.cumsum(steps[mode:])
    log_weights[:mode] = -np.cumsum(steps[:mode][::-1])[::-1]
    weights = np.exp(log_weights - log_weights.max())
    return weights / weights.sum()


# N u nu0 < 1 here, so state 0 is a second local maximum of the law:
# U-shaped without selection, a boundary peak beside the bulk with it.
# At u = 1e-5 that peak underflows to 0 at N = 5000. At u = 1e-200 and
# N = 500 it holds 6e-151, cut off from the bulk by states that underflow.
TWO_PEAK_SHAPES = [
    ModelParams(N=2, s=0.0, u=1e-3, nu0=0.3),
    ModelParams(N=2, s=1.0, u=1e-3, nu0=0.5),
    ModelParams(N=2, s=1e-3, u=2e-3, nu0=0.1),
    ModelParams(N=2, s=1.0, u=1e-5, nu0=0.5),
    ModelParams(N=2, s=1.0, u=1e-200, nu0=0.5),
]


class TestWindow:
    def test_pmf_matches_longdouble_product_form(self):
        params = reference_params(N=10**5)
        pmf = stationary_distribution(params).full_probabilities()
        exact = longdouble_law(params)
        kept = pmf > 1e-12
        assert float(np.max(np.abs(pmf[kept] - exact[kept]) / exact[kept])) <= 1e-12

    def test_mean_offset_matches_next_order_limit(self):
        # N (E Z - x_stable) -> mu_inf = -s sigma_inf^2 / r, with an O(1/N) remainder
        params = reference_params(N=10**7)
        dist = stationary_distribution(params)
        eq = equilibria(params)
        mu_inf = -params.s * limit_variance(params) / eq.relaxation_rate
        assert abs(params.N * (dist.mean_z() - eq.x_stable) - mu_inf) <= 1e-6

    @pytest.mark.parametrize("n", [500, 5000])
    def test_window_covers_full_support_law(self, n):
        shapes = [reference_params(N=2)] + [p for p, _ in parameter_panel(2)] + TWO_PEAK_SHAPES
        for shape in shapes:
            params = ModelParams(N=n, s=shape.s, u=shape.u, nu0=shape.nu0)
            dist = stationary_distribution(params)
            reference = full_support_law(params)
            nonzero = np.flatnonzero(reference)
            assert dist.offset <= nonzero[0]
            assert nonzero[-1] < dist.offset + dist.probabilities.size
            normal = reference > 1e-290
            full = dist.full_probabilities()
            gap = np.abs(full[normal] - reference[normal]) / reference[normal]
            assert float(np.max(gap)) < 1e-9

    def test_negligible_second_peak_stays_outside_the_window(self):
        # N u nu0 = 0.05: state 0 is a local maximum, far below the mode
        params = ModelParams(N=10**7, s=1.0, u=1e-8, nu0=0.5)
        dist = stationary_distribution(params)
        assert dist.offset > 0
        assert dist.probabilities.size < 5000

    def test_window_is_a_small_part_of_a_large_chain(self):
        params = reference_params(N=10**6)
        dist = stationary_distribution(params)
        assert dist.probabilities.size < 60_000
        mode = dist.offset + int(np.argmax(dist.log_weights))
        assert dist.log_weights[mode - dist.offset] == 0.0
        assert abs(mode / params.N - equilibria(params).x_stable) < 1e-5
