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

Both Kolmogorov-Smirnov distances to a Gaussian take the normal CDF
from a port of Cephes' ndtr (Moshier 1989), the code scipy.special.ndtr
runs, so no scipy module is imported. erf and erfc keep Cephes'
branches, coefficients and Horner order, and each numpy step rounds as
the C statement does, so the port gives scipy's bits wherever its exp
gives libm's. The exact port therefore takes exp from libm, one
math.exp call per element: numpy's SIMD np.exp is within a few ulps of
libm but not equal to it. On a 2-vCPU x86-64 Xeon with numpy 2.4 the
two differed at 14,653 of the 317,300 exp arguments of a 350,001-point
grid on [-40, 40], and the CDF at 5,997 of its points. math.exp on
every element would cost more than the rest of a KS distance, and a KS
distance is only a maximum. So the CDF is first formed with np.exp, and
with |a| >= 9 as exactly 0 or 1, within about 1e-16 of the exact value;
only the entries within _SUP_MARGIN of that approximate maximum can hold
the exact one, and only they go through the exact port. The returned
maximum is bit-identical to the one scipy's ndtr gives.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .deterministic import equilibria
from .fluctuations import limit_variance
from .model import (
    MEMORY_BUDGET,
    DomainError,
    ModelParams,
    UnsupportedModelError,
    check_int,
    check_real,
    check_seed,
    kernel_q,
    rate_tables,
    require_mutation,
)

_UNDERFLOW_LOG = -745.0
# A window closes within _MAX_SIDE_STATES states on each side of the mode,
# so that its law, at its peak about _WINDOW_STATE_BYTES a state, and the
# rest of the process, _PROCESS_BASE_BYTES, stay within the memory budget
# with both sides full; the closing state is found by summing at most that
# many log-ratios, so nothing longer is allocated. `moranlimits stationary`
# peaked at 349 and 1,026 MiB of ru_maxrss over windows of 4.43 and 14.0 M
# states (74 B a state above 35 MiB), and at 36 MiB with a 10^3-state one:
# the interpreter, numpy and the package, with room kept for the
# command's other arrays.
_WINDOW_STATE_BYTES = 75
_PROCESS_BASE_BYTES = 50 * 2**20
_MAX_SIDE_STATES = (MEMORY_BUDGET - _PROCESS_BASE_BYTES) // (2 * _WINDOW_STATE_BYTES)

# Cephes ndtr.c: 1/sqrt(2), log(DBL_MAX), and the coefficients of erfc
# on [1, 8) (P / Q), on [8, inf) (R / S) and of erf on [0, 1] (T / U).
# The Q, S and U lists omit their leading coefficient 1.
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
# Entries whose approximate distance is this close to the approximate
# maximum are recomputed exactly; the approximation errs by about 1e-15.
_SUP_MARGIN = 1e-12


@dataclass(frozen=True)
class StationaryDistribution:
    """Exact stationary law pi of one finite chain, on a window of states.

    The window is the states offset, ..., offset + len(probabilities) - 1;
    pi is 0 in float64 outside it. probabilities[j] is the normalised
    exponential of the product formula's log-weight at state offset + j.
    """

    params: ModelParams
    offset: int
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
    before the first one below floor. Raises DomainError when no state
    within _MAX_SIDE_STATES of mode falls below floor.
    """
    chunks = []
    total = 0.0
    k = mode
    size = 32 * math.isqrt(params.N) + 64
    while k != end:
        room = _MAX_SIDE_STATES - abs(k - mode)
        if room == 0:
            raise DomainError(
                f"the stationary law at N = {params.N} stays above the cut for"
                f" {_MAX_SIDE_STATES:.3g} states on one side of its mode, the"
                " budget of its window; lower N"
            )
        size = min(size, room)
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
    # the log-weights, 0 at the mode, become the probabilities in place
    probabilities = np.concatenate((left[::-1], [0.0], right))
    probabilities -= probabilities.max()
    np.exp(probabilities, out=probabilities)
    probabilities /= probabilities.sum()
    return StationaryDistribution(
        params=params, offset=mode - left.size, probabilities=probabilities
    )


def brute_force_stationary(params: ModelParams) -> np.ndarray:
    """Stationary law as the null space of the transposed generator.

    Independent oracle for the product formula: builds the dense
    generator Q and solves pi Q = 0 by SVD. The null space is spanned by
    the right singular vectors past the numerical rank, which counts the
    singular values above max(shape) * eps * sigma_max (the rule of
    scipy.linalg.null_space). Dense in N, so meant for small chains.
    """
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
    _, sigma, vh = np.linalg.svd(generator.T)
    tol = np.max(sigma) * (np.finfo(float).eps * (n + 1))
    basis = vh[np.count_nonzero(sigma > tol):]
    if basis.shape[0] != 1:
        raise RuntimeError(
            f"generator null space has dimension {basis.shape[0]}, expected 1"
        )
    pi = basis[0]
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


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes polevl: the polynomial with coefficients coef, highest first, by Horner."""
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes p1evl: as _polevl with a leading coefficient 1 left out of coef."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """exp elementwise by the C library's exp, the one Cephes calls."""
    return np.array([math.exp(v) for v in x.tolist()])


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes erf on |x| <= 1; odd, so its x < 0 branch -erf(-x) changes no bit."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(x: np.ndarray, exp) -> np.ndarray:
    """Cephes erfc on x >= 1/sqrt(2), the arguments ndtr gives it; 0 where -x^2 < -MAXLOG."""
    y = np.zeros_like(x)
    near = x < 1.0
    y[near] = 1.0 - _erf(x[near])
    with np.errstate(over="ignore"):  # x^2 = inf is past MAXLOG, as it should be
        live = x * x <= _MAXLOG
    for (lo, hi), num, den in (((1.0, 8.0), _P, _Q), ((8.0, math.inf), _R, _S)):
        part = (x >= lo) & (x < hi) & live
        xp = x[part]
        y[part] = exp(-xp * xp) * _polevl(xp, num) / _p1evl(xp, den)
    return y


def _ndtr(a: np.ndarray, exp=_libm_exp) -> np.ndarray:
    """Standard normal CDF by Cephes ndtr, bit-identical to scipy.special.ndtr.

    exp evaluates exp elementwise; with np.exp in place of libm's the
    result is within a few ulps instead of exact.
    """
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.full_like(x, math.nan)
    inner = z < _SQRT1_2
    y[inner] = 0.5 + 0.5 * _erf(x[inner])
    outer = z >= _SQRT1_2  # nan in neither
    half = 0.5 * _erfc(z[outer], exp)
    y[outer] = np.where(x[outer] > 0.0, 1.0 - half, half)
    return y


def _ndtr_near(a: np.ndarray) -> np.ndarray:
    """_ndtr within about 1e-16 on ascending a (NaN last, as np.sort leaves it).

    np.exp stands in for libm's, and |a| >= 9 maps to exactly 0 or 1.
    """
    y = np.heaviside(a, 0.5)
    lo, hi = np.searchsorted(a, (-9.0, 9.0))
    y[lo:hi] = _ndtr(a[lo:hi], np.exp)
    return y


def _sup_distance(args: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> float:
    """max(max(upper - G), max(G - lower)) for G = ndtr(args), scipy's bits.

    args must be ascending, NaN last. The differences formed with
    _ndtr_near are within about 1e-15 of the exact ones, so only the
    entries within _SUP_MARGIN of their maximum are evaluated with the
    exact _ndtr. A NaN difference fails both comparisons and stays a
    candidate, so NaN reaches the result as it would from the exact arrays.
    """
    gauss = _ndtr_near(args)
    above = upper - gauss
    below = gauss - lower
    cut = max(above.max(), below.max()) - _SUP_MARGIN
    near = np.flatnonzero(~((above < cut) & (below < cut)))
    gauss = _ndtr(args[near])
    return float(max((upper[near] - gauss).max(), (gauss - lower[near]).max()))


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
    cum_before = np.concatenate(([0.0], cum[:-1]))
    return _sup_distance(support / sigma, cum, cum_before)


def ks_sample_to_gaussian(sample, sigma: float) -> float:
    """Two-sided one-sample KS statistic of sample against N(0, sigma^2).

    The empirical CDF of the sorted sample steps to i / n at its i-th
    point, so the supremum is i / n - G there or G - (i - 1) / n just
    before it. The same formula as
    scipy.stats.kstest(sample, "norm", args=(0, sigma)).statistic, and
    equal to it bit for bit, NaN included.
    """
    check_real(sigma, "sigma", 0.0, exclusive=True)
    try:
        x = np.sort(np.asarray(sample, dtype=float))
    except (TypeError, ValueError):  # ragged nesting, strings
        x = None
    if x is None or x.ndim != 1 or x.size == 0:
        raise DomainError(f"sample must be a non-empty 1-d array of reals, got {sample!r}")
    n = x.size
    return _sup_distance(x / sigma, np.arange(1.0, n + 1) / n, np.arange(0.0, n) / n)


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
    empirical = n * dist.var_z()
    if not (target > 0.0 and math.isfinite(empirical / target)):
        raise UnsupportedModelError(
            f"N Var(Z) / sigma^2 = {empirical!r} / {target!r} at N = {n}, s = {params.s!r},"
            f" u = {params.u!r}, nu0 = {params.nu0!r} is not finite: the limit variance"
            " is too small to compare the stationary law against"
        )
    support = dist.states / n
    mass_outside = float(
        dist.probabilities[np.abs(support - eq.x_stable) >= eps].sum()
    )
    return GaussianLimitReport(
        N=n,
        empirical_var_scaled=empirical,
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
