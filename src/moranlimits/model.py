"""Two-type Moran model: parameters and transition rates.

A population of N individuals carries one of two types. Type-0
individuals reproduce at rate 1 + s, type-1 individuals at rate 1, and
each offspring replaces a uniformly chosen individual. Independently,
every individual mutates into type j at rate u * nu_j. The number of
type-0 individuals is then a birth-death chain on {0, ..., N} whose
rates scale with N through a density-dependent kernel: with p = k / N,

    birth rate   lambda_k = N * q(p, +1),   q(p, +1) = (1+s) p (1-p) + u nu0 (1-p)
    death rate   mu_k     = N * q(p, -1),   q(p, -1) = p (1-p) + u nu1 p

and q(p, jump) = 0 for any other jump size.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Iterator, Optional, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

ArrayLike = Union[float, np.ndarray]


# Largest accepted s and u. The drift discriminant (s - u)^2 + 4 s u nu0
# overflows a float from about 6e153; this cap keeps it, and every rate
# built from s and u, finite.
MAX_RATE = 1e150

# Bytes a command may hold at once (1 GiB): config refuses an ensemble
# predicted over it before any work, and stationary closes each window
# of the law within it.
MEMORY_BUDGET = 2**30

# Most paths an ensemble may draw on the streams [seed, p]: _path_states
# hashes each path index as one uint32 word.
MAX_PATHS = 2**32


class DomainError(ValueError):
    """An argument lies outside the domain the operation is defined on."""


class UnsupportedModelError(ValueError):
    """The parameter regime does not define the requested quantity."""


def check_int(value, name: str, minimum: Optional[int] = None, maximum: Optional[int] = None) -> int:
    """An integer (not a bool) within [minimum, maximum], returned as int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{name} must be <= {maximum}, got {value}")
    return int(value)


def check_real(
    value, name: str, minimum: float = -math.inf, maximum: float = math.inf, exclusive: bool = False
) -> float:
    """A finite real number (not a bool) within [minimum, maximum], returned as float.

    With exclusive=True both ends are left out, so minimum=0,
    exclusive=True asks for a positive number.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if not (minimum < number < maximum if exclusive else minimum <= number <= maximum):
        ends = "()" if exclusive else "[]"
        raise DomainError(
            f"{name} must lie in {ends[0]}{minimum:g}, {maximum:g}{ends[1]}, got {number!r}"
        )
    return number


def check_seed(seed, sequence: bool = False):
    """An rng seed: an integer >= 0; with sequence=True also a list or tuple of them.

    Ensembles take one integer, since path p runs on the stream
    [seed, p]; a single path may take any numpy seed entropy.
    """
    if sequence and isinstance(seed, (list, tuple)):
        for value in seed:
            check_int(value, "rng_seed entries", minimum=0)
        return seed
    return check_int(seed, "rng_seed", minimum=0)


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of
# four uint32 words, filled and mixed by hashmix/mix, then read out by
# generate_state. Arithmetic wraps modulo 2^32.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


class _PathState(ISeedSequence):
    """A seed sequence that hands PCG64 one precomputed state.

    PCG64 asks its seed sequence for generate_state(4, np.uint64) once,
    when it is built; no other request is served.
    """

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"a path state holds 4 uint64 words, got a request for {n_words} {np.dtype(dtype)}"
            )
        return self._words


def _path_states(rng_seed: int, n_paths: int) -> np.ndarray:
    """SeedSequence([rng_seed, p]).generate_state(4, np.uint64) for p < n_paths, one row each.

    The hash runs on uint32 arrays over all paths at once. Its constants
    do not depend on the data, so they advance as Python ints. The
    entropy of path p is the uint32 words of rng_seed (least significant
    first; 0 is one word) followed by p, one word below 2^32. Beyond
    2^32 paths a path index takes two uint32 words, which the hash here
    does not cover.
    """
    if n_paths > MAX_PATHS:
        raise DomainError(f"n_paths must be <= 2**32 to draw per-path streams, got {n_paths}")
    seed_words = []
    while True:
        seed_words.append(rng_seed & _MASK32)
        rng_seed >>= 32
        if not rng_seed:
            break
    entropy = [np.full(n_paths, word, dtype=np.uint32) for word in seed_words]
    entropy.append(np.arange(n_paths, dtype=np.uint32))

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> _XSHIFT
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        result ^= result >> _XSHIFT
        return result

    zero = np.zeros(n_paths, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    states = np.empty((n_paths, 4), dtype=np.uint64)
    for i in range(8):  # uint32 words lo, hi of each uint64 word lo | hi << 32
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        value ^= value >> _XSHIFT
        if i % 2 == 0:
            states[:, i // 2] = value
        else:
            states[:, i // 2] |= value.astype(np.uint64) << 32
    return states


def path_generators(rng_seed: int, n_paths: int) -> Iterator[np.random.Generator]:
    """The generators default_rng([rng_seed, p]) builds, for p = 0 .. n_paths - 1 in order.

    rng_seed is an integer >= 0 (check_seed). Every path's PCG64 state
    is hashed up front in one vectorised pass; each generator is built
    from its state by numpy's own PCG64 as it is taken.
    """
    states = _path_states(rng_seed, n_paths)
    return (np.random.Generator(np.random.PCG64(_PathState(row))) for row in states)


def check_times(times, name: str, maximum: float = math.inf) -> tuple[np.ndarray, bool]:
    """Finite times in [0, maximum] as a 1-d array, and whether times was a scalar."""
    arr = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if np.any(arr < 0.0) or np.any(arr > maximum):
        raise DomainError(f"{name} must lie in [0, {maximum}]")
    return np.atleast_1d(arr), arr.ndim == 0


def check_grid(times, name: str = "t_grid") -> np.ndarray:
    """A non-empty, finite, non-negative, strictly increasing 1-d time grid."""
    try:
        grid = np.asarray(times, dtype=float)
    except (TypeError, ValueError):  # ragged nesting, strings
        raise DomainError(f"{name} must be a 1-d sequence of times, got {times!r}") from None
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError(f"{name} must be a non-empty 1-d sequence, got {times!r}")
    if not np.all(np.isfinite(grid)) or grid[0] < 0.0:
        raise DomainError(f"{name} must be finite and >= 0")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError(f"{name} must be strictly increasing")
    return grid


# A remainder of at most this fraction of the step is rounding debris.
REMAINDER_EPS = 1e-9


def time_grid(t_end: float, step: float) -> np.ndarray:
    """Nodes i * step up to t_end, then t_end, replacing a last node within REMAINDER_EPS * step."""
    n_full = int(t_end / step)
    times = np.arange(n_full + 1) * step
    if t_end - n_full * step > REMAINDER_EPS * step:
        return np.append(times, t_end)
    times[-1] = t_end
    return times


@dataclass(frozen=True)
class ModelParams:
    """Parameter quadruple of one model instance.

    Attributes:
        N: population size, integer >= 1.
        s: selective advantage of type 0, in [0, MAX_RATE].
        u: total mutation rate per individual, in [0, MAX_RATE].
        nu0: probability that a mutation produces type 0, strictly
            inside (0, 1). The type-1 probability is always derived as
            nu1 = 1 - nu0 so the pair sums to one exactly.
    """

    N: int
    s: float
    u: float
    nu0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "N", check_int(self.N, "N", minimum=1))
        object.__setattr__(self, "s", check_real(self.s, "s", 0.0, MAX_RATE))
        object.__setattr__(self, "u", check_real(self.u, "u", 0.0, MAX_RATE))
        object.__setattr__(self, "nu0", check_real(self.nu0, "nu0", 0.0, 1.0, exclusive=True))

    @property
    def nu1(self) -> float:
        return 1.0 - self.nu0


def require_mutation(params: ModelParams) -> None:
    """Raise UnsupportedModelError unless both mutation rates u nu0 and u nu1 are > 0.

    The fluctuation and stationary laws need them. u > 0 alone is not
    enough: a product u nu_j that underflows to 0 leaves a boundary
    state absorbing just as u = 0 does.
    """
    if params.u <= 0.0:
        raise UnsupportedModelError(
            "u = 0 makes the boundary states absorbing: the noise floor is 0 and no"
            " stationary law exists, so the fluctuation and stationary laws need u > 0"
        )
    if not (params.u * params.nu0 > 0.0 and params.u * params.nu1 > 0.0):
        raise UnsupportedModelError(
            f"u * nu0 = {params.u * params.nu0!r} and u * nu1 = {params.u * params.nu1!r}"
            f" at u = {params.u!r}, nu0 = {params.nu0!r}: a mutation rate that underflows"
            " to 0 makes a boundary state absorbing, so the fluctuation and stationary"
            " laws need both products > 0"
        )


def kernel_q(p: ArrayLike, params: ModelParams) -> tuple[ArrayLike, ArrayLike]:
    """Rescaled jump kernel (q(p, +1), q(p, -1)) of the density-dependent chain.

    Only the jumps +1 and -1 carry rate; q(p, jump) = 0 for any other.

    Args:
        p: type-0 proportion, a float or an array (possibly empty), every
            entry in [0, 1].
        params: model parameters (N is not used here).

    Returns:
        The per-capita up and down rate densities, each shaped like p.
    """
    arr = np.asarray(p, dtype=float)
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails too
        raise DomainError(f"p must lie in [0, 1], got {p!r}")
    up = (1.0 + params.s) * p * (1.0 - p) + params.u * params.nu0 * (1.0 - p)
    down = p * (1.0 - p) + params.u * params.nu1 * p
    return up, down


def max_jump_rate(params: ModelParams) -> float:
    """Largest total jump rate per individual, max over p in [0, 1] of q(p, +1) + q(p, -1).

    The sum (2 + s) p (1 - p) + u nu0 (1 - p) + u nu1 p is a concave
    quadratic in p, so the maximum sits at its vertex
    1/2 + u (nu1 - nu0) / (2 (2 + s)), clipped to [0, 1]. N times it
    bounds every state's total event rate.
    """
    vertex = 0.5 + params.u * (params.nu1 - params.nu0) / (2.0 * (2.0 + params.s))
    up, down = kernel_q(min(max(vertex, 0.0), 1.0), params)
    return up + down


def rate_tables(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Birth and death rates (lambda_k, mu_k) of the finite chain at every state 0..N.

    Returns arrays (lam, mu) = N * kernel_q(k / N, params) over k = 0..N,
    so the density-dependence identity holds exactly, not merely up to
    rounding. lam[N] = 0 and mu[0] = 0 always; for u = 0 the boundary
    states 0 and N are absorbing.
    """
    n = params.N
    lam, mu = kernel_q(np.arange(n + 1) / n, params)
    lam *= n  # in place: the same products as n * lam, without a second table
    mu *= n
    return lam, mu
