"""Channel and noise samplers plus the exact TAS/MRC composite-gain CDF.

Randomness contract: every sampler takes a numpy Generator produced by
`make_generator(RngSpec(seed, stream))`.  Identical (seed, stream) pairs
give bit-identical sequences; distinct stream indices give independent
streams.  The gains come from numpy's exponential and gamma samplers,
so a (seed, stream) pair fixes every draw bit for bit only under a given
numpy version; the Monte-Carlo checks are statistical and hold across
versions.  The gain sampler draws Gamma(n_r, 1) directly, independently of
the branch-CDF series that `tas_mrc_gain_cdf` sums.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .model import RngSpec, SystemParams

__all__ = [
    "make_generator",
    "sample_noise_power",
    "sample_rayleigh_gain",
    "sample_tas_mrc_gain",
    "tas_mrc_gain_cdf",
]


def make_generator(spec: RngSpec) -> np.random.Generator:
    """Generator for one (seed, stream) pair."""
    ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(spec.stream, 0))
    return np.random.default_rng(ss)


# Smallest trial count a Monte-Carlo estimator accepts.
_MIN_MC_SAMPLES = 1000
# Most trials drawn at once: a chunk holds a few float arrays of this length.
_MC_CHUNK = 2_000_000


def _mc_count(spec: RngSpec, n: int, count):
    """Sum of count(gen, m) over n trials, drawn in chunks of at most _MC_CHUNK.

    count draws m trials from gen, the generator of `spec`, and returns
    their hits (an int, or an array of counts).
    """
    if n < _MIN_MC_SAMPLES:
        raise ValueError(f"need at least {_MIN_MC_SAMPLES} samples, got {n}")
    gen = make_generator(spec)
    total = 0
    for done in range(0, n, _MC_CHUNK):
        total = total + count(gen, min(_MC_CHUNK, n - done))
    return total


def sample_noise_power(params: SystemParams, rng: np.random.Generator, size: int | None = None):
    """Log-uniform receiver noise power on [mu1, mu2].

    Drawn in place as sigma_n^2 e^{U ln rho}, U uniform on [-1, 1] (density
    1/(2 x ln rho)), and clipped to the support, which rounding can miss.
    """
    u = np.asarray(rng.random(size))
    u *= 2.0
    u -= 1.0
    u *= math.log(params.rho)
    np.exp(u, out=u)
    u *= params.sigma_n2
    return np.clip(u, params.mu1, params.mu2, out=u)[()]


def sample_rayleigh_gain(rng: np.random.Generator, size: int | None = None):
    """Squared Rayleigh channel gain |h|^2 ~ Exp(1)."""
    return rng.standard_exponential(size)


def sample_tas_mrc_gain(n_t: int, n_r: int, rng: np.random.Generator, size: int | None = None):
    """Composite gain under transmit antenna selection with MRC reception.

    Max over n_t candidate transmit antennas of the sum of n_r receive
    branch gains, i.e. the max of n_t i.i.d. Gamma(n_r, 1) variables.
    """
    if n_t < 1 or n_r < 1:
        raise ValueError(f"antenna counts must be >= 1, got ({n_t}, {n_r})")
    n = 1 if size is None else int(size)
    draws = rng.standard_gamma(n_r, (n, n_t))
    # The maximum column by column: `.max(axis=1)` over rows of n_t is slower.
    gain = draws[:, 0].copy()
    for column in draws.T[1:]:
        np.maximum(gain, column, out=gain)
    return gain[0] if size is None else gain


# Below this gain the branch CDF's sums run by term recurrences from 1 and
# e^{-x}: no partial sum overflows (x^j / j! < e^x) and e^{-x} is normal.
# From it on they are formed in log space: for n_r past ~500 the CDF of
# Gamma(n_r, 1) is not yet 1 at this gain.
_LOG_SPACE_GAIN = 700.0


def _branch_cdf(n_r: int, x):
    # (P, Q): the CDF of Gamma(n_r, 1), 1 - e^{-x} sum_{j<n_r} x^j / j!, and
    # its complement Q = e^{-x} sum_{j<n_r} x^j / j!, from x >= n_r on
    # formed directly, so that it keeps its relative accuracy where it is small.
    shape = np.shape(x)
    x = np.ravel(np.asarray(x, dtype=float))
    # 1 - e^{-x} * total carries an absolute error of about x * 1e-16, so
    # below n_r, where the CDF can be far smaller, the lower series
    # replaces it.
    low = x < n_r
    high_x = ~low
    cdf = np.empty_like(x)
    upper = np.empty_like(x)
    cdf[low] = _lower_series(n_r, x[low])
    upper[low] = 1.0 - cdf[low]
    # ln Q by term recurrence below _LOG_SPACE_GAIN; gains past it are
    # capped here and formed again below.
    high = np.minimum(x[high_x], _LOG_SPACE_GAIN)
    term = np.ones_like(high)
    total = np.ones_like(high)
    for j in range(1, n_r):
        term = term * high / j
        total = total + term
    upper[high_x] = -high + np.log(total)
    if x.max(initial=0.0) >= _LOG_SPACE_GAIN:
        # The sum runs from j = n_r - 1 down, scaled by that largest term;
        # x >= n_r here, so each term is below the one before it.  An
        # infinite gain becomes the largest float, where the CDF is 1.
        far = high_x & (x >= _LOG_SPACE_GAIN)
        high = np.minimum(x[far], sys.float_info.max)
        term = np.ones_like(high)
        total = np.ones_like(high)
        for j in range(n_r - 1, 0, -1):
            term = term * j / high
            total = total + term
        upper[far] = -high + (n_r - 1) * np.log(high) - math.lgamma(n_r) + np.log(total)
    cdf[high_x] = -np.expm1(upper[high_x])
    upper[high_x] = np.exp(upper[high_x])
    return cdf.reshape(shape), upper.reshape(shape)


def _lower_series(n_r: int, x: np.ndarray) -> np.ndarray:
    # e^{-x} x^{n_r} / n_r! * sum_k x^k n_r! / (n_r + k)!; below n_r/2 each
    # term is less than half the one before it, and below n_r it converges.
    lead = np.exp(-x)
    for j in range(1, n_r + 1):
        lead = lead * x / j
    last = float(x.max(initial=0.0))
    if last >= _LOG_SPACE_GAIN:
        # e^{-x} is subnormal past ~708, so from _LOG_SPACE_GAIN on the
        # leading factor is formed in log space.
        far = x >= _LOG_SPACE_GAIN
        lead[far] = np.exp(-x[far] + n_r * np.log(x[far]) - math.lgamma(n_r + 1))
    # The sum stops where the same recurrence, run at the largest x, first
    # gives a term below 1e-17.  Each term rises with x and each total is
    # at least 1, so every term left out is below half an ulp of its total.
    top, k = 1.0, n_r
    while top >= 1e-17:
        k += 1
        top = top * last / k
    term = np.ones_like(x)
    total = np.ones_like(x)
    for j in range(n_r + 1, k):
        term = term * x / j
        total = total + term
    return lead * total


def tas_mrc_gain_cdf(n_t: int, n_r: int, x):
    """Exact CDF of sample_tas_mrc_gain: the branch CDF to the n_t power."""
    if n_t < 1 or n_r < 1:
        raise ValueError(f"antenna counts must be >= 1, got ({n_t}, {n_r})")
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0):  # also rejects NaN
        raise ValueError("gain must be >= 0")
    value = _branch_cdf(n_r, arr)[0] ** n_t
    return float(value) if np.isscalar(x) or arr.ndim == 0 else value


def _tas_mrc_gain_cdf_sf(n_t: int, n_r: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (F, 1 - F) for the gains x >= 0, F = `tas_mrc_gain_cdf(n_t, n_r, x)`;
    # 1 - F = -expm1(n_t log1p(-Q)) keeps its relative accuracy where F is near 1.
    cdf, upper = _branch_cdf(n_r, x)
    with np.errstate(divide="ignore"):  # Q = 1 where F = 0
        return cdf**n_t, -np.expm1(n_t * np.log1p(-upper))

