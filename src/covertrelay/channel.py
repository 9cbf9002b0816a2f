"""Channel and noise samplers plus the exact TAS/MRC composite-gain CDF.

Randomness contract: every sampler takes a numpy Generator produced by
`make_generator(RngSpec(seed, stream))`.  Identical (seed, stream) pairs
give bit-identical sequences; distinct stream indices give independent
streams.  Exponentials are drawn by inverse CDF from the uniform stream
so the sequences are reproducible across numpy versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemParams

__all__ = [
    "RngSpec",
    "make_generator",
    "sample_noise_power",
    "sample_rayleigh_gain",
    "sample_tas_mrc_gain",
    "tas_mrc_gain_cdf",
    "tas_mrc_gain_pdf",
]


@dataclass(frozen=True)
class RngSpec:
    """Seed plus substream index identifying one reproducible stream."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.stream < 0:
            raise ValueError(f"stream index must be >= 0, got {self.stream}")


def make_generator(spec: RngSpec) -> np.random.Generator:
    """Generator for one (seed, stream) pair."""
    ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(spec.stream, 0))
    return np.random.default_rng(ss)


# Smallest trial count a Monte-Carlo estimator accepts.
_MIN_MC_SAMPLES = 1000


def _mc_count(spec: RngSpec, n: int, chunk: int, count):
    """Sum of count(gen, m) over n trials, drawn in chunks of at most `chunk`.

    count draws m trials from gen, the generator of `spec`, and returns
    their hits (an int, or an array of counts).
    """
    if n < _MIN_MC_SAMPLES:
        raise ValueError(f"need at least {_MIN_MC_SAMPLES} samples, got {n}")
    gen = make_generator(spec)
    total = 0
    for done in range(0, n, chunk):
        total = total + count(gen, min(chunk, n - done))
    return total


def sample_noise_power(params: SystemParams, rng: np.random.Generator, size: int | None = None):
    """Log-uniform receiver noise power on [mu1, mu2].

    Drawn as sigma_n^2 * rho^U with U uniform on [-1, 1]; the implied
    density is 1/(2 x ln rho) on the support.
    """
    u = rng.random(size)
    return params.sigma_n2 * params.rho ** (2.0 * u - 1.0)


def sample_rayleigh_gain(rng: np.random.Generator, size: int | None = None):
    """Squared Rayleigh channel gain |h|^2 ~ Exp(1), via inverse CDF."""
    u = rng.random(size)
    return -np.log1p(-u)


def sample_tas_mrc_gain(n_t: int, n_r: int, rng: np.random.Generator, size: int | None = None):
    """Composite gain under transmit antenna selection with MRC reception.

    Max over n_t candidate transmit antennas of the sum of n_r receive
    branch gains, i.e. the max of n_t i.i.d. Gamma(n_r, 1) variables.
    """
    if n_t < 1 or n_r < 1:
        raise ValueError(f"antenna counts must be >= 1, got ({n_t}, {n_r})")
    n = 1 if size is None else int(size)
    branch = sample_rayleigh_gain(rng, (n, n_t, n_r))
    gain = branch.sum(axis=2).max(axis=1)
    return gain[0] if size is None else gain


# Gains are capped here before the branch CDF: below it no partial sum
# overflows (x^j / j! < e^x), and at it the CDF of Gamma(n_r, 1) is 1 to
# double precision for every n_r up to 400.
_GAIN_CAP = 700.0


def _branch_cdf(n_r: int, x):
    # CDF of Gamma(n_r, 1): 1 - e^{-x} sum_{j<n_r} x^j / j!, by term recurrence.
    shape = np.shape(x)
    x = np.minimum(np.ravel(np.asarray(x, dtype=float)), _GAIN_CAP)
    # 1 - e^{-x} * total carries an absolute error of about x * 1e-16, so
    # below n_r, where the CDF can be far smaller, the lower series
    # replaces it.
    low = x < n_r
    cdf = np.empty_like(x)
    cdf[low] = _lower_series(n_r, x[low])
    high = x[~low]
    term = np.ones_like(high)
    total = np.ones_like(high)
    for j in range(1, n_r):
        term = term * high / j
        total = total + term
    cdf[~low] = -np.expm1(-high + np.log(total))
    return cdf.reshape(shape)


def _lower_series(n_r: int, x: np.ndarray) -> np.ndarray:
    # e^{-x} x^{n_r} / n_r! * sum_k x^k n_r! / (n_r + k)!; below n_r/2 each
    # term is less than half the one before it, and below n_r it converges.
    lead = np.exp(-x)
    for j in range(1, n_r + 1):
        lead = lead * x / j
    term = np.ones_like(x)
    total = np.ones_like(x)
    k = n_r
    while True:
        k += 1
        term = term * x / k
        if np.all(term < 1e-17 * total):
            return lead * total
        total = total + term


def tas_mrc_gain_cdf(n_t: int, n_r: int, x):
    """Exact CDF of sample_tas_mrc_gain: the branch CDF to the n_t power."""
    if n_t < 1 or n_r < 1:
        raise ValueError(f"antenna counts must be >= 1, got ({n_t}, {n_r})")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("gain must be >= 0")
    value = _branch_cdf(n_r, arr) ** n_t
    return float(value) if np.isscalar(x) or arr.ndim == 0 else value


def tas_mrc_gain_pdf(n_t: int, n_r: int, x):
    """Density of the composite gain: n_t F^(n_t-1) times the branch density."""
    if n_t < 1 or n_r < 1:
        raise ValueError(f"antenna counts must be >= 1, got ({n_t}, {n_r})")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("gain must be >= 0")
    # Capped at the largest float, where the density is 0 (at inf it would be inf - inf).
    gain = np.minimum(arr, np.finfo(float).max)
    if n_r == 1:
        branch_pdf = np.exp(-gain)
    else:
        log_gain = np.log(gain, where=gain > 0, out=np.full_like(gain, -np.inf))
        branch_pdf = np.exp((n_r - 1) * log_gain - gain) / math.factorial(n_r - 1)
    value = n_t * _branch_cdf(n_r, arr) ** (n_t - 1) * branch_pdf
    return float(value) if np.isscalar(x) or arr.ndim == 0 else value
