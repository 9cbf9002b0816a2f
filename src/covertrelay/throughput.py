"""Outage probability and covert throughput for both antenna scenarios.

The single-antenna outage has a compact closed form in Ei differences.
The TAS/MRC outage is the mean of the exact composite-gain CDF over the
log-uniform noise (the reference path).  `noise_expectation` evaluates
that mean for an array of thresholds with a fixed Gauss-Legendre rule in
the noise exponent (split into equal panels above rho = 1e6, one more per
factor 1e6): each value is computed with 64 and 128 nodes per panel, and
any whose two values differ by more than 1e-12 is recomputed with twice
the nodes, up to 1024, before NumericError is raised.  The published
combinatorial expansion of the integral is also evaluated verbatim,
solely to feed the discrepancy report, because it contains sub-terms
that are undefined or inconsistent as printed.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import RngSpec, _mc_count, sample_noise_power, sample_tas_mrc_gain, tas_mrc_gain_cdf
from .errors import NumericError, clamp_unit_interval
from .model import McEstimate, RateParams, SystemParams
from .specfun import _ein, ei_diff, upper_gamma

__all__ = [
    "ThroughputOutcome",
    "PaperFormulaValue",
    "capacity_hop",
    "outage_hop_single",
    "throughput_single",
    "noise_expectation",
    "outage_hop_multi_reference",
    "outage_hop_multi_paper",
    "throughput_multi",
    "mc_outage_hop",
]

_MC_CHUNK = 1_000_000


@dataclass(frozen=True)
class ThroughputOutcome:
    """Per-hop outages, end-to-end outage, and covert throughput."""

    p_out_hop1: float
    p_out_hop2: float
    p_out: float
    eta: float
    t: float

    def __post_init__(self) -> None:
        for name in ("p_out_hop1", "p_out_hop2", "p_out"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be a probability, got {v}")
        expected_out = 1.0 - (1.0 - self.p_out_hop1) * (1.0 - self.p_out_hop2)
        if self.p_out != expected_out:
            raise ValueError(f"p_out = {self.p_out!r} != combined per-hop value {expected_out!r}")
        if self.eta != self.t * (1.0 - self.p_out):
            raise ValueError(f"eta = {self.eta!r} != t*(1 - p_out)")
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")

    @classmethod
    def combine(cls, hop1: float, hop2: float, t: float) -> "ThroughputOutcome":
        p_out = 1.0 - (1.0 - hop1) * (1.0 - hop2)
        return cls(hop1, hop2, p_out, t * (1.0 - p_out), t)


@dataclass(frozen=True)
class PaperFormulaValue:
    """Verbatim-formula evaluation: either a value or a domain violation."""

    value: float | None
    violation: str | None = None

    @property
    def ok(self) -> bool:
        return self.violation is None


def capacity_hop(p: float, gain: float, sigma2: float) -> float:
    """Half-duplex hop capacity 0.5 * log2(1 + p * gain / sigma2)."""
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")
    if p <= 0 or gain < 0:
        raise ValueError(f"invalid p={p} or gain={gain}")
    return 0.5 * math.log2(1.0 + p * gain / sigma2)


def outage_hop_single(p: float, rate: RateParams, params: SystemParams) -> float:
    """Single-antenna hop outage probability, closed form."""
    if p <= 0:
        raise ValueError(f"p must be > 0, got {p}")
    if rate.t == 0.0:
        return 0.0
    kappa = rate.kappa
    x2 = kappa * params.mu2 / p
    if x2 == math.inf:
        return 1.0  # the SNR threshold exceeds the float range: certain outage
    x1 = kappa * params.mu1 / p
    if min(kappa * params.mu1, x1) >= sys.float_info.min:
        value = 1.0 - ei_diff(x2, x1) / (2.0 * math.log(params.rho))
    else:
        # A subnormal product loses the Ei gap's precision; the outage is also
        # (Ein(x2) - Ein(x1)) / (2 ln rho), with x = kappa mu / p formed from
        # mantissas and exponents so that no subnormal or overflow enters it.
        (mk, ek), (mp, ep) = math.frexp(kappa), math.frexp(p)
        x1, x2 = (math.ldexp(mk * mu / mp, ek - ep) for mu in (params.mu1, params.mu2))
        value = (_ein(x2) - _ein(x1)) / (2.0 * math.log(params.rho))
    return clamp_unit_interval(value, "outage_hop_single")


def throughput_single(params: SystemParams, rate: RateParams) -> ThroughputOutcome:
    """Covert throughput of the two-hop link with single antennas."""
    hop1 = outage_hop_single(params.p_s, rate, params)
    hop2 = outage_hop_single(params.p_r, rate, params)
    return ThroughputOutcome.combine(hop1, hop2, rate.t)


# Gauss-Legendre node counts of noise_expectation: the first estimate, and
# the most nodes refinement may reach.  Two estimates a factor 2 apart in
# node count must agree to _GL_TOL.
_GL_FIRST, _GL_MAX = 64, 1024
_GL_TOL = 1e-12
# The rule has one panel in s per factor _PANEL_RHO of rho: one panel up
# to rho = 1e6, where 512 nodes resolve every outage.
_PANEL_RHO = 1e6
# Gain evaluations per block, keeping the kernel's temporaries small.
_GL_BLOCK = 2**15


@functools.cache
def _gl_rule(n: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    # n-node Gauss-Legendre rule on each of `panels` equal parts of [-1, 1],
    # weights scaled to give a mean.
    s, w = np.polynomial.legendre.leggauss(n)
    s = ((2 * np.arange(panels) + 1 - panels)[:, None] + s).ravel() / panels
    return s, np.tile(w, panels) / (2 * panels)


def _gl_refine(mean, size: int, rho: float, what) -> np.ndarray:
    """mean(s, w, todo) for todo = arange(size), refined by node doubling.

    (s, w) is the `_gl_rule` with one panel per factor _PANEL_RHO of rho.
    NumericError names what(i) of the first value i still unresolved.
    """
    panels = math.ceil(math.log(rho) / math.log(_PANEL_RHO))
    out = np.empty(size)
    todo = np.arange(size)
    n = _GL_FIRST
    coarse = mean(*_gl_rule(n, panels), todo)
    while todo.size:
        if 2 * n > _GL_MAX:
            raise NumericError(f"{what(todo[0])} unresolved with {n} nodes per panel")
        fine = mean(*_gl_rule(2 * n, panels), todo)
        done = np.abs(fine - coarse) <= _GL_TOL
        out[todo[done]] = fine[done]
        todo, coarse = todo[~done], fine[~done]
        n *= 2
    return out


def _gl_mean(n_t: int, n_r: int, y: np.ndarray, s: np.ndarray, w: np.ndarray,
             params: SystemParams) -> np.ndarray:
    noise = params.sigma_n2 * params.rho**s
    rows = max(1, _GL_BLOCK // s.size)
    out = np.empty(y.size)
    for i in range(0, y.size, rows):
        # A gain threshold past the float range is inf, where the CDF is 1.
        with np.errstate(over="ignore"):
            gain = np.multiply.outer(y[i : i + rows], noise)
        gain_cdf = tas_mrc_gain_cdf(n_t, n_r, gain)
        # A row sum, not a matrix product: each value is then independent
        # of the rows computed with it.
        out[i : i + rows] = (gain_cdf * w).sum(axis=1)
    return out


def noise_expectation(n_t: int, n_r: int, y, params: SystemParams) -> np.ndarray:
    """E_s[F(y sigma^2 rho^s)] for each y >= 0, with s uniform on [-1, 1].

    F is `tas_mrc_gain_cdf(n_t, n_r, .)`, so at y = kappa / p this is the
    hop outage at power p.  Gauss-Legendre in s, with the error estimate
    and refinement the module docstring describes; raises NumericError
    where 512 and 1024 nodes per panel still disagree.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    out = _gl_refine(lambda s, w, todo: _gl_mean(n_t, n_r, flat[todo], s, w, params), flat.size,
                     params.rho, lambda i: f"TAS/MRC noise expectation at y = {flat[i]}")
    # The weights sum to 1 only up to rounding.
    return np.minimum(out, 1.0).reshape(y.shape)


def outage_hop_multi_reference(
    p: float, rate: RateParams, params: SystemParams, n_t: int, n_r: int
) -> float:
    """TAS/MRC hop outage: E over noise of the composite-gain CDF.

    The outage event {capacity < T} is {gain < kappa * sigma^2 / p}; its
    mean over the log-uniform noise power is `noise_expectation` at
    kappa / p.
    """
    if p <= 0:
        raise ValueError(f"p must be > 0, got {p}")
    if rate.t == 0.0:
        return 0.0
    kappa = rate.kappa
    if kappa == math.inf:
        return 1.0
    return float(noise_expectation(n_t, n_r, kappa / p, params))


def outage_hop_multi_paper(
    p: float,
    rate: RateParams,
    params: SystemParams,
    n_t: int,
    n_r: int,
    interpretation: str = "ln_rho_sq_arg",
) -> PaperFormulaValue:
    """Verbatim published combinatorial TAS/MRC outage form.

    Evaluated exactly as printed, for the discrepancy report only.  Known
    defects are surfaced, never repaired: the inner sum's (j-1) factor
    produces a negative incomplete-gamma argument at j = 0, and the
    gamma order n_r - 1 degenerates at n_r = 1.  `interpretation`
    selects the reading of the ambiguous trailing log factor:
    "ln_rho_sq_arg" for ln(rho^2), "ln_rho_sq_whole" for (ln rho)^2.
    """
    if interpretation not in ("ln_rho_sq_arg", "ln_rho_sq_whole"):
        raise ValueError(f"unknown interpretation {interpretation!r}")
    if p <= 0:
        raise ValueError(f"p must be > 0, got {p}")
    kappa = rate.kappa
    rho = params.rho
    mu1, mu2 = params.mu1, params.mu2
    if interpretation == "ln_rho_sq_arg":
        try:
            log_term = math.log(rho**2)
        except OverflowError:  # rho > ~1.34e154, where rho**2 leaves the float range
            log_term = 2.0 * math.log(rho)
    else:
        log_term = math.log(rho) ** 2
    if n_r == 1:
        return PaperFormulaValue(None, "formula-domain-violation: incomplete gamma of order 0")
    if kappa == 0.0:
        return PaperFormulaValue(
            None, "formula-domain-violation: zero SNR threshold raised to a negative power"
        )
    total = 0.0
    for s in range(n_t):
        sign = -1.0 if s % 2 else 1.0
        outer = sign * math.comb(n_t - 1, s)
        for k in range(s * (n_t - 1) + 1):
            omega = n_r + k - 1
            inner = 0.0
            for j in range(omega + 1):
                # The gamma argument (j - 1) kappa mu / p is negative at j = 0 (kappa > 0
                # here): tested on j, before a coefficient that can overflow there.
                if j < 1:
                    return PaperFormulaValue(
                        None,
                        "formula-domain-violation: negative incomplete-gamma "
                        f"argument at j={j}",
                    )
                if j == 1:
                    continue  # the (j - 1) factor is exactly zero
                coeff = (
                    math.factorial(j)
                    * math.comb(omega, j)
                    / (s + 1) ** (j + 1)
                    * (kappa / p) ** (omega - j)
                    * (kappa / p) ** (-(n_r - 1))
                )
                arg2 = (j - 1) * kappa * mu2 / p
                arg1 = (j - 1) * kappa * mu1 / p
                inner += coeff * (j - 1) * (upper_gamma(n_r - 1, arg2) - upper_gamma(n_r - 1, arg1))
            inner += omega * log_term / (s + 1) ** (n_r + k)
            total += outer * inner
    prefactor = n_t / (2.0 * math.log(rho) * math.factorial(n_r - 1))
    return PaperFormulaValue(prefactor * total)


def throughput_multi(params: SystemParams, rate: RateParams) -> ThroughputOutcome:
    """Covert throughput of the two-hop link under TAS/MRC."""
    ant = params.antennas
    hop1 = outage_hop_multi_reference(params.p_s, rate, params, ant.n_s, ant.n_rr)
    hop2 = outage_hop_multi_reference(params.p_r, rate, params, ant.n_rt, ant.n_d)
    return ThroughputOutcome.combine(hop1, hop2, rate.t)


def mc_outage_hop(
    p: float,
    rate: RateParams,
    params: SystemParams,
    n_t: int,
    n_r: int,
    n: int,
    rng: RngSpec,
) -> McEstimate:
    """Monte-Carlo hop outage: fraction of trials with capacity below T."""
    if p <= 0:
        raise ValueError(f"p must be > 0, got {p}")
    kappa = rate.kappa

    def count(gen, m):
        gain = sample_tas_mrc_gain(n_t, n_r, gen, m)
        sigma2 = sample_noise_power(params, gen, m)
        # capacity < T  <=>  p * gain < kappa * sigma2
        return int(np.count_nonzero(p * gain < kappa * sigma2))

    p_hat = _mc_count(rng, n, _MC_CHUNK, count) / n
    return McEstimate(p_hat, math.sqrt(p_hat * (1.0 - p_hat) / n), n, rng.seed)
