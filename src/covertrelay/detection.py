"""Warden-side detection error probability (DEP) of the radiometer.

Three parallel evaluation paths per quantity:
  * a semi-analytic quadrature reference (the in-repo arbiter),
  * the closed forms built on the exponential-integral machinery,
  * a seeded Monte-Carlo estimator (the final oracle in the tests).

The warden compares the slot-average received power against a threshold
tau while knowing its own noise power only up to the multiplicative
uncertainty rho; false alarm and missed detection together form the DEP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .channel import RngSpec, _mc_count, sample_noise_power, sample_rayleigh_gain
from .errors import NumericError, clamp_unit_interval
from .model import McEstimate, SystemParams

__all__ = [
    "DetectionOutcome",
    "noise_cdf",
    "dep_slot_reference",
    "dep_slot_paper",
    "optimal_threshold",
    "min_dep_slot",
    "min_dep_two_hop",
    "mc_dep_slot",
    "mc_dep_two_hop",
]

_MC_CHUNK = 2_000_000


@dataclass(frozen=True)
class DetectionOutcome:
    """Threshold, per-slot DEPs and the combined two-hop DEP."""

    tau: float
    pe1: float
    pe2: float
    xi: float

    def __post_init__(self) -> None:
        for name in ("pe1", "pe2", "xi"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be a probability, got {v}")
        expected = 1.0 - (1.0 - self.pe1) * (1.0 - self.pe2)
        if self.xi != expected:
            raise ValueError(f"xi = {self.xi!r} does not equal 1-(1-pe1)(1-pe2) = {expected!r}")

    @classmethod
    def combine(cls, tau: float, pe1: float, pe2: float) -> "DetectionOutcome":
        return cls(tau, pe1, pe2, 1.0 - (1.0 - pe1) * (1.0 - pe2))


def noise_cdf(x: float, params: SystemParams) -> float:
    """CDF of the log-uniform noise power, clamped to [0, 1] outside support."""
    if x <= params.mu1:
        return 0.0
    if x >= params.mu2:
        return 1.0
    return math.log(x / params.mu1) / (2.0 * math.log(params.rho))


def dep_slot_reference(p: float, tau: float, params: SystemParams) -> float:
    """Per-slot DEP by direct quadrature of the defining probabilities.

    P_FA = P(noise > tau); P_MD = E_y[F_noise(tau - y)] with the received
    covert power y exponentially distributed with mean p.  This path is
    the arbiter against which the closed forms are validated.
    """
    if p <= 0 or tau <= 0:
        raise ValueError(f"p and tau must be > 0, got ({p}, {tau})")
    mu1, mu2 = params.mu1, params.mu2
    if tau <= mu1:
        return 1.0
    p_fa = 1.0 - noise_cdf(tau, params)
    # Tail where F_noise(tau - y) = 1, i.e. y <= tau - mu2.
    p_md = -math.expm1(-(tau - mu2) / p) if tau > mu2 else 0.0
    lo = max(tau - mu2, 0.0)
    hi = tau - mu1

    def integrand(y: float) -> float:
        return noise_cdf(tau - y, params) * math.exp(-y / p) / p

    value, abserr = integrate.quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    if abserr > 1e-10:
        raise NumericError(
            f"slot-DEP quadrature error {abserr} exceeds 1e-10 at p={p}, tau={tau}"
        )
    p_md += value
    return clamp_unit_interval(p_fa + p_md, "dep_slot_reference")


def _scaled_ei_gap(u: float, v: float) -> float:
    """e^(-u) * [Ei(u) - Ei(v)] for u > v > 0, overflow-safe."""
    from .specfun import expint_ei_scaled

    return expint_ei_scaled(u) - math.exp(v - u) * expint_ei_scaled(v)


def dep_slot_paper(p: float, tau: float, params: SystemParams) -> float:
    """Per-slot DEP via the piecewise closed form.

    The middle branch (mu1 < tau <= mu2) is the closed form of the
    defining integrals and must match dep_slot_reference to 1e-9.  The
    tau > mu2 branch reproduces a published variant verbatim for the
    discrepancy report; it is known to disagree with the reference (its
    tau -> inf limit is not 1) and is never clamped here.
    """
    if p <= 0 or tau <= 0:
        raise ValueError(f"p and tau must be > 0, got ({p}, {tau})")
    mu1, mu2 = params.mu1, params.mu2
    two_ln_rho = 2.0 * math.log(params.rho)
    if tau <= mu1:
        return 1.0
    if tau <= mu2:
        return 1.0 - _scaled_ei_gap(tau / p, mu1 / p) / two_ln_rho
    from .specfun import expint_ei_scaled

    # Verbatim transcription of the tau > mu2 branch, each e^{-tau/p} * Ei(x/p)
    # product carried in scaled form so large tau/p cannot overflow.
    bracket = (
        math.exp((mu1 - tau) / p) * expint_ei_scaled(mu1 / p)
        + math.exp((mu2 - tau) / p) * expint_ei_scaled(mu2 / p)
        - math.exp((mu1 - tau) / p) * math.log(mu1)
        + math.exp((mu2 - tau) / p) * math.log(mu2)
    )
    return 1.0 - (bracket + 1.0) / two_ln_rho


def optimal_threshold(params: SystemParams) -> float:
    """Warden threshold minimizing the per-slot DEP: the upper noise bound."""
    return params.rho * params.sigma_n2


def min_dep_slot(p: float, params: SystemParams) -> float:
    """Minimum per-slot DEP, i.e. the DEP at the optimal threshold."""
    if p <= 0:
        raise ValueError(f"p must be > 0, got {p}")
    two_ln_rho = 2.0 * math.log(params.rho)
    value = 1.0 - _scaled_ei_gap(params.mu2 / p, params.mu1 / p) / two_ln_rho
    return clamp_unit_interval(value, "min_dep_slot")


def min_dep_two_hop(params: SystemParams) -> float:
    """Minimum two-hop DEP: the warden must win in both slots."""
    pe1 = min_dep_slot(params.p_s, params)
    pe2 = min_dep_slot(params.p_r, params)
    return 1.0 - (1.0 - pe1) * (1.0 - pe2)


def mc_dep_slot(
    p: float,
    tau: float,
    params: SystemParams,
    n: int,
    rng: RngSpec,
    workers: int = 1,
) -> McEstimate:
    """Monte-Carlo per-slot DEP: mean(FA) + mean(MD) on independent draws."""
    if p <= 0 or tau <= 0:
        raise ValueError(f"p and tau must be > 0, got ({p}, {tau})")

    def count(gen, m):
        noise_fa = sample_noise_power(params, gen, m)
        noise_md = sample_noise_power(params, gen, m)
        gain = sample_rayleigh_gain(gen, m)
        return np.array([np.count_nonzero(noise_fa > tau),
                         np.count_nonzero(p * gain + noise_md <= tau)])

    p_fa, p_md = (int(hits) / n for hits in _mc_count(rng, n, workers, _MC_CHUNK, count))
    var = p_fa * (1.0 - p_fa) + p_md * (1.0 - p_md)
    return McEstimate(p_fa + p_md, math.sqrt(var / n), n, rng.seed, workers)


def mc_dep_two_hop(
    params: SystemParams,
    tau: float,
    n: int,
    rng: RngSpec,
    workers: int = 1,
) -> McEstimate:
    """Monte-Carlo two-hop DEP at a common threshold.

    The two slots use independent randomness (substreams of `rng`); the
    warden detects the link only by winning both slots, so the two-hop
    DEP is 1 - (1 - Pe1)(1 - Pe2) with the per-slot estimates plugged in
    and the standard error propagated through the product.
    """
    est1 = mc_dep_slot(params.p_s, tau, params, n, RngSpec(rng.seed, 2 * rng.stream + 1), workers)
    est2 = mc_dep_slot(params.p_r, tau, params, n, RngSpec(rng.seed, 2 * rng.stream + 2), workers)
    xi = 1.0 - (1.0 - est1.mean) * (1.0 - est2.mean)
    stderr = math.sqrt(
        ((1.0 - est2.mean) * est1.stderr) ** 2 + ((1.0 - est1.mean) * est2.stderr) ** 2
    )
    return McEstimate(xi, stderr, n, rng.seed, workers)
