"""Warden-side detection error probability (DEP) of the radiometer.

Three parallel evaluation paths per quantity:
  * a semi-analytic quadrature reference (the in-repo arbiter): exact false
    alarm, and missed detection by the Gauss-Legendre rule and error
    estimate of `throughput.noise_expectation`,
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

from .channel import RngSpec, _mc_count, sample_noise_power, sample_rayleigh_gain
from .errors import clamp_unit_interval
from .model import McEstimate, SystemParams
from .throughput import _gl_refine

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
    # From ln(x / sigma^2), since x / mu1 overflows for large rho.
    return (1.0 + math.log(x / params.sigma_n2) / math.log(params.rho)) / 2.0


def dep_slot_reference(p: float, tau: float, params: SystemParams) -> float:
    """Per-slot DEP by quadrature of the defining probabilities: the arbiter.

    With noise N = sigma^2 rho^s, s uniform on [-1, 1], and g ~ Exp(1),
    P_FA = P(N > tau) is exact and P_MD = P(p g + N <= tau) is the integral
    over s in [-1, s_hi] of (1 - e^{-(tau - N)/p}) / 2.  The integrand is 1
    to double precision where tau - N > 40 p, counted exactly; the layer
    below tau gets the Gauss-Legendre rule in d = s_hi - s, refined until two
    estimates agree to 1e-12 (so the DEP to 1e-12), else NumericError.
    """
    if p <= 0 or tau <= 0:
        raise ValueError(f"p and tau must be > 0, got ({p}, {tau})")
    if tau <= params.mu1:
        return 1.0
    ln_rho = math.log(params.rho)
    # Never from tau / mu1, which overflows for large rho.
    s_hi = 1.0 if tau >= params.mu2 else min(1.0, math.log(tau / params.sigma_n2) / ln_rho)
    top = min(tau, params.mu2)  # the noise at s_hi
    gap = tau - top
    # tau - N = gap - top expm1(-d ln rho), free of cancellation, reaches 40 p at d = cut.
    x = (40.0 * p - gap) / top
    if x <= 0:
        return 1.0  # no false alarm, and a missed detection is certain
    cut = math.inf if x >= 1 else -math.log1p(-x) / ln_rho
    width = min(s_hi + 1.0, cut)
    half = width * ln_rho / 2.0

    def mean(s, w, todo):
        # d = width (1 + s) / 2 on the rule's nodes s.
        u = (gap - top * np.expm1(-half * (1.0 + s))) / p
        return np.atleast_1d(w @ -np.expm1(-u))

    layer = float(_gl_refine(mean, 1, params.rho, lambda i: f"slot DEP at p={p}, tau={tau}")[0])
    p_md = (s_hi + 1.0 - width + width * layer) / 2.0
    return clamp_unit_interval((1.0 - s_hi) / 2.0 + p_md, "dep_slot_reference")


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

    p_fa, p_md = (int(hits) / n for hits in _mc_count(rng, n, _MC_CHUNK, count))
    var = p_fa * (1.0 - p_fa) + p_md * (1.0 - p_md)
    return McEstimate(p_fa + p_md, math.sqrt(var / n), n, rng.seed)


def mc_dep_two_hop(
    params: SystemParams,
    tau: float,
    n: int,
    rng: RngSpec,
) -> McEstimate:
    """Monte-Carlo two-hop DEP at a common threshold.

    The two slots use independent randomness (substreams of `rng`); the
    warden detects the link only by winning both slots, so the two-hop
    DEP is 1 - (1 - Pe1)(1 - Pe2) with the per-slot estimates plugged in
    and the standard error propagated through the product.
    """
    est1 = mc_dep_slot(params.p_s, tau, params, n, RngSpec(rng.seed, 2 * rng.stream + 1))
    est2 = mc_dep_slot(params.p_r, tau, params, n, RngSpec(rng.seed, 2 * rng.stream + 2))
    xi = 1.0 - (1.0 - est1.mean) * (1.0 - est2.mean)
    stderr = math.sqrt(
        ((1.0 - est2.mean) * est1.stderr) ** 2 + ((1.0 - est1.mean) * est2.stderr) ** 2
    )
    return McEstimate(xi, stderr, n, rng.seed)
