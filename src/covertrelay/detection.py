"""Warden-side detection error probability (DEP) of the radiometer.

Three parallel evaluation paths per quantity:
  * a semi-analytic quadrature reference (the in-repo arbiter): exact false
    alarm, and missed detection by a Gauss-Legendre rule that estimates
    its own error and refines by node doubling (`_gl_refine`),
  * the closed forms built on the exponential-integral machinery,
  * a seeded Monte-Carlo estimator (the final oracle in the tests).

The warden compares the slot-average received power against a threshold
tau while knowing its own noise power only up to the multiplicative
uncertainty rho; false alarm and missed detection together form the DEP.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import NumericError, clamp_unit_interval
from .model import McEstimate, RngSpec, SystemParams, _two_hop
from .specfun import (EULER_GAMMA, _POS_SERIES_CUTOFF, _ei_asymptotic_excess, _ei_sum,
                      _gauss_legendre, expint_ei_scaled)

# numpy, and with it `channel`, is imported inside the functions that build
# arrays, so that the scalar closed forms load only the standard library.
if TYPE_CHECKING:
    import numpy as np

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


@dataclass(frozen=True)
class DetectionOutcome:
    """Threshold and per-slot DEPs; the combined two-hop DEP follows."""

    tau: float
    pe1: float
    pe2: float

    def __post_init__(self) -> None:
        for name in ("pe1", "pe2"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be a probability, got {v}")

    @property
    def xi(self) -> float:
        return _two_hop(self.pe1, self.pe2)


def _log_noise_ratio(x: float, params: SystemParams) -> float:
    """ln(x / sigma^2), the noise exponent times ln rho.

    Never from x / mu1, which overflows for large rho.  Within a factor 2
    of sigma^2, x - sigma^2 is exact, so log1p keeps the digits that the
    rounded quotient loses as rho -> 1; below sigma^2 / 2 log1p's argument
    could round to -1.
    """
    s2 = params.sigma_n2
    if s2 / 2.0 <= x <= 2.0 * s2:
        return math.log1p((x - s2) / s2)
    return math.log(x / s2)


def noise_cdf(x: float, params: SystemParams) -> float:
    """CDF of the log-uniform noise power, clamped to [0, 1] outside support."""
    if x <= params.mu1:
        return 0.0
    if x >= params.mu2:
        return 1.0
    return (1.0 + _log_noise_ratio(x, params) / math.log(params.rho)) / 2.0


# Gauss-Legendre node counts of the reference: the first estimate, and the
# most nodes refinement may reach.  Two estimates a factor 2 apart in
# node count must agree to _GL_TOL.
_GL_FIRST, _GL_MAX = 64, 1024
_GL_TOL = 1e-12
# The rule has one panel in s per factor _PANEL_RHO of rho: one panel up
# to rho = 1e6.
_PANEL_RHO = 1e6


@functools.cache
def _gl_rule(n: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    # The n-node Gauss-Legendre rule on each of `panels` equal parts of
    # [-1, 1], its weights scaled to give a mean.
    import numpy as np

    s, w = _gauss_legendre(n)
    return (((2 * np.arange(panels) + 1 - panels)[:, None] + s).ravel() / panels,
            np.tile(w, panels) / (2 * panels))


def _gl_refine(mean, size: int, rho: float, what) -> np.ndarray:
    """mean(s, w, todo) for todo = arange(size), refined by node doubling.

    (s, w) is the `_gl_rule` with one panel per factor _PANEL_RHO of rho,
    and mean returns the estimates of the values todo.  Each value is
    estimated with _GL_FIRST and 2 _GL_FIRST nodes per panel, and while its
    last two estimates differ by more than _GL_TOL with twice the nodes,
    up to _GL_MAX.  NumericError names what(i) of the first value i still
    unresolved.
    """
    import numpy as np

    panels = math.ceil(math.log(rho) / math.log(_PANEL_RHO))
    out = np.empty(size)
    todo = np.arange(size)
    n = _GL_FIRST
    coarse = mean(*_gl_rule(n, panels), todo)
    while True:
        n *= 2
        fine = mean(*_gl_rule(n, panels), todo)
        done = np.abs(fine - coarse) <= _GL_TOL
        out[todo[done]] = fine[done]
        todo, coarse = todo[~done], fine[~done]
        if not todo.size:
            return out
        if n >= _GL_MAX:
            raise NumericError(f"{what(todo[0])} unresolved with {n} nodes per panel")


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
    s_hi = 1.0 if tau >= params.mu2 else min(1.0, _log_noise_ratio(tau, params) / ln_rho)
    top = min(tau, params.mu2)  # the noise at s_hi
    gap = tau - top
    # tau - N = gap - top expm1(-d ln rho), free of cancellation, reaches 40 p at d = cut.
    x = (40.0 * p - gap) / top
    if x <= 0:
        return 1.0  # no false alarm, and a missed detection is certain
    cut = math.inf if x >= 1 else -math.log1p(-x) / ln_rho
    width = min(s_hi + 1.0, cut)
    half = width * ln_rho / 2.0
    import numpy as np

    def mean(s, w, todo):
        # d = width (1 + s) / 2 on the rule's nodes s.
        u = (gap - top * np.expm1(-half * (1.0 + s))) / p
        return np.atleast_1d(w @ -np.expm1(-u))

    layer = float(_gl_refine(mean, 1, params.rho, lambda i: f"slot DEP at p={p}, tau={tau}")[0])
    p_md = (s_hi + 1.0 - width + width * layer) / 2.0
    return clamp_unit_interval((1.0 - s_hi) / 2.0 + p_md, "dep_slot_reference")


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
        u, v = tau / p, mu1 / p
        return 1.0 - (expint_ei_scaled(u) - math.exp(v - u) * expint_ei_scaled(v)) / two_ln_rho
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


def _dep_single(p: float, params: SystemParams) -> tuple[float, float, float]:
    """(Pe*, B, dB/dp): the minimum slot DEP Pe* = 1 - B / (2 ln rho) at power p > 0.

    B(p) = e^{-u} [Ei(u) - Ei(v)], u = mu2 / p, v = mu1 / p.  Up to u = 40 the
    logs of Ei(x) = gamma + ln x + Sigma(x) cancel on paper, as u / v = rho^2:
    B = e^{-u} [2 ln rho + Sigma(u) - Sigma(v)].  Past it, B and its slope share
    e^{v-u}, S(v) = e^{-v} Ei(v) and the excess u S(u) - 1, summed as it cancels.
    Pe* is not clamped: a caller that reads it as a probability clamps it,
    and one that reads only B and its slope gets them where Pe* leaves
    [0, 1] by more than the clamp's slack.
    """
    two_ln_rho = 2.0 * math.log(params.rho)
    u, v = params.mu2 / p, params.mu1 / p
    if u <= _POS_SERIES_CUTOFF:
        b = math.exp(-u) * (two_ln_rho + _ei_sum(u) - _ei_sum(v))
        # u / p, not mu2 / p**2: p**2 leaves the floats for p past ~1e154 or
        # below ~1e-154 where the slope itself does not.
        slope = (u / p) * b + math.expm1((params.mu1 - params.mu2) / p) / p
    else:
        excess = _ei_asymptotic_excess(u)
        b, slope = (1.0 + excess) / u, excess / p
        # The terms in e^{v-u} vanish where it underflows, u = inf included;
        # where v underflows to 0, S(v) = gamma + ln v comes from logs.
        ratio = math.exp(v - u) if u < math.inf else 0.0
        if ratio:
            s_v = (expint_ei_scaled(v) if v else EULER_GAMMA + math.log(params.sigma_n2)
                   - math.log(params.rho) - math.log(p))
            b -= ratio * s_v
            # dB/dp = [(u S(u) - 1) - e^{v-u} (u S(v) - 1)] / p.
            slope = (excess - ratio * (u * s_v - 1.0)) / p
    return 1.0 - b / two_ln_rho, b, slope


def min_dep_slot(p: float, params: SystemParams) -> float:
    """Minimum per-slot DEP, i.e. the DEP at the optimal threshold."""
    if p <= 0:
        raise ValueError(f"p must be > 0, got {p}")
    return clamp_unit_interval(_dep_single(p, params)[0], "min_dep_slot")


def min_dep_two_hop(params: SystemParams) -> float:
    """Minimum two-hop DEP: the warden must win in both slots."""
    pe1 = min_dep_slot(params.p_s, params)
    pe2 = min_dep_slot(params.p_r, params)
    return _two_hop(pe1, pe2)


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
    import numpy as np

    from .channel import _mc_count, sample_noise_power, sample_rayleigh_gain

    def count(gen, m):
        noise_fa = sample_noise_power(params, gen, m)
        noise_md = sample_noise_power(params, gen, m)
        gain = sample_rayleigh_gain(gen, m)
        return np.array([np.count_nonzero(noise_fa > tau),
                         np.count_nonzero(p * gain + noise_md <= tau)])

    p_fa, p_md = (int(hits) / n for hits in _mc_count(rng, n, count))
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
    xi = _two_hop(est1.mean, est2.mean)
    stderr = math.sqrt(
        ((1.0 - est2.mean) * est1.stderr) ** 2 + ((1.0 - est1.mean) * est2.stderr) ** 2
    )
    return McEstimate(xi, stderr, n, rng.seed)
