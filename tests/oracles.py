"""Independent oracles for the library's closed forms and derivatives.

The special-function oracles deliberately avoid the library's own
series/continued-fraction machinery: everything is adaptive quadrature of
defining integrals, or of scipy's incomplete gamma function, so agreement
between the two is meaningful evidence of correctness.  The Lagrangian
oracle differentiates the validated throughput and DEP values
numerically, as a check on their analytic derivatives.
"""

from __future__ import annotations

import math

from scipy import integrate
from scipy.special import gammainc

from covertrelay.detection import min_dep_two_hop, noise_cdf
from covertrelay.errors import NumericError, clamp_unit_interval
from covertrelay.model import RateParams, SystemParams
from covertrelay.throughput import throughput_single

EULER_GAMMA = 0.57721566490153286061


def oracle_ei(x: float) -> float:
    """Exponential integral by quadrature of the defining integral.

    x > 0: Ei(x) = gamma + ln x + int_0^x (e^t - 1)/t dt  (removable
    singularity at 0).  x < 0: Ei(x) = -int_{-x}^inf e^{-t}/t dt.
    """
    if x == 0:
        raise ValueError("Ei undefined at 0")
    if x > 0:

        def integrand(t: float) -> float:
            return math.expm1(t) / t if t != 0 else 1.0

        value, _ = integrate.quad(integrand, 0.0, x, epsabs=0.0, epsrel=1e-13, limit=400)
        return EULER_GAMMA + math.log(x) + value

    # Substitute t = -x + u and pull e^{x} out front so the quadrature
    # keeps full relative precision even when the tail is ~1e-300.
    z = -x

    def tail(u: float) -> float:
        return math.exp(-u) / (z + u)

    value, _ = integrate.quad(tail, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    return -math.exp(-z) * value


def oracle_upper_gamma(s: int, x: float) -> float:
    """Upper incomplete gamma by quadrature of t^(s-1) e^(-t) on [x, inf)."""
    if s < 1 or x < 0:
        raise ValueError(f"need s >= 1, x >= 0, got ({s}, {x})")

    # Gamma(s, x) = e^{-x} int_0^inf (x + u)^{s-1} e^{-u} du, keeping the
    # decaying exponential outside the quadrature for relative accuracy.
    def integrand(u: float) -> float:
        return (x + u) ** (s - 1) * math.exp(-u)

    value, _ = integrate.quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    return math.exp(-x) * value


def oracle_ei_diff(x: float, y: float) -> float:
    """Ei(-x) - Ei(-y) as a single quadrature over [min, max]."""
    if x <= 0 or y <= 0:
        raise ValueError("arguments must be positive")
    if x == y:
        return 0.0
    lo, hi = min(x, y), max(x, y)
    value, _ = integrate.quad(
        lambda t: math.exp(-t) / t, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400
    )
    # int_lo^hi e^{-t}/t dt = E1(lo) - E1(hi) = Ei(-hi) - Ei(-lo) > 0.
    return value if x > y else -value


def oracle_tas_mrc_outage(p: float, kappa: float, sigma2: float, rho: float,
                          n_t: int, n_r: int) -> float:
    """TAS/MRC hop outage by quadrature over the noise exponent.

    With the noise sigma2 * rho^(2u - 1), u uniform on [0, 1], the outage
    is the mean over u of P(gain < kappa * noise / p), where the gain CDF
    is scipy's regularized lower incomplete gamma to the n_t power.
    """

    def integrand(u: float) -> float:
        return gammainc(n_r, kappa * sigma2 * rho ** (2.0 * u - 1.0) / p) ** n_t

    value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=400)
    return value


def oracle_dep_slot(p: float, tau: float, params: SystemParams) -> float:
    """Per-slot DEP by adaptive quadrature of the defining probabilities.

    P_FA = P(noise > tau); P_MD = E_y[F_noise(tau - y)] with the received
    covert power y exponentially distributed with mean p.  This was the
    library's `dep_slot_reference` before its Gauss-Legendre rule.
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


def oracle_lagrangian_gradient(x, multipliers, constraints, params) -> list[float]:
    """Central-difference partials of the single-antenna Lagrangian at x = (p_s, p_r, t).

    L = -eta + k1 (1 - epsilon - xi*) + k2 (p_out - delta)
        + k3 (p_s - P_max) + k4 (p_r - P_max),
    with a step of 1e-6 of each coordinate.
    """
    k1, k2, k3, k4 = multipliers

    def lagrangian(p_s: float, p_r: float, t: float) -> float:
        point = params.with_powers(p_s, p_r)
        out = throughput_single(point, RateParams(t))
        return (
            -out.eta
            + k1 * (1.0 - constraints.epsilon - min_dep_two_hop(point))
            + k2 * (out.p_out - constraints.delta)
            + k3 * (p_s - constraints.p_max)
            + k4 * (p_r - constraints.p_max)
        )

    partials = []
    for i in range(3):
        h = 1e-6 * max(abs(x[i]), 1e-6)
        hi, lo = list(x), list(x)
        hi[i] += h
        lo[i] -= h
        partials.append((lagrangian(*hi) - lagrangian(*lo)) / (2.0 * h))
    return partials
