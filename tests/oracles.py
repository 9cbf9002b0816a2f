"""Independent oracles for the library's closed forms and derivatives.

The special-function oracles deliberately avoid the library's own
series/continued-fraction machinery: everything is adaptive quadrature of
defining integrals, or of scipy's incomplete gamma function, so agreement
between the two is meaningful evidence of correctness.  The Lagrangian
oracle differentiates the validated throughput and DEP values
numerically, as a check on their analytic derivatives.  The grid-scan
oracle is the multi-antenna optimizer's earlier per-point scan, kept as
it was but for the linear grids' clip to P_max: a generator that visits
each feasible point in Python.
`noise_expectation`, the mean of the TAS/MRC gain CDF over the noise by
a Gauss-Legendre rule, is the outage tables' oracle: it shares the DEP
reference's refinement loop and none of the tables' antiderivative.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate
from scipy.special import gammainc

from covertrelay.channel import tas_mrc_gain_cdf
from covertrelay.detection import _gl_refine, min_dep_slot, min_dep_two_hop, noise_cdf
from covertrelay.errors import InfeasibleError, NumericError, clamp_unit_interval
from covertrelay.model import ConstraintSet, RateParams, SystemParams
from covertrelay.optimize import _FIRST_ROWS, _POWER_SPAN, Optimum, _active_set
from covertrelay.throughput import _tas_mrc_outage, throughput_single

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


def oracle_lower_series(n_r: int, x: np.ndarray) -> np.ndarray:
    """The branch CDF's lower series, stopped by a per-term convergence test.

    `channel._lower_series` sums a fixed number of terms, counted in
    advance at the largest x; summed to this convergence test instead, the
    series must give the same bits.
    """
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


def oracle_outage_single(p: float, kappa: float, params: SystemParams) -> float:
    """Single-antenna hop outage by quadrature of (1 - e^{-z}) / z over [x1, x2].

    With x = kappa mu / p at mu1 and mu2, the outage is
    (Ein(x2) - Ein(x1)) / (2 ln rho), and Ein'(z) = (1 - e^{-z}) / z.
    """
    x1, x2 = kappa * params.mu1 / p, kappa * params.mu2 / p
    value, _ = integrate.quad(lambda z: -math.expm1(-z) / z, x1, x2, epsabs=0.0, epsrel=1e-13,
                              limit=400)
    return value / (2.0 * math.log(params.rho))


def oracle_tas_mrc_outage(p: float, kappa: float, sigma2: float, rho: float,
                          n_t: int, n_r: int) -> float:
    """TAS/MRC hop outage by quadrature over the noise exponent.

    With the noise sigma2 * rho^(2u - 1), u uniform on [0, 1], the outage
    is the mean over u of P(gain < kappa * noise / p), where the gain CDF
    is scipy's regularized lower incomplete gamma to the n_t power.  The
    quadrature is split where the gain passes n_r e^(k / sqrt(n_r)), k in
    -8..8, the Gamma(n_r) CDF's step: at large rho that step is a sliver
    of [0, 1], which an unsplit rule steps over.
    """

    def integrand(u: float) -> float:
        return gammainc(n_r, kappa * sigma2 * rho ** (2.0 * u - 1.0) / p) ** n_t

    centre, two_ln_rho = math.log(kappa * sigma2 / p), 2.0 * math.log(rho)
    steps = ((math.log(n_r) + k / math.sqrt(n_r) - centre) / two_ln_rho + 0.5
             for k in range(-8, 9))
    points = [u for u in steps if 0.0 < u < 1.0] or None
    value, _ = integrate.quad(integrand, 0.0, 1.0, points=points, epsabs=0.0, epsrel=1e-13,
                              limit=400)
    return value


# Gain evaluations per block of noise_expectation, keeping its temporaries small: with
# glibc's malloc, 32 KiB arrays are reused within the process, while 256
# KiB ones (2**15) go back to the system at each free and fault in again,
# up to 4 minor page faults per value of a 1000-value call.
_GL_BLOCK = 2**12


def _gl_mean(n_t: int, n_r: int, y: np.ndarray, s: np.ndarray, w: np.ndarray,
             params: SystemParams) -> np.ndarray:
    noise = params.sigma_n2 * params.rho**s
    rows = max(1, _GL_BLOCK // s.size)
    out = np.empty(y.size)
    for i in range(0, y.size, rows):
        # A gain threshold past the float range is inf, where the CDF is 1.
        with np.errstate(over="ignore"):
            gain = np.multiply.outer(y[i : i + rows], noise)
        # Row sums, not matrix products: each value is then independent of
        # the rows computed with it.
        out[i : i + rows] = (tas_mrc_gain_cdf(n_t, n_r, gain) * w).sum(axis=1)
    return out


def noise_expectation(n_t: int, n_r: int, y, params: SystemParams) -> np.ndarray:
    """E_s[F(y sigma^2 rho^s)] for each y >= 0, with s uniform on [-1, 1].

    F is `tas_mrc_gain_cdf(n_t, n_r, .)`, so at y = kappa / p this is the
    hop outage at power p.  This was the library's TAS/MRC kernel before
    its outage tables, and it is their oracle.  Gauss-Legendre in s (one
    panel per factor 1e6 of rho): each value is computed with 64 and 128
    nodes per panel, and while its last two values differ by more than
    1e-12 with twice the nodes, up to 1024.
    Raises NumericError where 512 and 1024 nodes per panel still disagree.
    That happens where F's step from 0 to 1, about 1 / sqrt(n_r) wide in
    ln(gain), is narrow against a panel's 2 ln rho / panels: for n_r = 200
    at rho = 1e6, and for n_r = 400 at rho = 1e10 (y = 3 at -5 dBm), for
    example.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    out = _gl_refine(lambda s, w, todo: _gl_mean(n_t, n_r, flat[todo], s, w, params), flat.size,
                     params.rho, lambda i: f"TAS/MRC noise expectation at y = {flat[i]}")
    # The weights sum to 1 only up to rounding.
    return np.minimum(out, 1.0).reshape(y.shape)


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


def oracle_optimize_multi(
    constraints: ConstraintSet,
    params_template: SystemParams,
    steps: tuple | None = None,
    phi: float = 1e-6,
    v_max: int = 10**6,
    evaluations: list | None = None,
) -> Optimum:
    """The multi-antenna grid scan one point at a time, as a generator.

    Same grids, outage tables, stopping rules, v_max cut and tie-break as
    `optimize_multi`, which must return an equal Optimum, record equal
    evaluations and compute as many kernel values.
    """
    if phi <= 0:
        raise ValueError(f"phi must be > 0, got {phi}")
    if v_max < 1:
        raise ValueError(f"v_max must be >= 1, got {v_max}")
    params = params_template
    ant = params.antennas
    p_max = constraints.p_max
    if steps is None:
        ps_grid = pr_grid = np.geomspace(p_max * _POWER_SPAN, p_max, 100)
        h3 = 0.01
    else:
        h1, h2, h3 = steps
        if h1 <= 0 or h2 <= 0 or h3 <= 0:
            raise ValueError(f"step sizes must be > 0, got {steps}")
        ps_grid = np.minimum(np.arange(h1, p_max * (1 + 1e-12), h1), p_max)
        pr_grid = np.minimum(np.arange(h2, p_max * (1 + 1e-12), h2), p_max)

    dep_s = np.array([min_dep_slot(p, params) for p in ps_grid.tolist()])
    dep_r = dep_s if pr_grid is ps_grid else np.array([min_dep_slot(p, params)
                                                       for p in pr_grid.tolist()])

    def covert(d_s: float) -> np.ndarray:
        # Which p_r of the grid are covert partners of a p_s with DEP d_s.
        return 1.0 - (1.0 - d_s) * (1.0 - dep_r) >= 1.0 - constraints.epsilon

    # Hop outages at the rates k * h3, one column per (antennas, power),
    # built only for powers of covert pairs.  The scan asks for the rows
    # of a column in order, so doubling it always covers row k.
    kappas: list[float] = []
    columns: dict[tuple, np.ndarray] = {}

    def outage(n_t: int, n_r: int, p: float, k: int) -> float:
        col = columns.get((n_t, n_r, p), np.empty(0))
        if k > col.size:
            rows = max(_FIRST_ROWS, 2 * col.size)
            kappas.extend(RateParams(j * h3).kappa for j in range(len(kappas) + 1, rows + 1))
            y = np.array(kappas[col.size : rows]) / p
            col = columns[(n_t, n_r, p)] = np.concatenate(
                (col, _tas_mrc_outage(n_t, n_r, y, params))
            )
        return float(col[k - 1])

    def feasible():
        # Feasible (p_s, p_r, t, eta, p_out) in scan order; each rate loop
        # stops at the outage budget or once eta is phi below its peak.
        for p_s, d_s in zip(ps_grid.tolist(), dep_s.tolist()):
            for p_r in pr_grid[covert(d_s)].tolist():
                peak = -math.inf
                for k in itertools.count(1):
                    # k * h3, not a running sum, so every rate lies on the grid.
                    t = k * h3
                    hop1 = outage(ant.n_s, ant.n_rr, p_s, k)
                    hop2 = outage(ant.n_rt, ant.n_d, p_r, k)
                    p_out = 1.0 - (1.0 - hop1) * (1.0 - hop2)
                    if p_out > constraints.delta:
                        break
                    eta = t * (1.0 - p_out)
                    if evaluations is not None:
                        evaluations.append((p_s, p_r, t, eta))
                    yield p_s, p_r, t, eta, p_out
                    peak = max(peak, eta)
                    if eta + phi < peak:
                        break

    best = max(itertools.islice(feasible(), v_max), default=None,
               key=lambda point: (point[3], -point[0], -point[1], -point[2]))
    if best is None:
        tightest = "reliability" if any(covert(d).any() for d in dep_s.tolist()) else "covertness"
        raise InfeasibleError(
            f"no grid point satisfies the constraints (tightest: {tightest})", tightest
        )
    p_s, p_r, t, eta, p_out = best
    return Optimum(p_s, p_r, t, eta, _active_set(p_s, p_r, p_out, constraints, params),
                   method="grid")
