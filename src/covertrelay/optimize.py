"""Covert-throughput maximization under covertness/reliability/power budgets.

Single-antenna: covertness, (1 - Pe(p_s))(1 - Pe(p_r)) <= epsilon,
depends only on the powers, and eta and the reliability both grow with
each power, so the optimum lies on the covertness frontier, capped at
P_max.  By the symmetry in the powers, the outer search bisects log p_s
over the half p_s >= p_r of the frontier on the sign of eta's analytic
tangential derivative; for each frontier point the inner search takes
the peak of t S(t) or the root of S(t) = 1 - delta, whichever comes
first (S is the product of the hop success probabilities).  The rate
domain is t >= 1e-3 bit/s/Hz.  Method "kkt" certifies the result: the
active multipliers, fitted to `lagrangian_gradient` by least squares,
are nonnegative and leave a stationarity residual below 1e-6 eta.

Multi-antenna: a feasibility-filtered triple grid scan over log-spaced
power grids (a tight covertness budget puts the feasible powers decades
below P_max), with early exit once the rate loop has passed its peak.
Hop outages are read from tables with one column per (antennas, power)
of a covert pair and one row per rate k h3.  The Gauss-Legendre kernel
`throughput.noise_expectation` fills them, with its 64/128-node error
estimate and refinement up to 1024 nodes, and a column's rows are
doubled whenever the rate loop needs one it does not have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detection import _scaled_ei_gap, min_dep_slot, min_dep_two_hop
from .errors import InfeasibleError, NumericError
from .model import ConstraintSet, RateParams, SystemParams
from .specfun import ei_diff
from .throughput import noise_expectation, outage_hop_single, throughput_single

__all__ = [
    "Optimum",
    "KktPoint",
    "lagrangian_gradient",
    "optimize_single",
    "optimize_multi",
    "covert_power_limit",
]

_ACTIVITY_TOL = 1e-6
# Lowest power of the multi-antenna grids, as a fraction of P_max; six
# decades comfortably bracket the covertness-limited regime.
_POWER_SPAN = 1e-6
# Lowest power the covertness bisection considers, as a fraction of P_max.
_POWER_FLOOR = 1e-12
# The single-antenna rate domain starts at _T_FLOOR; the rate bracket
# starts at _T_BRACKET and doubles while eta still rises.
_T_FLOOR, _T_BRACKET = 1e-3, 4.0
# Largest stationarity residual the KKT certificate accepts, relative to eta.
_CERT_TOL = 1e-6
_CONSTRAINTS = ("covertness", "reliability", "power_s", "power_r")
# Rows of a multi-antenna outage column before its first doubling.
_FIRST_ROWS = 16
_NO_ROWS = np.empty(0)


@dataclass(frozen=True)
class Optimum:
    """A verified-feasible solution of a throughput maximization run."""

    p_s: float
    p_r: float
    t: float
    eta: float
    active_constraints: frozenset = field(default_factory=frozenset)
    method: str = "grid"

    def __post_init__(self) -> None:
        if self.p_s <= 0 or self.p_r <= 0 or self.t < 0 or self.eta < 0:
            raise ValueError("optimum fields must be positive (t, eta nonnegative)")
        allowed = {"covertness", "reliability", "power_s", "power_r"}
        if not set(self.active_constraints) <= allowed:
            raise ValueError(f"unknown active constraints: {set(self.active_constraints) - allowed}")
        if self.method not in ("kkt", "grid"):
            raise ValueError(f"method must be 'kkt' or 'grid', got {self.method!r}")


@dataclass(frozen=True)
class KktPoint:
    """A stationary point with its multipliers and residual norm."""

    p_s: float
    p_r: float
    t: float
    k1: float
    k2: float
    k3: float
    k4: float
    residual_norm: float

    def __post_init__(self) -> None:
        if self.residual_norm < 0:
            raise ValueError("residual_norm must be >= 0")


# ---------------------------------------------------------------------------
# Single-antenna objective/constraint surface and its analytic gradient.
# ---------------------------------------------------------------------------


def _ei_gap(p: float, kappa: float, params: SystemParams) -> float:
    # G(p) = Ei(-kappa mu2 / p) - Ei(-kappa mu1 / p) > 0; 1 - p_out = G / (2 ln rho).
    return ei_diff(kappa * params.mu2 / p, kappa * params.mu1 / p)


def _ei_gap_dp(p: float, kappa: float, params: SystemParams) -> float:
    return (math.exp(-kappa * params.mu1 / p) - math.exp(-kappa * params.mu2 / p)) / p


def _ei_gap_dkappa(p: float, kappa: float, params: SystemParams) -> float:
    return (math.expm1(-kappa * params.mu2 / p) - math.expm1(-kappa * params.mu1 / p)) / kappa


def _dep_gap_dp(p: float, params: SystemParams) -> float:
    # B(p) = e^{-mu2/p} [Ei(mu2/p) - Ei(mu1/p)]; 1 - Pe* = B / (2 ln rho).
    b = _scaled_ei_gap(params.mu2 / p, params.mu1 / p)
    return (params.mu2 / p**2) * b + (math.exp((params.mu1 - params.mu2) / p) - 1.0) / p


def _lagrangian_value(x, mult, constraints: ConstraintSet, params: SystemParams) -> float:
    p_s, p_r, t = x
    k1, k2, k3, k4 = mult
    base = params.with_powers(p_s, p_r)
    out = throughput_single(base, RateParams(t))
    return (
        -out.eta
        + k1 * (1.0 - constraints.epsilon - min_dep_two_hop(base))
        + k2 * (out.p_out - constraints.delta)
        + k3 * (p_s - constraints.p_max)
        + k4 * (p_r - constraints.p_max)
    )


def lagrangian_gradient(
    p_s: float,
    p_r: float,
    t: float,
    multipliers,
    constraints: ConstraintSet,
    params: SystemParams,
    debug: bool = False,
):
    """Partials of the Lagrangian of the single-antenna problem.

    Returns (dL/dp_s, dL/dp_r, dL/dt) at an interior point, from analytic
    differentiation of the validated throughput and DEP expressions.  In
    debug mode each partial is cross-checked against a central finite
    difference and a disagreement beyond 1e-4 relative raises.
    """
    if p_s <= 0 or p_r <= 0 or t <= 0:
        raise ValueError("lagrangian_gradient needs a strictly interior point")
    k1, k2, k3, k4 = (float(m) for m in multipliers)
    kappa = RateParams(t).kappa
    c = 4.0 * math.log(params.rho) ** 2
    b1, b2 = (_scaled_ei_gap(params.mu2 / p, params.mu1 / p) for p in (p_s, p_r))
    db1, db2 = _dep_gap_dp(p_s, params), _dep_gap_dp(p_r, params)
    if kappa * params.mu2 / min(p_s, p_r) == math.inf:
        # A hop's SNR threshold exceeds the float range: certain outage, so
        # eta, p_out and all their partials vanish.
        g1 = g2 = dg1 = dg2 = dprod_dt = 0.0
    else:
        g1, g2 = _ei_gap(p_s, kappa, params), _ei_gap(p_r, kappa, params)
        dg1, dg2 = _ei_gap_dp(p_s, kappa, params), _ei_gap_dp(p_r, kappa, params)
        dkappa_dt = 2.0 ** (2.0 * t) * 2.0 * math.log(2.0)
        dgk1 = _ei_gap_dkappa(p_s, kappa, params)
        dgk2 = _ei_gap_dkappa(p_r, kappa, params)
        dprod_dt = (dgk1 * g2 + g1 * dgk2) * dkappa_dt

    # eta = t G1 G2 / c;  p_out = 1 - G1 G2 / c;  xi* = 1 - B1 B2 / c.
    d_ps = -t * dg1 * g2 / c + k1 * db1 * b2 / c - k2 * dg1 * g2 / c + k3
    d_pr = -t * g1 * dg2 / c + k1 * b1 * db2 / c - k2 * g1 * dg2 / c + k4
    d_t = -(g1 * g2 + t * dprod_dt) / c - k2 * dprod_dt / c

    grad = (d_ps, d_pr, d_t)
    if debug:
        x0 = np.array([p_s, p_r, t], dtype=float)
        mult = (k1, k2, k3, k4)
        for i, analytic in enumerate(grad):
            h = 1e-6 * max(abs(x0[i]), 1e-6)
            hi, lo = x0.copy(), x0.copy()
            hi[i] += h
            lo[i] -= h
            fd = (
                _lagrangian_value(hi, mult, constraints, params)
                - _lagrangian_value(lo, mult, constraints, params)
            ) / (2.0 * h)
            # The central difference carries ~eps/h of rounding noise, so
            # negligible components need an absolute slack as well.
            scale = max(abs(analytic), abs(fd), 1e-9)
            if abs(analytic - fd) > 1e-4 * scale + 1e-7:
                raise NumericError(
                    f"gradient component {i}: analytic {analytic} vs finite diff {fd}"
                )
    return grad


# ---------------------------------------------------------------------------
# Covertness-frontier search.
# ---------------------------------------------------------------------------


def _bisect(holds, lo: float, hi: float, rel: float) -> float:
    """Last x in [lo, hi) where holds(x), to `rel` relative, by bisection in log x.

    `holds` must be true below a threshold and false above it; hi counts
    as false, and lo is returned when holds fails everywhere above it.
    """
    while hi / lo >= 1.0 + rel:
        mid = math.sqrt(lo * hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _largest_power(covert, p_max: float) -> float | None:
    """Largest p in [_POWER_FLOOR p_max, p_max] with covert(p), else None."""
    if covert(p_max):
        return p_max
    lo = p_max * _POWER_FLOOR
    return _bisect(covert, lo, p_max, 1e-14) if covert(lo) else None


def covert_power_limit(epsilon: float, params: SystemParams, p_max: float) -> float:
    """Largest equal per-hop power keeping the two-hop DEP above 1 - epsilon.

    Bisection on the monotone-decreasing DEP; returns p_max itself when
    even full power stays covert.
    """
    target = 1.0 - epsilon
    p_cov = _largest_power(lambda p: min_dep_two_hop(params.with_powers(p, p)) >= target, p_max)
    if p_cov is None:
        raise InfeasibleError(
            "covertness constraint unsatisfiable even at vanishing power", "covertness"
        )
    return p_cov


def _best_rate(p_s: float, p_r: float, delta: float, params: SystemParams) -> float | None:
    """Best rate t >= _T_FLOOR at fixed powers, or None if none is reliable.

    S(t), the product of the hop success probabilities, falls with t and
    t S(t) is unimodal, so the best rate is the peak of t S(t) or the
    root of S(t) = 1 - delta, whichever comes first: one bisection on
    "reliable and eta still rising".
    """

    def reliable(rate: RateParams) -> bool:
        hop_s = outage_hop_single(p_s, rate, params)
        return 1.0 - (1.0 - hop_s) * (1.0 - outage_hop_single(p_r, rate, params)) <= delta

    def rising(t: float) -> bool:
        rate = RateParams(t)
        if not reliable(rate):
            return False
        kappa = rate.kappa
        dlog_s = sum(_ei_gap_dkappa(p, kappa, params) / _ei_gap(p, kappa, params)
                     for p in (p_s, p_r))
        # d(t S)/dt > 0  <=>  1 + t dlog S/dt > 0, with dkappa/dt = 2 ln 2 (kappa + 1).
        return 1.0 + t * 2.0 * math.log(2.0) * (kappa + 1.0) * dlog_s > 0.0

    lo, hi = _T_FLOOR, _T_BRACKET
    if not rising(lo):
        return lo if reliable(RateParams(lo)) else None
    while rising(hi):
        lo, hi = hi, 2.0 * hi
    return _bisect(rising, lo, hi, 1e-13)


def _frontier_point(p_s: float, constraints: ConstraintSet, params: SystemParams):
    """(p_s, p_r, t): the frontier partner of p_s and their best rate, or None."""
    target = 1.0 - constraints.epsilon
    pe_s = min_dep_slot(p_s, params)
    p_r = _largest_power(
        lambda p: 1.0 - (1.0 - pe_s) * (1.0 - min_dep_slot(p, params)) >= target,
        constraints.p_max,
    )
    t = None if p_r is None else _best_rate(p_s, p_r, constraints.delta, params)
    return None if t is None else (p_s, p_r, t)


def _rises(point, params: SystemParams) -> bool:
    """Whether eta grows as a feasible frontier point moves to larger p_s.

    With beta(p) the power elasticity of the DEP gap B and gamma(p) that
    of the outage gap G, the frontier has d log p_r / d log p_s =
    -beta(p_s)/beta(p_r).  At the best rate, whether the peak of t S(t)
    or the reliability root, eta moves with the sign of
    d log S / d log p_s = gamma(p_s) - gamma(p_r) beta(p_s)/beta(p_r).
    """
    if point is None:
        return False
    p_s, p_r, t = point
    kappa = RateParams(t).kappa

    def gamma(p: float) -> float:
        return p * _ei_gap_dp(p, kappa, params) / _ei_gap(p, kappa, params)

    def beta(p: float) -> float:
        return p * _dep_gap_dp(p, params) / _scaled_ei_gap(params.mu2 / p, params.mu1 / p)

    return gamma(p_s) * beta(p_r) > gamma(p_r) * beta(p_s)


def _active_set(p_s, p_r, p_out, constraints, params) -> frozenset:
    """Constraints whose slack is within _ACTIVITY_TOL of their scale."""
    xi = min_dep_two_hop(params.with_powers(p_s, p_r))
    slacks = {
        "covertness": (xi - (1.0 - constraints.epsilon), max(constraints.epsilon, 1e-12)),
        "reliability": (constraints.delta - p_out, max(constraints.delta, 1e-12)),
        "power_s": (constraints.p_max - p_s, constraints.p_max),
        "power_r": (constraints.p_max - p_r, constraints.p_max),
    }
    return frozenset(n for n, (gap, scale) in slacks.items() if abs(gap) <= _ACTIVITY_TOL * scale)


def _kkt_certificate(p_s, p_r, t, eta, active, constraints, params) -> KktPoint:
    """Multipliers of the active constraints, by least squares on stationarity.

    Works on the elasticity-scaled gradient x * dL/dx, which is affine in
    the multipliers.  At the rate floor, the bound of the rate domain,
    stationarity in t relaxes to dL/dt >= 0.  Raises NumericError unless
    the residual is below _CERT_TOL eta and no multiplier is negative
    beyond that tolerance.
    """
    x = np.array([p_s, p_r, t])

    def scaled_gradient(mult) -> np.ndarray:
        return x * np.array(lagrangian_gradient(p_s, p_r, t, mult, constraints, params))

    base = scaled_gradient((0.0, 0.0, 0.0, 0.0))
    idx = [i for i, name in enumerate(_CONSTRAINTS) if name in active]
    cols = np.array([scaled_gradient(np.eye(4)[i]) - base for i in idx]).T.reshape(3, len(idx))
    rows = 2 if t == _T_FLOOR else 3
    k = np.linalg.lstsq(cols[:rows], -base[:rows], rcond=None)[0]
    stationarity = base + cols @ k
    residual = float(np.max(np.abs(stationarity[:rows])))
    tol = _CERT_TOL * eta
    mult = np.zeros(4)
    mult[idx] = k
    if (residual > tol or stationarity[2] < -tol
            or np.any(k * np.max(np.abs(cols), axis=0, initial=0.0) < -tol)):
        raise NumericError(
            f"no KKT certificate at (p_s, p_r, t) = ({p_s}, {p_r}, {t}): "
            f"residual {residual}, multipliers {mult.tolist()}"
        )
    return KktPoint(p_s, p_r, t, *(float(m) for m in mult), residual)


def optimize_single(constraints: ConstraintSet, params_template: SystemParams) -> Optimum:
    """Maximize single-antenna covert throughput over (p_s, p_r, t).

    Searches the covertness frontier as the module docstring describes.
    Raises InfeasibleError when no covert powers have a reliable rate
    t >= 1e-3, and NumericError when the optimum fails its KKT
    certificate.
    """
    params = params_template
    p_max = constraints.p_max
    p_cov = covert_power_limit(constraints.epsilon, params, p_max)

    def rises(p_s: float) -> bool:
        return _rises(_frontier_point(p_s, constraints, params), params)

    # On the half p_s >= p_r: the end p_s = P_max if eta still rises
    # there, else the last point at which it rises.
    p_s = p_max if p_cov == p_max or rises(p_max) else _bisect(rises, p_cov, p_max, 1e-10)
    best = _frontier_point(p_s, constraints, params)
    if best is None:
        raise InfeasibleError("no rate t >= 1e-3 is reliable at covert powers", "reliability")
    p_s, p_r, t = best
    out = throughput_single(params.with_powers(p_s, p_r), RateParams(t))
    active = _active_set(p_s, p_r, out.p_out, constraints, params)
    _kkt_certificate(p_s, p_r, t, out.eta, active, constraints, params)
    return Optimum(p_s, p_r, t, out.eta, active, method="kkt")


# ---------------------------------------------------------------------------
# Multi-antenna grid search.
# ---------------------------------------------------------------------------


def optimize_multi(
    constraints: ConstraintSet,
    params_template: SystemParams,
    steps: tuple | None = None,
    phi: float = 1e-6,
    v_max: int = 10**6,
    evaluations: list | None = None,
) -> Optimum:
    """Maximize multi-antenna covert throughput by a filtered grid scan.

    Power axes default to 100-point log grids over six decades below
    P_max (linear steps can be requested via `steps = (h1, h2, h3)`);
    the rate axis climbs in steps of h3 and exits once the outage budget
    is exhausted or the running peak has been passed by more than phi.
    If `evaluations` is a list, every feasible evaluated point is
    appended to it as (p_s, p_r, t, eta).
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
        ps_grid = np.arange(h1, p_max * (1 + 1e-12), h1)
        pr_grid = np.arange(h2, p_max * (1 + 1e-12), h2)

    slot_dep = {}

    def dep(p: float) -> float:
        if p not in slot_dep:
            slot_dep[p] = min_dep_slot(p, params)
        return slot_dep[p]

    # Hop outages at the rates k * h3, one column per (antennas, power),
    # built only for powers of covert pairs.  The scan asks for the rows
    # of a column in order, so doubling it always covers row k.
    kappas: list[float] = []
    columns: dict[tuple, np.ndarray] = {}

    def outage(n_t: int, n_r: int, p: float, k: int) -> float:
        col = columns.get((n_t, n_r, p), _NO_ROWS)
        if k > col.size:
            rows = max(_FIRST_ROWS, 2 * col.size)
            kappas.extend(RateParams(j * h3).kappa for j in range(len(kappas) + 1, rows + 1))
            y = np.array(kappas[col.size : rows]) / p
            col = columns[(n_t, n_r, p)] = np.concatenate(
                (col, noise_expectation(n_t, n_r, y, params))
            )
        return float(col[k - 1])

    best = None
    v = 0
    saw_covert = False
    stop = False
    for p_s in ps_grid:
        p_s = float(p_s)
        if stop:
            break
        for p_r in pr_grid:
            p_r = float(p_r)
            xi = 1.0 - (1.0 - dep(p_s)) * (1.0 - dep(p_r))
            if xi < 1.0 - constraints.epsilon:
                continue
            saw_covert = True
            peak = -math.inf
            k = 1
            while True:
                # k * h3, not a running sum, so every rate lies on the grid.
                t = k * h3
                hop1 = outage(ant.n_s, ant.n_rr, p_s, k)
                hop2 = outage(ant.n_rt, ant.n_d, p_r, k)
                p_out = 1.0 - (1.0 - hop1) * (1.0 - hop2)
                if p_out > constraints.delta:
                    break
                eta = t * (1.0 - p_out)
                v += 1
                if evaluations is not None:
                    evaluations.append((p_s, p_r, t, eta))
                key = (eta, -p_s, -p_r, -t)
                if best is None or key > best[0]:
                    best = (key, p_s, p_r, t, eta, p_out)
                peak = max(peak, eta)
                if v >= v_max:
                    stop = True
                    break
                if eta + phi < peak:
                    break
                k += 1
            if stop:
                break

    if best is None:
        tightest = "covertness" if not saw_covert else "reliability"
        raise InfeasibleError(
            f"no grid point satisfies the constraints (tightest: {tightest})", tightest
        )
    _, p_s, p_r, t, eta, p_out = best
    return Optimum(p_s, p_r, t, eta, _active_set(p_s, p_r, p_out, constraints, params),
                   method="grid")
