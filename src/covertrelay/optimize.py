"""Covert-throughput maximization under covertness/reliability/power budgets.

Single-antenna: covertness, (1 - Pe(p_s))(1 - Pe(p_r)) <= epsilon,
depends only on the powers, and eta and the reliability both grow with
each power, so the optimum lies on the covertness frontier, capped at
P_max.  By the symmetry in the powers, the outer search bisects log p_s
over the half p_s >= p_r of the frontier on the sign of eta's slope
along the frontier tangent, both read from `_gradients`; for each
frontier point the inner search takes the peak of t S(t) or the root of
S(t) = 1 - delta, whichever comes first (S is the product of the hop
success probabilities, read from `throughput`'s hop model).  The rate
domain is t >= 1e-3 bit/s/Hz.  Method "kkt" certifies the result: the
active multipliers, fitted to `_gradients` by least squares, are
nonnegative and leave a stationarity residual below 1e-6 eta.

Multi-antenna: a grid scan over log-spaced power grids (a tight
covertness budget puts the feasible powers decades below P_max).  For
each p_s it filters the covert p_r as one array row and runs all of the
row's rate loops side by side as one (p_r, rate) array; a loop stops at
the outage budget or once it has passed its peak, and the first v_max
points in scan order count.  Hop outages are read from tables with one
column per (antennas, power) of a covert pair and one row per rate
k h3, filled from the antenna pair's outage table by
`throughput._tas_mrc_outage`, two lookups per value.  Loops still running
past the last row of their columns double the columns and run on: one
lookup call per antenna pair fills every column of a doubling, and each
column ends as long as a scan of one point at a time would make it,
except where v_max cuts a row.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .detection import _dep_gap_dp, _scaled_ei_gap, min_dep_slot, min_dep_two_hop
from .errors import InfeasibleError, NumericError
from .model import ConstraintSet, RateParams, SystemParams, _two_hop
# Unused here: bench/tests/test_bench.py checks that the tracer patches this binding.
from .specfun import ei_diff
from .throughput import _hop_single, _tas_mrc_outage, throughput_single

__all__ = [
    "Optimum",
    "lagrangian_gradient",
    "optimize_single",
    "optimize_multi",
    "covert_power_limit",
]

_ACTIVITY_TOL = 1e-6
# Lowest power of the multi-antenna grids, as a fraction of P_max; six
# decades comfortably bracket the covertness-limited regime.
_POWER_SPAN = 1e-6
# Factor by which the covertness search steps its lower end down from P_max.
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


def _covert(pe_a, pe_b, epsilon: float):
    """Whether hops with slot DEPs pe_a and pe_b keep the two-hop DEP >= 1 - epsilon."""
    return _two_hop(pe_a, pe_b) >= 1.0 - epsilon


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
        unknown = set(self.active_constraints) - set(_CONSTRAINTS)
        if unknown:
            raise ValueError(f"unknown active constraints: {unknown}")
        if self.method not in ("kkt", "grid"):
            raise ValueError(f"method must be 'kkt' or 'grid', got {self.method!r}")


# ---------------------------------------------------------------------------
# Single-antenna objective/constraint surface and its analytic gradient.
# ---------------------------------------------------------------------------


def _gradients(p_s: float, p_r: float, t: float, params: SystemParams) -> np.ndarray:
    """Rows of gradients in (p_s, p_r, t): -eta, then the constraints in _CONSTRAINTS order.

    Covertness enters as (1 - Pe_s)(1 - Pe_r) = B_s B_r / (4 ln^2 rho).  A
    hop's p dE/dp is minus its slope kappa dE/dkappa, and dkappa/dt = 2 ln 2 (kappa + 1).
    """
    kappa = RateParams(t).kappa
    (e_s, slope_s), (e_r, slope_r) = (_hop_single(p, kappa, params) for p in (p_s, p_r))
    ok_s, ok_r = 1.0 - e_s, 1.0 - e_r
    # Written with 1 / kappa so that kappa = inf, where both slopes are 0, gives 0.
    dlnk_dt = 2.0 * math.log(2.0) * (1.0 + 1.0 / kappa)
    dp_out = [-ok_r * slope_s / p_s, -ok_s * slope_r / p_r,
              (slope_s * ok_r + ok_s * slope_r) * dlnk_dt]
    c = 4.0 * math.log(params.rho) ** 2
    b_s, b_r = (_scaled_ei_gap(params.mu2 / p, params.mu1 / p) for p in (p_s, p_r))
    return np.array([
        [t * dp_out[0], t * dp_out[1], t * dp_out[2] - ok_s * ok_r],
        [_dep_gap_dp(p_s, params) * b_r / c, b_s * _dep_gap_dp(p_r, params) / c, 0.0],
        dp_out,
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
    ])


def lagrangian_gradient(
    p_s: float, p_r: float, t: float, multipliers, params: SystemParams
) -> tuple[float, float, float]:
    """Partials of the Lagrangian of the single-antenna problem.

    Returns (dL/dp_s, dL/dp_r, dL/dt) at an interior point, from analytic
    differentiation of the validated throughput and DEP expressions.  The
    budgets enter the Lagrangian only as constants, so they do not appear.
    """
    if p_s <= 0 or p_r <= 0 or t <= 0:
        raise ValueError("lagrangian_gradient needs a strictly interior point")
    g = _gradients(p_s, p_r, t, params)
    return tuple((g[0] + np.asarray(multipliers, dtype=float) @ g[1:]).tolist())


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


def _largest_power(covert, p_max: float, mu2: float) -> float | None:
    """Largest p <= p_max with covert(p); None before mu2 / p leaves the floats.

    The lower end starts at p_max and steps down by factors of _POWER_FLOOR,
    the last non-covert end becoming the upper end, until it is covert.
    """
    hi = lo = p_max
    while lo * sys.float_info.max >= mu2:
        if covert(lo):
            return _bisect(covert, lo, hi, 1e-14)
        hi, lo = lo, lo * _POWER_FLOOR
    return None


def covert_power_limit(epsilon: float, params: SystemParams, p_max: float) -> float:
    """Largest equal per-hop power keeping the two-hop DEP above 1 - epsilon.

    Bisection on the monotone-decreasing DEP; returns p_max itself when
    even full power stays covert.
    """
    def covert(p: float) -> bool:
        pe = min_dep_slot(p, params)
        return _covert(pe, pe, epsilon)

    p_cov = _largest_power(covert, p_max, params.mu2)
    if p_cov is None:
        raise InfeasibleError(
            "covertness constraint unsatisfiable even at vanishing power", "covertness"
        )
    return p_cov


def _best_rate(p_s: float, p_r: float, delta: float, params: SystemParams) -> float | None:
    """Best rate t >= _T_FLOOR at fixed powers, or None if none is reliable.

    S(t) = (1 - E_s)(1 - E_r), the product of the hop success
    probabilities, falls with t and t S(t) is unimodal, so the best rate
    is the peak of t S(t) or the root of S(t) = 1 - delta, whichever comes
    first: one bisection on "reliable and eta still rising".
    """
    def rising(t: float) -> bool | None:
        # None where rate t is unreliable, else whether eta still rises at t.
        kappa = RateParams(t).kappa
        e_s, slope_s = _hop_single(p_s, kappa, params)
        e_r, slope_r = _hop_single(p_r, kappa, params)
        if _two_hop(e_s, e_r) > delta:
            return None
        # d(t S)/dt > 0  <=>  1 + t dln S/dt > 0, with dln S/dt = dln S/dln kappa
        # * 2 ln 2 (1 + 1/kappa); each hop adds -slope / (1 - E) to dln S/dln kappa.
        dlns_dlnk = -(slope_s / (1.0 - e_s) + slope_r / (1.0 - e_r))
        return 1.0 + t * 2.0 * math.log(2.0) * (1.0 + 1.0 / kappa) * dlns_dlnk > 0.0

    at_floor = rising(_T_FLOOR)
    if not at_floor:
        return None if at_floor is None else _T_FLOOR
    lo, hi = _T_FLOOR, _T_BRACKET
    while rising(hi):
        lo, hi = hi, 2.0 * hi
    return _bisect(rising, lo, hi, 1e-13)


def _frontier_point(p_s: float, constraints: ConstraintSet, params: SystemParams):
    """(p_s, p_r, t): the frontier partner of p_s and their best rate, or None."""
    pe_s = min_dep_slot(p_s, params)
    p_r = _largest_power(lambda p: _covert(pe_s, min_dep_slot(p, params), constraints.epsilon),
                         constraints.p_max, params.mu2)
    t = None if p_r is None else _best_rate(p_s, p_r, constraints.delta, params)
    return None if t is None else (p_s, p_r, t)


def _rises(point, params: SystemParams) -> bool:
    """Whether eta grows as a feasible frontier point moves to larger p_s.

    The frontier's tangent toward larger p_s is (dC/dp_r, -dC/dp_s), C the
    covertness term; at the best rate, whether the peak of t S(t) or the
    reliability root, eta moves with the sign of its power gradient along
    that tangent.
    """
    (neg_eta_s, neg_eta_r, _), (dc_s, dc_r, _) = _gradients(*point, params)[:2].tolist()
    return neg_eta_r * dc_s > neg_eta_s * dc_r


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


def _kkt_certificate(p_s, p_r, t, eta, active, params) -> None:
    """Certify the optimum by the multipliers of its active constraints.

    They are fitted by least squares to stationarity of the elasticity-
    scaled gradient x * dL/dx, which is affine in them, with the scaled
    rows of `_gradients` as its columns.  At the rate floor, the bound of
    the rate domain, stationarity in t relaxes to dL/dt >= 0.
    Raises NumericError unless the residual is below _CERT_TOL eta and no
    multiplier is negative beyond that tolerance.
    """
    idx = [i for i, name in enumerate(_CONSTRAINTS) if name in active]
    scaled = _gradients(p_s, p_r, t, params) * np.array([p_s, p_r, t])
    base, cols = scaled[0], scaled[[1 + i for i in idx]].T
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


def optimize_single(constraints: ConstraintSet, params_template: SystemParams) -> Optimum:
    """Maximize single-antenna covert throughput over (p_s, p_r, t).

    Searches the covertness frontier as the module docstring describes.
    Raises ValueError when `params_template` has more than one antenna
    anywhere, InfeasibleError when no covert powers have a reliable rate
    t >= 1e-3, and NumericError when the optimum fails its KKT
    certificate.
    """
    params = params_template
    if not params.antennas.is_single:
        raise ValueError(f"optimize_single needs single antennas, got {params.antennas}; "
                         "use optimize_multi for TAS/MRC")
    p_max = constraints.p_max
    p_cov = covert_power_limit(constraints.epsilon, params, p_max)

    def rises(p_s: float) -> bool:
        point = _frontier_point(p_s, constraints, params)
        return point is not None and _rises(point, params)

    def eta(p_s: float) -> float:
        p_s, p_r, t = _frontier_point(p_s, constraints, params) or (p_s, p_s, 0.0)
        return throughput_single(params.with_powers(p_s, p_r), RateParams(t)).eta

    # On the half p_s >= p_r: the end p_s = P_max if eta still rises there
    # and is no lower than at p_cov (on a long, flat frontier the slope at
    # P_max is rounding noise), else the last point at which it rises.
    cap = p_cov == p_max or (rises(p_max) and eta(p_max) >= eta(p_cov))
    p_s = p_max if cap else _bisect(rises, p_cov, p_max, 1e-10)
    best = _frontier_point(p_s, constraints, params)
    if best is None:
        raise InfeasibleError("no rate t >= 1e-3 is reliable at covert powers", "reliability")
    p_s, p_r, t = best
    out = throughput_single(params.with_powers(p_s, p_r), RateParams(t))
    active = _active_set(p_s, p_r, out.p_out, constraints, params)
    _kkt_certificate(p_s, p_r, t, out.eta, active, params)
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

    The rate loops of one p_s run as arrays, as the module docstring
    describes; the optimum and the evaluations are those of a scan of one
    point at a time in the same order, with ties going to the smallest
    p_s, then p_r, then t, and so are the kernel values computed, except
    where v_max cuts a row.
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

    dep_s = np.array([min_dep_slot(p, params) for p in ps_grid.tolist()])
    dep_r = dep_s if pr_grid is ps_grid else np.array([min_dep_slot(p, params)
                                                       for p in pr_grid.tolist()])

    # Hop outages at the rates k * h3, one column per (antennas, power),
    # built only for powers of covert pairs.  A column's rows are doubled
    # when a rate loop runs past them, as a one-point-at-a-time scan would.
    hop1, hop2 = (ant.n_s, ant.n_rr), (ant.n_rt, ant.n_d)
    delta = constraints.delta
    kappas = _NO_ROWS
    columns: dict[tuple, np.ndarray] = {}

    def extend(keys, rows: int) -> None:
        # Give the columns of keys (n_t, n_r, p) their first `rows` rows: one
        # kernel call per antenna pair for every column short of them.
        nonlocal kappas
        if kappas.size < rows:
            kappas = np.append(kappas, [RateParams(j * h3).kappa
                                        for j in range(kappas.size + 1, rows + 1)])
        short: dict[tuple, dict] = {}
        for key in keys:
            col = columns.get(key, _NO_ROWS)
            if col.size < rows:
                short.setdefault(key[:2], {})[key] = col
        for pair, cols in short.items():
            y = np.concatenate([kappas[col.size : rows] / key[2] for key, col in cols.items()])
            values = _tas_mrc_outage(*pair, y, params)
            for key, col in cols.items():
                columns[key] = np.concatenate((col, values[: rows - col.size]))
                values = values[rows - col.size :]

    def scan(p_s: float, prs: list):
        # Loop index, k, eta and p_out of each point of the rate loops of
        # (p_s, p_r), p_r in prs, in scan order.  Loops that have not
        # stopped within `width` rates go on from there to twice the width.
        key1, keys2 = (*hop1, p_s), [(*hop2, p_r) for p_r in prs]
        run = np.arange(len(prs))
        peak = np.full(len(prs), -np.inf)
        parts = []
        start, width = 0, _FIRST_ROWS
        while run.size:
            keys = [keys2[i] for i in run.tolist()]
            extend([key1, *keys], width)
            outage2 = np.array([columns[key][start:width] for key in keys])
            p_out = _two_hop(columns[key1][start:width], outage2)
            # k * h3, not a running sum, so every rate lies on the grid.
            ks = np.arange(start + 1, width + 1)
            eta = ks * h3 * (1.0 - p_out)
            # A loop stops before its first rate over the outage budget, or
            # after its first eta phi below the peak so far.
            peaks = np.maximum(np.maximum.accumulate(eta, axis=1), peak[run, None])
            over, fall = p_out > delta, eta + phi < peaks
            any_over, any_fall = over.any(axis=1), fall.any(axis=1)
            n = width - start
            ends = np.minimum(np.where(any_over, over.argmax(axis=1), n),
                              np.where(any_fall, fall.argmax(axis=1) + 1, n))
            kept = np.arange(n) < ends[:, None]
            parts.append((np.repeat(run, ends), np.broadcast_to(ks, kept.shape)[kept],
                          eta[kept], p_out[kept]))
            peak[run] = peaks[:, -1]
            run = run[~(any_over | any_fall)]
            start, width = width, 2 * width
        loop, ks, eta, p_out = (np.concatenate(part) for part in zip(*parts))
        order = np.argsort(loop, kind="stable")
        return loop[order], ks[order], eta[order], p_out[order]

    best = None
    budget = v_max
    for p_s, d_s in zip(ps_grid.tolist(), dep_s.tolist()):
        prs = pr_grid[_covert(d_s, dep_r, constraints.epsilon)].tolist()
        if not prs:
            continue
        # The row's first `budget` points in scan order: the v_max cut.
        loop, ks, eta, p_out = (a[:budget] for a in scan(p_s, prs))
        budget -= eta.size
        # Ties go to the first in scan order: the smallest p_s, p_r and t.
        if eta.size and (best is None or eta.max() > best[3]):
            i = int(eta.argmax())
            best = p_s, prs[loop[i]], float(ks[i] * h3), float(eta[i]), float(p_out[i])
        if evaluations is not None:
            evaluations.extend(zip(itertools.repeat(p_s), map(prs.__getitem__, loop.tolist()),
                                   (ks * h3).tolist(), eta.tolist()))
        if not budget:
            break

    if best is None:
        any_covert = any(_covert(d, dep_r, constraints.epsilon).any() for d in dep_s.tolist())
        tightest = "reliability" if any_covert else "covertness"
        raise InfeasibleError(
            f"no grid point satisfies the constraints (tightest: {tightest})", tightest
        )
    p_s, p_r, t, eta, p_out = best
    return Optimum(p_s, p_r, t, eta, _active_set(p_s, p_r, p_out, constraints, params),
                   method="grid")
