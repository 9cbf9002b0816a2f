"""Covert-throughput maximization under covertness/reliability/power budgets.

Single-antenna: covertness, (1 - Pe(p_s))(1 - Pe(p_r)) <= epsilon,
depends only on the powers, and eta and the reliability both grow with
each power, so the optimum lies on the covertness frontier, capped at
P_max.  By the symmetry in the powers, the outer search runs over the
half p_s >= p_r of the frontier on the sign of eta's slope along the
frontier tangent, read from `_gradients`, with secant steps on that
slope.  Each frontier point pairs p_s with the largest covert p_r, found
by Newton steps on the covertness term, and takes the peak of t S(t) or
the root of S(t) = 1 - delta, whichever comes first, by secant and
Newton steps (S is the product of the hop success probabilities, read
from `throughput`'s hop model).  All three levels are one search,
`_search`: a step is taken only where it lands inside the bracket kept
by the level's test, else the search bisects, so each result passes its
test exactly.  The rate domain is t >= 1e-3 bit/s/Hz.  Method "kkt"
certifies the result: the active multipliers, fitted to `_gradients` by
least squares (Gram–Schmidt in Python floats), are nonnegative
and leave a stationarity residual below 1e-6 eta.

Multi-antenna: a grid scan over log-spaced power grids (a tight
covertness budget puts the feasible powers decades below P_max).  The
rate loops of all covert (p_s, p_r) pairs run side by side in passes of
16, 16, 32, 64, ... rates over arrays of at most _SCAN_CELLS cells, each
stopping at the outage budget or once past its peak, and count their
points; the first v_max points are read back in scan order, in windows
of _SCAN_CELLS points.  Hop outages come from a store per antenna pair
with a row per power, filled by `throughput._tas_mrc_outage`, one call
per antenna pair and pass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .detection import _dep_single, min_dep_slot, min_dep_two_hop
from .errors import InfeasibleError, NumericError, clamp_unit_interval
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
# The single-antenna rate domain starts at _T_FLOOR.  The rate bracket
# ends at _T_CEIL: from t = 512 on kappa leaves the floats, and every hop
# is in outage.
_T_FLOOR, _T_CEIL = 1e-3, 1024.0
# Largest stationarity residual the KKT certificate accepts, relative to eta.
_CERT_TOL = 1e-6
_CONSTRAINTS = ("covertness", "reliability", "power_s", "power_r")
# Rates of a multi-antenna rate loop's first pass; each next pass doubles them.
_FIRST_ROWS = 16
# Cells (loops x rates) of a pass's arrays, and points of a read-back window.
_SCAN_CELLS = 8192


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


def _gradients(p_s: float, p_r: float, t: float, params: SystemParams) -> list[list[float]]:
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
    (_, b_s, db_s), (_, b_r, db_r) = (_dep_single(p, params) for p in (p_s, p_r))
    return [[t * dp_out[0], t * dp_out[1], t * dp_out[2] - ok_s * ok_r],
            [db_s * b_r / c, b_s * db_r / c, 0.0],
            dp_out, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


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
    grad, *rows = _gradients(p_s, p_r, t, params)
    return tuple(g + sum(m * r[i] for m, r in zip(multipliers, rows, strict=True))
                 for i, g in enumerate(grad))


# ---------------------------------------------------------------------------
# Covertness-frontier search.
# ---------------------------------------------------------------------------


def _search(probe, lo: float, hi: float, rel: float, x: float,
            step: float | None = 0.0) -> float:
    """Last x in [lo, hi) where the test holds, to `rel` relative.

    probe(x) returns whether the test holds at x and a proposed step in
    ln x toward the threshold, or None.  The test must hold below a
    threshold and fail above it; hi counts as failing, and lo is returned
    when the test fails everywhere above it.  The first proposal is x
    moved by `step`, each next one the last probe moved by its step.  It
    is probed where it lands inside the bracket and moves at most half as
    far as the move before the last, so that the moves shrink at least
    geometrically.  A converged step lands on an end: a proposal within a
    factor 1 + rel/2 inside an end, or within 1 + sqrt(rel) outside it
    (where a quadratically converging step's next error is rel), is moved
    a factor 1 + rel/2 inside that end, so that one more probe closes the
    bracket; each further such probe before the next proposal that is
    taken as it is doubles that factor, up to half the bracket.  Otherwise
    the search bisects in ln x.  Between subnormal ends it stops where no
    float lies between them, short of `rel`.
    """
    reach = rel / 2
    older = old = math.inf  # lengths in ln x of the last two moves
    while hi / lo >= 1.0 + rel:
        # A step past e^700 leaves any bracket; the cap keeps exp finite.
        at, x = x, None if step is None else x * math.exp(min(step, 700.0))
        low, high = lo * (1.0 + reach), hi / (1.0 + reach)
        near = 1.0 + max(reach, math.sqrt(rel))
        if x is not None and low <= x <= high and abs(math.log(x / at)) <= older / 2:
            reach = rel / 2
        elif x is not None and low < high and (lo / near < x < low or high < x < hi * near):
            x, reach = min(max(x, low), high), 2.0 * reach
        else:
            x = None
        if x is None or not lo < x < hi:
            x = math.sqrt(lo) * math.sqrt(hi)
            if not lo < x < hi:
                break  # subnormal ends: no float lies between them
        # A start that was never probed (x == at) has made no move yet.
        older, old = old, math.inf if at == x else abs(math.log(x / at))
        holds, step = probe(x)
        if holds:
            lo = x
        else:
            hi = x
    return lo


def _secant(last, z: float, v: float) -> float | None:
    """Step from z to the root of the line through last = (z0, v0) and (z, v), or None."""
    return None if last is None or last[1] == v else -v * (z - last[0]) / (v - last[1])


def _covert_probe(epsilon: float, params: SystemParams, pe_s: float | None = None):
    """probe(p) for `_search`: whether p is covert beside a hop of slot DEP pe_s.

    With pe_s None the other hop has power p too.  The step is Newton's on
    ln C - ln epsilon in ln p, C = (1 - pe_s)(1 - Pe(p)) the covertness
    term; d ln(1 - Pe) / d ln p = p B'(p) / B(p), B = 2 ln rho (1 - Pe).
    The test is the covertness test itself, so a covert result is covert
    by it and not by a tolerance.
    """
    log_eps, two_ln_rho = math.log(epsilon), 2.0 * math.log(params.rho)
    hops = 2.0 if pe_s is None else 1.0

    def probe(p: float):
        pe, _, db = _dep_single(p, params)
        pe = clamp_unit_interval(pe, "min_dep_slot")
        other = pe if pe_s is None else pe_s
        c = (1.0 - other) * (1.0 - pe)
        slope = hops * p * db / (two_ln_rho * (1.0 - pe)) if c else 0.0
        step = (log_eps - math.log(c)) / slope if slope > 0.0 else None
        return _covert(other, pe, epsilon), step

    return probe


def _largest_power(probe, p_max: float, start: float | None = None) -> float | None:
    """Largest p <= p_max where probe(p) holds; None once the lower end underflows to 0.

    Probes p_max first.  While the lower end fails, it becomes the upper
    end, and the next lower end is `start` (once, where it lies below),
    else the failing end's Newton target (once, where it lies less than a
    factor _POWER_FLOOR below), else a factor _POWER_FLOOR lower.  The
    search from the first end that holds starts with that end's step.
    Where mu2 / p overflows the DEP is exactly 1, so a covertness probe
    holds there at the latest.
    """
    hi = lo = p_max
    newton = True
    while lo > 0.0:
        holds, step = probe(lo)
        if holds:
            return _search(probe, lo, hi, 1e-14, lo, step)
        hi = lo
        if start is not None and start < hi:
            lo, start = start, None
        elif newton and step is not None and math.log(_POWER_FLOOR) < step < -1e-14:
            lo, newton = hi * math.exp(step), False
        else:
            lo = hi * _POWER_FLOOR
    return None


def covert_power_limit(epsilon: float, params: SystemParams, p_max: float) -> float:
    """Largest equal per-hop power keeping the two-hop DEP above 1 - epsilon.

    Newton steps on the covertness term, safeguarded by its bracket, as
    `_search` takes them; returns p_max itself when even full power stays
    covert.  Raises ValueError for epsilon outside (0, 1) or p_max outside (0, inf).
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0 < p_max < math.inf:
        raise ValueError(f"p_max must be in (0, inf), got {p_max}")
    p_cov = _largest_power(_covert_probe(epsilon, params), p_max)
    if p_cov is None:
        raise InfeasibleError(
            "covertness constraint unsatisfiable even at vanishing power", "covertness"
        )
    return p_cov


def _best_rate(p_s: float, p_r: float, delta: float, params: SystemParams,
               start: float | None = None) -> float | None:
    """Best rate t >= _T_FLOOR at fixed powers, or None if none is reliable.

    S(t) = (1 - E_s)(1 - E_r), the product of the hop success
    probabilities, falls with t and t S(t) is unimodal, so the best rate
    is the peak of t S(t) or the root of S(t) = 1 - delta, whichever comes
    first: one search on "reliable and eta still rising", from `start` if
    given.  Its steps in ln t are Newton's toward S = 1 - delta, on
    ln(-ln S) - ln(-ln(1 - delta)), which is near-linear in ln t where
    S -> 1, and the secant's on g = 1 + d ln S / d ln t, whichever lands
    first.
    """
    log_ok = math.log1p(-delta)
    last = None  # (ln t, g) of the previous probe

    def rising(t: float):
        # Whether rate t is reliable and eta still rises there (None where
        # it is unreliable), and the step.
        nonlocal last
        kappa = RateParams(t).kappa
        e_s, slope_s = _hop_single(p_s, kappa, params)
        e_r, slope_r = _hop_single(p_r, kappa, params)
        if e_s == 1.0 or e_r == 1.0:
            return None, None
        # d(t S)/dt > 0  <=>  1 + t dln S/dt > 0, with dln S/dt = dln S/dln kappa
        # * 2 ln 2 (1 + 1/kappa); each hop adds -slope / (1 - E) to dln S/dln kappa.
        dlns_dlnk = -(slope_s / (1.0 - e_s) + slope_r / (1.0 - e_r))
        dlns = t * 2.0 * math.log(2.0) * (1.0 + 1.0 / kappa) * dlns_dlnk
        holds = None if _two_hop(e_s, e_r) > delta else 1.0 + dlns > 0.0
        z, g = math.log(t), 1.0 + dlns
        ln_s = math.log1p(-e_s) + math.log1p(-e_r)
        newton = ((math.log(-log_ok) - math.log(-ln_s)) * ln_s / dlns
                  if dlns < 0.0 and ln_s < 0.0 else None)
        steps = [step for step in (newton, _secant(last, z, g)) if step is not None]
        last = z, g
        return holds, min(steps, default=None)

    at_floor, step = rising(_T_FLOOR)
    if not at_floor:
        return None if at_floor is None else _T_FLOOR
    return _search(rising, _T_FLOOR, _T_CEIL, 1e-13, start or _T_FLOOR, 0.0 if start else step)


def _frontier_point(p_s: float, constraints: ConstraintSet, params: SystemParams,
                    p_cov: float, t: float | None):
    """(p_s, p_r, t): the frontier partner of p_s and their best rate, or None.

    The partner search starts at p_cov, the partner of p_s = p_cov, and the
    rate search at t where it is given.  The partner is capped at p_s: at
    p_s = p_cov the search can land a few ulps above p_cov, off the half
    p_s >= p_r, and (p_cov, p_cov) is covert by the definition of p_cov.
    """
    probe = _covert_probe(constraints.epsilon, params, min_dep_slot(p_s, params))
    p_r = _largest_power(probe, constraints.p_max, p_cov)
    p_r = None if p_r is None else min(p_r, p_s)
    t = None if p_r is None else _best_rate(p_s, p_r, constraints.delta, params, t)
    return None if t is None else (p_s, p_r, t)


def _rises(point, p_cov: float, params: SystemParams) -> float:
    """d, positive where eta grows as a feasible frontier point moves to larger p_s.

    The frontier's tangent toward larger p_s is (dC/dp_r, -dC/dp_s), C the
    covertness term; at the best rate, whether the peak of t S(t) or the
    reliability root, eta moves with the sign of its power gradient along
    that tangent.  d is that slope normalised, as the sine of the angle
    between the elasticity gradients of eta and of C, over ln(p_s / p_cov):
    by symmetry the slope vanishes at p_cov too, and d keeps only the
    optimum's root.  Frontier points have p_s > p_cov, so the denominator
    is positive and d has the slope's sign.
    """
    (e_s, e_r), (c_s, c_r) = ([g * x for g, x in zip(row, point[:2])]
                              for row in _gradients(*point, params)[:2])
    return ((e_r * c_s - e_s * c_r)
            / (math.hypot(e_s, e_r) * math.hypot(c_s, c_r) * math.log(point[0] / p_cov)))


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


def _least_squares(cols, base) -> list[float]:
    """k minimizing |base + sum_j k[j] cols[j]|, by Gram–Schmidt on the columns.

    A column that the columns before it span, all but less than sqrt(eps)
    of its norm, gets k = 0; numpy's `lstsq` spreads the fit over it at
    minimum norm instead, with the same residual.
    """
    cut, basis = math.sqrt(sys.float_info.epsilon), []
    for j, v in enumerate([*cols, base]):  # basis: (q, u), orthonormal q = sum_i u[i] cols[i]
        u, size = [float(i == j) for i in range(len(cols))], math.hypot(*v)
        for q, w in basis * 2:  # twice, so that the basis stays orthonormal to rounding
            c = sum(a * b for a, b in zip(q, v))
            v, u = [a - c * b for a, b in zip(v, q)], [a - c * b for a, b in zip(u, w)]
        if j < len(cols) and (left := math.hypot(*v)) > cut * size:
            basis.append(([a / left for a in v], [a / left for a in u]))
    return u  # base's remainder, base + sum_i k[i] cols[i], has u = k


def _kkt_certificate(p_s, p_r, t, eta, active, params) -> None:
    """Certify the optimum by the multipliers of its active constraints.

    They are fitted by `_least_squares` to stationarity of the elasticity-
    scaled gradient x * dL/dx, which is affine in them, with the scaled
    rows of `_gradients` as its columns.  At the rate floor, the bound of
    the rate domain, stationarity in t relaxes to dL/dt >= 0.  Raises
    NumericError, with the multipliers by name, unless the residual is
    below _CERT_TOL eta and no multiplier is negative beyond that tolerance.
    """
    base, *grads = ([g * x for g, x in zip(row, (p_s, p_r, t))]
                    for row in _gradients(p_s, p_r, t, params))
    cols = {name: col for name, col in zip(_CONSTRAINTS, grads) if name in active}
    rows = 2 if t == _T_FLOOR else 3
    k = dict(zip(cols, _least_squares([c[:rows] for c in cols.values()], base[:rows])))
    stationarity = [b + sum(k[n] * cols[n][i] for n in cols) for i, b in enumerate(base)]
    residual = max(map(abs, stationarity[:rows]))
    tol = _CERT_TOL * eta
    if (residual > tol or stationarity[2] < -tol
            or any(k[n] * max(map(abs, cols[n])) < -tol for n in cols)):
        raise NumericError(f"no KKT certificate at (p_s, p_r, t) = ({p_s}, {p_r}, {t}): "
                           f"residual {residual}, multipliers {k}")


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
    points: dict = {}
    t_last = None  # the last best rate found, where the next rate search starts
    last = None  # (ln p_s, d) of the previous outer probe

    def point(p_s: float):
        # Each frontier point is evaluated once per solve.
        nonlocal t_last
        if p_s not in points:
            points[p_s] = pt = _frontier_point(p_s, constraints, params, p_cov, t_last)
            t_last = t_last if pt is None else pt[2]
        return points[p_s]

    def rises(p_s: float):
        # `_rises` at the frontier point of p_s, with the secant's step on d.
        nonlocal last
        pt = point(p_s)
        if pt is None:
            return False, None
        d = _rises(pt, p_cov, params)
        step = _secant(last, math.log(p_s), d)
        last = math.log(p_s), d
        return d > 0.0, step

    # On the half p_s >= p_r: the end p_s = P_max if eta still rises there,
    # else the last point at which it rises.  Next to p_cov, d is rounding
    # noise where the frontier is flat, so the first side test is a factor
    # 1 + 1e-6 above it: where eta falls there, p_cov is taken.
    near = p_cov * (1.0 + 1e-6)
    if p_cov == p_max or rises(p_max)[0]:
        p_s = p_max
    elif near < p_max and (side := rises(near))[0]:
        p_s = _search(rises, near, p_max, 1e-10, near, side[1])
    else:
        p_s = p_cov
    best = point(p_s)
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

    The optimum (ties go to the smallest p_s, then p_r, then t), the
    evaluations and, unless v_max cuts the scan, the kernel values are
    those of a scan of one point at a time.
    """
    import numpy as np

    if not phi > 0:
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
        top = p_max * (1 + 1e-12)
        if not (0 < h1 < top and 0 < h2 < top and h3 > 0):
            raise ValueError(f"step sizes must be > 0, and h1, h2 <= P_max, got {steps}")
        # k h rounds up to an ulp past P_max at the top of the grid.
        ps_grid, pr_grid = (np.minimum(np.arange(h, top, h), p_max) for h in (h1, h2))
    ps_list, pr_list = ps_grid.tolist(), pr_grid.tolist()  # floats the evaluations share
    dep_s = np.array([min_dep_slot(p, params) for p in ps_list])
    dep_r = dep_s if pr_grid is ps_grid else np.array([min_dep_slot(p, params) for p in pr_list])
    # Hop outages at the rates k * h3 per antenna pair, a row per power id
    # (equal powers share one), NaN where not yet computed.
    powers, ids = np.unique(np.concatenate((ps_grid, pr_grid)), return_inverse=True)
    ps_id, pr_id = ids[: ps_grid.size], ids[ps_grid.size :]
    hop1, hop2 = (ant.n_s, ant.n_rr), (ant.n_rt, ant.n_d)
    stores = {pair: np.full((powers.size, _FIRST_ROWS), np.nan) for pair in (hop1, hop2)}

    # The rate loops of all covert pairs, in scan order, run side by side in
    # passes of doubling width and only count their points.
    i, j = np.nonzero(_covert(dep_s[:, None], dep_r, constraints.epsilon))
    run, peak, points = np.arange(i.size), np.full(i.size, -np.inf), np.zeros(i.size, int)
    start, width = 0, _FIRST_ROWS
    while run.size:
        kappa = np.array([RateParams(k * h3).kappa for k in range(start + 1, width + 1)])
        a, b = ps_id[i[run]], pr_id[j[run]]
        # One kernel call per antenna pair adds this pass's rates to the rows its
        # loops read, which hold every earlier rate (loops only leave the passes),
        # so a row ends, as in a scan of one point at a time, at a doubling.
        for pair, need in ({hop1: a, hop2: b} if hop1 != hop2
                           else {hop1: np.concatenate((a, b))}).items():
            values = stores[pair]
            if values.shape[1] < width:  # by one doubling
                values = stores[pair] = np.pad(values, [(0, 0), (0, width // 2)],
                                               constant_values=np.nan)
            # The sorted distinct rows; np.unique of integers would load numpy.ma.
            rows = np.flatnonzero(np.bincount(need, minlength=powers.size))
            values[rows, start:width] = _tas_mrc_outage(*pair, kappa / powers[rows, None], params)
        # k * h3, not a running sum, so every rate lies on the grid.
        rates = np.arange(start + 1, width + 1) * h3
        step = max(1, _SCAN_CELLS // rates.size)
        going = []
        for c in range(0, run.size, step):
            loop = run[c : c + step]
            p_out = _two_hop(stores[hop1][a[c : c + step], start:width],
                             stores[hop2][b[c : c + step], start:width])
            eta = rates * (1.0 - p_out)
            # A loop stops before its first rate over the outage budget,
            # or after its first eta phi below the peak so far.
            peaks = np.maximum(np.maximum.accumulate(eta, axis=1), peak[loop, None])
            over, fall = p_out > constraints.delta, eta + phi < peaks
            any_over, any_fall = over.any(axis=1), fall.any(axis=1)
            points[loop] += np.minimum(np.where(any_over, over.argmax(axis=1), rates.size),
                                       np.where(any_fall, fall.argmax(axis=1) + 1, rates.size))
            peak[loop] = peaks[:, -1]
            going.append(loop[~(any_over | any_fall)])
        run = np.concatenate(going)
        # A loop whose first point lies past the v_max-th has none to count.
        run = run[(np.cumsum(points) - points)[run] < v_max]
        start, width = width, 2 * width

    # The first v_max points, read back in scan order in windows of
    # _SCAN_CELLS points: each point's loop and rate k from the counts,
    # and its eta from the stores.
    ends = np.cumsum(points)
    t_list = (np.arange(points.max(initial=0) + 1) * h3).tolist()  # floats the evaluations share
    best = None  # (eta, loop, k, p_out) of the best point so far
    stop = min(v_max, int(points.sum()))
    for x0 in range(0, stop, _SCAN_CELLS):
        x1 = min(x0 + _SCAN_CELLS, stop)
        lo, hi = np.searchsorted(ends, [x0, x1 - 1], side="right")  # loops of x0, x1 - 1
        loop = np.repeat(np.arange(lo, hi + 1), np.diff(np.minimum(ends[lo : hi + 1], x1),
                                                        prepend=x0))
        k = np.arange(x0 + 1, x1 + 1) - ends[loop] + points[loop]
        p_out = _two_hop(stores[hop1][ps_id[i[loop]], k - 1], stores[hop2][pr_id[j[loop]], k - 1])
        eta = k * h3 * (1.0 - p_out)
        # Ties go to the first in scan order: the smallest p_s, p_r and t.
        if best is None or eta.max() > best[0]:
            x = int(eta.argmax())
            best = float(eta[x]), int(loop[x]), int(k[x]), float(p_out[x])
        if evaluations is not None:
            evaluations.extend(zip(map(ps_list.__getitem__, i[loop].tolist()),
                                   map(pr_list.__getitem__, j[loop].tolist()),
                                   map(t_list.__getitem__, k.tolist()), eta.tolist()))

    if best is None:
        if i.size:
            raise InfeasibleError(
                "no grid point satisfies the constraints (tightest: reliability)", "reliability"
            )
        # No grid power is covert: say where the grids start, and where the
        # covert equal powers lie when that is below them.
        lowest = min(ps_grid[0], pr_grid[0])
        why = f"no grid power is covert; the grids start at {lowest:.6g} W"
        try:
            p_cov = covert_power_limit(constraints.epsilon, params, p_max)
        except InfeasibleError as exc:
            why += f", and {exc}"
        else:
            if p_cov < lowest:
                why += f", and the largest covert equal power is {p_cov:.6g} W"
        raise InfeasibleError(
            f"no grid point satisfies the constraints (tightest: covertness): {why}", "covertness"
        )
    eta, loop, k, p_out = best
    p_s, p_r = ps_list[i[loop]], pr_list[j[loop]]
    return Optimum(p_s, p_r, k * h3, eta, _active_set(p_s, p_r, p_out, constraints, params),
                   method="grid")
