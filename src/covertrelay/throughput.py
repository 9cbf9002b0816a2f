"""Outage probability and covert throughput for both antenna scenarios.

The single-antenna outage has a compact closed form in Ei differences,
1 - G / (2 ln rho); where x2 = kappa mu2 / p is at most 0.1 that form
cancels, and the outage is taken as (Ein(x2) - Ein(x1)) / (2 ln rho).
`_hop_single` returns it with its slope kappa dE/dkappa, for the optimizer.
The TAS/MRC outage is the mean of the exact composite-gain CDF F over
the log-uniform noise (the reference path), a difference of two values
of an antiderivative of F in the log gain divided by 2 ln rho.  That
antiderivative depends on the antenna pair alone: each outage is read
from the pair's table, built once per process (see `_outage_table`),
for every rho > 1.  Where 2 ln rho spans a panel or more, the difference
is two lookups; below that it is the table polynomial's divided
difference times the interval's exact length, so it does not cancel as
rho -> 1.  The grid scan reads arrays of thresholds (`_tas_mrc_outage`);
a point evaluation reads one threshold in Python floats
(`_OutageTable.outage_at`), with the same bits at a fraction of an
array call's cost.  The published combinatorial expansion
of the integral is also evaluated verbatim, solely to feed the
discrepancy report, because it contains sub-terms that are undefined or
inconsistent as printed.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul
from typing import TYPE_CHECKING

from .errors import NumericError, clamp_unit_interval
from .model import McEstimate, RateParams, RngSpec, SystemParams, _two_hop
from .specfun import _ein, _gauss_legendre, ei_diff, upper_gamma

# numpy, and with it `channel`, is imported inside the functions that build
# arrays, so that the scalar closed forms load only the standard library.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ThroughputOutcome",
    "capacity_hop",
    "outage_hop_single",
    "throughput_single",
    "outage_hop_multi_reference",
    "outage_hop_multi_paper",
    "throughput_multi",
    "mc_outage_hop",
]


@dataclass(frozen=True)
class ThroughputOutcome:
    """Per-hop outages at rate t; the end-to-end outage and covert throughput follow."""

    p_out_hop1: float
    p_out_hop2: float
    t: float

    def __post_init__(self) -> None:
        for name in ("p_out_hop1", "p_out_hop2"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be a probability, got {v}")
        if not self.t >= 0:  # also rejects NaN
            raise ValueError(f"t must be >= 0, got {self.t}")

    @property
    def p_out(self) -> float:
        return _two_hop(self.p_out_hop1, self.p_out_hop2)

    @property
    def eta(self) -> float:
        return self.t * (1.0 - self.p_out)


def capacity_hop(p: float, gain: float, sigma2: float) -> float:
    """Half-duplex hop capacity 0.5 * log2(1 + p * gain / sigma2)."""
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")
    if p <= 0 or gain < 0:
        raise ValueError(f"invalid p={p} or gain={gain}")
    return 0.5 * math.log2(1.0 + p * gain / sigma2)


def _hop_single(p: float, kappa: float, params: SystemParams) -> tuple[float, float]:
    """(E, kappa dE/dkappa): a single-antenna hop outage at SNR threshold kappa > 0.

    The slope is (F(x2) - F(x1)) / (2 ln rho), F(x) = 1 - e^{-x}, with
    x = kappa mu / p.  E depends on kappa / p alone, so p dE/dp = -slope.
    """
    mu1, mu2 = params.mu1, params.mu2
    x2 = kappa * mu2 / p
    if x2 == math.inf:
        return 1.0, 0.0  # the SNR threshold exceeds the float range: certain outage
    x1 = kappa * mu1 / p
    two_ln_rho = 2.0 * math.log(params.rho)
    if x2 > 0.1 and min(kappa * mu1, x1) >= sys.float_info.min:
        value = 1.0 - ei_diff(x2, x1) / two_ln_rho
    else:
        # 1 - G / (2 ln rho) cancels where x2 is small, and a subnormal product
        # loses the Ei gap's precision; the outage is also (Ein(x2) - Ein(x1))
        # / (2 ln rho), with x = kappa mu / p formed from mantissas and
        # exponents so that no subnormal or overflow enters it.
        (mk, ek), (mp, ep) = math.frexp(kappa), math.frexp(p)
        x1, x2 = (math.ldexp(mk * mu / mp, ek - ep) for mu in (mu1, mu2))
        value = (_ein(x2) - _ein(x1)) / two_ln_rho
    slope = (math.expm1(-x1) - math.expm1(-x2)) / two_ln_rho
    return clamp_unit_interval(value, "outage_hop_single"), slope


def outage_hop_single(p: float, rate: RateParams, params: SystemParams) -> float:
    """Single-antenna hop outage probability, closed form."""
    if p <= 0:
        raise ValueError(f"p must be > 0, got {p}")
    if rate.t == 0.0:
        return 0.0
    return _hop_single(p, rate.kappa, params)[0]


def throughput_single(params: SystemParams, rate: RateParams) -> ThroughputOutcome:
    """Covert throughput of the two-hop link with single antennas."""
    hop1 = outage_hop_single(params.p_s, rate, params)
    hop2 = outage_hop_single(params.p_r, rate, params)
    return ThroughputOutcome(hop1, hop2, rate.t)


# The hop outage at threshold y is E(y) = (H(b) - H(a)) / (2 ln rho) with
# H(v) = int_{-inf}^v F(e^w) dw and [a, b] = ln(y sigma^2) -/+ ln rho, or
# 1 - (K(a) - K(b)) / (2 ln rho) with K(v) = int_v^inf (1 - F(e^w)) dw.  H and
# K depend on the antenna pair alone, so each pair gets one table of ln H and
# K, built on first use.  Panels of width a power of 2 (at most 1/2, and at
# most 2 / sqrt(n_t n_r), as the gain CDF steepens) carry _TABLE_NODES
# Chebyshev-Lobatto nodes each; the node values come from _SEGMENT_NODES-point
# Gauss-Legendre segments between consecutive nodes, summed from one panel
# outside each end of the table.
_TABLE_NODES, _SEGMENT_NODES = 20, 8
# Largest interpolation error estimate the table accepts: the last two
# Chebyshev coefficients of a panel over 1 + its largest |ln H|, or K.
_TABLE_TOL = 1e-14
# The table spans gains where F >= 1e-300 (and >= 1e-17, below which F is a
# power of the gain and ln H rises linearly) up to where 1 - F < 1e-17, past
# which H grows as v and K is below 1e-17 / gain.
_TABLE_LOW_GAIN, _TABLE_LOW_CDF, _TABLE_HIGH_SF = 1e-17, 1e-300, 1e-17
# Thresholds per lookup pass: the (2, n, 2, nodes) coefficient arrays, ~0.5 MB
# in all, stay small enough to be reused from the allocator.
_TABLE_BLOCK = 256


@dataclass(frozen=True)
class _OutageTable:
    """ln H and K of one antenna pair, piecewise polynomial in v = ln(gain).

    Panel i (1..panels) covers [(lo + i - 1) width, (lo + i) width], where
    a function is its value at the panel's left end plus a polynomial in
    x in [-1, 1] that vanishes there; panels 0 and panels + 1 hold the end
    values.  Left of the table ln H rises by `slope` per panel.  `error` is
    the build's interpolation error estimate.
    """

    width: float
    lo: float
    hi: float
    slope: float
    coef: np.ndarray  # (panels + 2, 2, 1 + _TABLE_NODES): left value, powers of x
    error: float
    rows: list  # coef as nested lists of floats, for `outage_at`

    def outage(self, y: np.ndarray, params: SystemParams) -> np.ndarray:
        # The interval ends a, b in panels from the table's left end: a whole
        # number and each end's offset from it, so that the local coordinates
        # are exact and two nearby ends differ by 2 ln rho / width.
        import numpy as np

        half = math.log(params.rho) / self.width
        c = np.log(np.minimum(np.maximum(y, 5e-324), sys.float_info.max))
        u = (c + math.log(params.sigma_n2)) / self.width
        whole = np.floor(u)
        ends = (u - whole) + np.array([[-half], [half]])
        shift = np.floor(ends)
        frac = ends - shift
        panel = shift + (whole - self.lo)
        coef = self.coef[np.minimum(np.maximum(panel + 1.0, 0.0), self.coef.shape[0] - 1.0)
                         .astype(np.intp)]
        x = 2.0 * frac - 1.0
        # x^1 .. x^19 of each panel coordinate.
        powers = np.cumprod(np.repeat(x[..., None], _TABLE_NODES - 1, axis=-1), axis=-1)
        left_value = coef[..., 0]
        rest = coef[..., 1] + (coef[..., 2:] * powers[:, :, None, :]).sum(axis=-1)
        pos = panel + frac
        # The change of ln H and of K per panel left of the table.
        tail = np.array([self.slope, -self.width])
        if 2.0 * half < 1.0:
            # [a, b] spans at most one panel edge: its length 4 half in x
            # times the chord's slope, free of the ends' rounding.
            diff = 4.0 * half * _chord_slope(coef, x, shift, panel, tail)
        else:
            # The left values and the polynomials kept apart: two ends in one
            # panel share the left value, and in two panels differ by the
            # change over whole panels, the polynomials only by the rest.
            diff = (left_value[1] - left_value[0]) + (rest[1] - rest[0])
            # The length of [a, b] left of the table, in panels.
            left = np.minimum(np.maximum(-pos[0], 0.0), 2.0 * half)
            diff = diff + left[:, None] * tail
        two_ln_rho = 2.0 * math.log(params.rho)
        ln_h_b = left_value[1, :, 0] + rest[1, :, 0] + self.slope * np.minimum(pos[1], 0.0)
        by_h = np.exp(ln_h_b) * -np.expm1(-diff[:, 0]) / two_ln_rho
        by_k = 1.0 + diff[:, 1] / two_ln_rho
        # K where the outage passes 1/2, or where b leaves the table on the right.
        use_k = (by_h > 0.5) | (pos[1] > self.hi - self.lo)
        # Clamped to [0, 1], and to exactly 0 at y = 0 and 1 at y = inf: the
        # thresholds clamped into the floats above need not read 0 and 1.
        return np.minimum(np.maximum(np.where(use_k, by_k, by_h), y == np.inf), np.sign(y))

    def outage_at(self, y: float, params: SystemParams) -> float:
        """`outage` of one threshold y >= 0, bit for bit, in Python floats.

        The same operations in the same order: powers of x as sequential
        products, each 19-term sum in numpy's pairwise order
        (`_pairwise_dot`), numpy's log, exp and expm1, and numpy's tie rule
        for maximum and minimum (the second argument), so each max and min
        is written with its arguments swapped.  K is read only where the
        outage passes 1/2 or b leaves the table.  Raises ValueError for a
        negative or NaN y.
        """
        import numpy as np

        if not y >= 0:  # also rejects NaN
            raise ValueError("thresholds must be >= 0")
        half = math.log(params.rho) / self.width
        c = float(np.log(min(sys.float_info.max, max(5e-324, y))))
        u = (c + math.log(params.sigma_n2)) / self.width
        whole = float(math.floor(u))
        (shift_a, pos_a, panel_a, x_a, row_a), (shift_b, pos_b, panel_b, x_b, row_b) = (
            self._end((u - whole) + side, whole) for side in (-half, half))
        powers_b = list(accumulate(repeat(x_b, _TABLE_NODES - 1), mul))
        rest_b = row_b[0][1] + _pairwise_dot(row_b[0], powers_b)  # ln H at b, less its left value
        tail = (self.slope, -self.width)
        if 2.0 * half < 1.0:
            # `_chord_slope`: within one panel both of its ends read a's row
            # over [x_a, x_b], and the weight is 1.
            same = shift_a == shift_b
            spans = ([(panel_a, row_a, x_a, x_b)] if same
                     else [(panel_a, row_a, x_a, 1.0), (panel_b, row_b, -1.0, x_b)])
            terms = []
            for _, _, lo, hi in spans:
                terms.append([1.0])
                power = 1.0
                for _ in range(_TABLE_NODES - 2):
                    power = power * lo
                    terms[-1].append(hi * terms[-1][-1] + power)
            w = 1.0 if same else (1.0 - x_a) / ((1.0 - x_a) + (x_b + 1.0))

            def diff(f: int) -> float:
                slope = [0.5 * tail[f] if panel < 0.0 else _pairwise_dot(row[f], h)
                         for (panel, row, _, _), h in zip(spans, terms)]
                return 4.0 * half * (slope[0] if same else w * slope[0] + (1.0 - w) * slope[1])
        else:
            powers_a = list(accumulate(repeat(x_a, _TABLE_NODES - 1), mul))
            left = min(2.0 * half, max(0.0, -pos_a))

            def diff(f: int) -> float:
                at_b = rest_b if f == 0 else row_b[1][1] + _pairwise_dot(row_b[1], powers_b)
                at_a = row_a[f][1] + _pairwise_dot(row_a[f], powers_a)
                return ((row_b[f][0] - row_a[f][0]) + (at_b - at_a)) + left * tail[f]
        two_ln_rho = 2.0 * math.log(params.rho)
        ln_h_b = row_b[0][0] + rest_b + self.slope * min(0.0, pos_b)
        value = float(np.exp(ln_h_b)) * -float(np.expm1(-diff(0))) / two_ln_rho
        if value > 0.5 or pos_b > self.hi - self.lo:
            value = 1.0 + diff(1) / two_ln_rho
        return min(float(y > 0.0), max(float(y == math.inf), value))

    def _end(self, end: float, whole: float) -> tuple:
        # (shift, pos, panel, x, coefficient row) of one end of [a, b], as
        # `outage` forms them.
        shift = float(math.floor(end))
        frac = end - shift
        panel = shift + (whole - self.lo)
        row = self.rows[int(min(len(self.rows) - 1.0, max(0.0, panel + 1.0)))]
        return shift, panel + frac, panel, 2.0 * frac - 1.0, row


def _pairwise_dot(row: list, powers: list) -> float:
    # sum_k row[k + 2] powers[k] over the _TABLE_NODES - 1 = 19 terms, rounded
    # as numpy's pairwise sum rounds a contiguous row: eight partial sums over
    # terms 0-15, combined in pairs, then terms 16, 17 and 18 one at a time.
    t = list(map(mul, row[2:], powers))
    return ((((t[0] + t[8]) + (t[1] + t[9])) + ((t[2] + t[10]) + (t[3] + t[11])))
            + (((t[4] + t[12]) + (t[5] + t[13])) + ((t[6] + t[14]) + (t[7] + t[15])))
            + t[16] + t[17] + t[18])


def _chord_slope(coef: np.ndarray, x: np.ndarray, shift: np.ndarray, panel: np.ndarray,
                 tail: np.ndarray) -> np.ndarray:
    # The mean slope in x of ln H and K over [a, b], at most one panel edge
    # wide.  Within a panel it is the polynomial's divided difference,
    # sum_k c_k h_{k-1}(x_a, x_b) with h_k = x_b h_{k-1} + x_a^k; across an
    # edge, the mean of the slopes over [x_a, 1] and [-1, x_b] weighted by
    # their lengths, so that an error in the weight multiplies only the
    # difference of the two.  Left of the table it is tail / 2, tail being
    # the change per panel and a panel 2 wide in x.
    import numpy as np

    same = shift[0] == shift[1]
    lo = np.stack((x[0], np.where(same, x[0], -1.0)))
    hi = np.stack((np.where(same, x[1], 1.0), x[1]))
    h = np.empty(lo.shape + (_TABLE_NODES - 1,))
    h[..., 0] = power = 1.0
    for k in range(1, _TABLE_NODES - 1):
        power = power * lo
        h[..., k] = hi * h[..., k - 1] + power
    slope = np.where((panel < 0.0)[..., None], 0.5 * tail,
                     (coef[..., 2:] * h[:, :, None, :]).sum(axis=-1))
    w = np.where(same, 1.0, (1.0 - x[0]) / ((1.0 - x[0]) + (x[1] + 1.0)))[:, None]
    return w * slope[0] + (1.0 - w) * slope[1]


@functools.cache
def _outage_table(n_t: int, n_r: int) -> _OutageTable:
    """The (n_t, n_r) table of ln H and K.

    Raises NumericError where a panel's interpolation error estimate passes
    _TABLE_TOL = 1e-14.
    """
    import numpy as np

    from .channel import _tas_mrc_gain_cdf_sf

    nodes_per = _TABLE_NODES
    width = 2.0 ** math.floor(math.log2(min(0.5, 2.0 / math.sqrt(n_t * n_r))))
    # Panel edges k * width, from below the gain _TABLE_LOW_GAIN to past
    # 2 n_r + 100, where 1 - F is far below _TABLE_HIGH_SF.
    k0 = math.floor(math.log(_TABLE_LOW_GAIN) / width) - 1
    k1 = math.ceil(math.log(2.0 * n_r + 100.0) / width) + 2
    edges = np.arange(k0, k1 + 1) * width
    cdf, sf = _tas_mrc_gain_cdf_sf(n_t, n_r, np.exp(edges))
    first = max(1, int(np.argmax(cdf >= _TABLE_LOW_CDF)))
    last = int(np.flatnonzero(sf >= _TABLE_HIGH_SF)[-1]) + 1
    theta = np.pi * np.arange(nodes_per) / (nodes_per - 1)
    nodes = edges[first - 1 : last + 1, None] + width / 2 * (1.0 - np.cos(theta))
    start, stop = nodes[:, :-1], nodes[:, 1:]
    s, w = _gauss_legendre(_SEGMENT_NODES)
    half = (stop - start) / 2
    seg_cdf, seg_sf = _tas_mrc_gain_cdf_sf(
        n_t, n_r, np.exp(((start + stop) / 2)[..., None] + half[..., None] * s))
    # H and K at every node; below the first node H is F / (n_t n_r), F being
    # a power of the gain there, and past the last K is taken as 0.
    h = cdf[first - 1] / (n_t * n_r) + np.concatenate(
        ([0.0], np.cumsum((seg_cdf @ w * half).ravel())))
    k = np.concatenate((np.cumsum((seg_sf @ w * half).ravel()[::-1])[::-1], [0.0]))
    panels = last - first
    idx = np.arange(1, panels + 1)[:, None] * (nodes_per - 1) + np.arange(nodes_per)
    values = np.stack((np.log(h[idx]), k[idx]), axis=1)
    # Chebyshev coefficients of each panel's rise from its left value
    # (x = -cos theta), and the powers of x they sum to.
    to_cheb = np.cos(np.outer(np.arange(nodes_per), theta)) * (2.0 / (nodes_per - 1))
    to_cheb[:, [0, -1]] /= 2
    to_cheb[[0, -1]] /= 2
    to_cheb *= (-1.0) ** np.arange(nodes_per)[:, None]
    cheb = (values - values[..., :1]) @ to_cheb.T
    error = float(np.max(np.abs(cheb[..., -2:]).sum(axis=-1)
                         / (1.0 + np.abs(values).max(axis=-1))))
    if error > _TABLE_TOL:
        raise NumericError(f"TAS/MRC outage table for ({n_t}, {n_r}) has interpolation "
                           f"error {error:.2e} > {_TABLE_TOL}")
    to_powers = np.zeros((nodes_per, nodes_per))
    to_powers[0, 0] = to_powers[1, 1] = 1.0
    for j in range(2, nodes_per):
        to_powers[j, 1:] = 2.0 * to_powers[j - 1, :-1]
        to_powers[j] -= to_powers[j - 2]
    coef = np.zeros((panels + 2, 2, 1 + nodes_per))
    coef[1:-1, :, 0] = values[..., 0]
    coef[1:-1, :, 1:] = cheb @ to_powers
    coef[0, :, 0], coef[-1, :, 0] = values[0, :, 0], values[-1, :, -1]
    coef.setflags(write=False)  # shared by every caller through the cache
    slope = cdf[first] / h[nodes_per - 1]  # d ln H / dv at the table's left end
    return _OutageTable(width, float(k0 + first), float(k0 + last), slope * width, coef,
                        error, coef.tolist())


def _tas_mrc_outage(n_t: int, n_r: int, y, params: SystemParams) -> np.ndarray:
    """E_s[F(y sigma^2 rho^s)] for each threshold y >= 0, s uniform on [-1, 1].

    F is `tas_mrc_gain_cdf(n_t, n_r, .)`, so at y = kappa / p this is the
    hop outage at power p, read from the pair's table for every rho > 1:
    exactly 0 at y = 0 (rate 0) and 1 at y = inf (kappa past the floats).
    Raises ValueError for a negative or NaN y.
    """
    import numpy as np

    y = np.asarray(y, dtype=float)
    if not np.all(y >= 0):  # also rejects NaN
        raise ValueError("thresholds must be >= 0")
    table = _outage_table(n_t, n_r)
    flat = y.ravel()
    out = np.empty(flat.size)
    for i in range(0, flat.size, _TABLE_BLOCK):
        out[i : i + _TABLE_BLOCK] = table.outage(flat[i : i + _TABLE_BLOCK], params)
    return out.reshape(y.shape)


def outage_hop_multi_reference(
    p: float, rate: RateParams, params: SystemParams, n_t: int, n_r: int
) -> float:
    """TAS/MRC hop outage: E over noise of the composite-gain CDF.

    The outage event {capacity < T} is {gain < kappa * sigma^2 / p}; its
    mean over the log-uniform noise power is read from the antenna pair's
    table at the threshold kappa / p.
    """
    if p <= 0:
        raise ValueError(f"p must be > 0, got {p}")
    return _outage_table(n_t, n_r).outage_at(rate.kappa / p, params)


def outage_hop_multi_paper(
    p: float,
    rate: RateParams,
    params: SystemParams,
    n_t: int,
    n_r: int,
    interpretation: str = "ln_rho_sq_arg",
) -> float | str:
    """Verbatim published combinatorial TAS/MRC outage form: its value, or its violation text.

    Evaluated exactly as printed, for the discrepancy report only.  Its
    defects are surfaced, never repaired, and every input meets one, so it
    returns the violation's text, never a value: the gamma order n_r - 1
    degenerates at n_r = 1, kappa = 0 is raised to a negative power, and
    otherwise the inner sum's (j-1) factor gives a negative incomplete-gamma
    argument at its first term, j = 0, so the loop past j = 0 never runs;
    it stays as the transcription of the printed expansion.
    `interpretation`, which thus never reaches a value, reads the ambiguous
    trailing log factor as ln(rho^2) ("ln_rho_sq_arg") or as (ln rho)^2
    ("ln_rho_sq_whole").
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
        return "formula-domain-violation: incomplete gamma of order 0"
    if kappa == 0.0:
        return "formula-domain-violation: zero SNR threshold raised to a negative power"
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
                    return f"formula-domain-violation: negative incomplete-gamma argument at j={j}"
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
    return prefactor * total


def throughput_multi(params: SystemParams, rate: RateParams) -> ThroughputOutcome:
    """Covert throughput of the two-hop link under TAS/MRC.

    Each hop's outage is one scalar read of its antenna pair's table, the
    value `outage_hop_multi_reference` gives.
    """
    ant, kappa = params.antennas, rate.kappa
    hop1 = _outage_table(ant.n_s, ant.n_rr).outage_at(kappa / params.p_s, params)
    hop2 = _outage_table(ant.n_rt, ant.n_d).outage_at(kappa / params.p_r, params)
    return ThroughputOutcome(hop1, hop2, rate.t)


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
    import numpy as np

    from .channel import _mc_count, sample_noise_power, sample_tas_mrc_gain

    def count(gen, m):
        gain = sample_tas_mrc_gain(n_t, n_r, gen, m)
        sigma2 = sample_noise_power(params, gen, m)
        # capacity < T  <=>  p * gain < kappa * sigma2
        return int(np.count_nonzero(p * gain < kappa * sigma2))

    p_hat = _mc_count(rng, n, count) / n
    return McEstimate(p_hat, math.sqrt(p_hat * (1.0 - p_hat) / n), n, rng.seed)
