"""Special functions used by the closed-form performance expressions.

Everything downstream (detection error probability, outage probability)
reduces to the exponential integral Ei, differences of Ei at negative
arguments, and the upper incomplete gamma function of integer order.
These are implemented here from scratch so they can be validated against
an independent quadrature oracle.
"""

from __future__ import annotations

import math

__all__ = [
    "expint_ei",
    "expint_ei_scaled",
    "ei_diff",
    "upper_gamma",
]

EULER_GAMMA = 0.57721566490153286061


# Convergence control of the iterative kernels: relative and absolute
# tolerance on the last term, and the most terms summed.
_REL_TOL = 1e-12
_ABS_TOL = 1e-15
_MAX_ITER = 500

# Switch points between the series / continued-fraction / asymptotic
# kernels.  The positive-axis power series is used up to the point where
# the asymptotic expansion delivers full double precision; on the
# negative axis the alternating series is abandoned early because of
# cancellation.
_POS_SERIES_CUTOFF = 40.0
_NEG_SERIES_CUTOFF = 1.0


def _ei_series_positive(x: float) -> float:
    # Ei(x) = gamma + ln x + sum_{k>=1} x^k / (k * k!), all terms positive.
    total = 0.0
    term = 1.0
    for k in range(1, _MAX_ITER + 1):
        term *= x / k
        contrib = term / k
        total += contrib
        if contrib < _REL_TOL * abs(total) + _ABS_TOL:
            return EULER_GAMMA + math.log(x) + total
    raise ArithmeticError(f"Ei power series did not converge for x={x}")


def _ei_asymptotic_scaled(x: float) -> float:
    # e^{-x} Ei(x) ~ (1/x) sum_k k!/x^k; truncated at the smallest term.
    total = 0.0
    term = 1.0 / x
    for k in range(1, _MAX_ITER + 1):
        total += term
        nxt = term * k / x
        if nxt >= term:
            break
        if nxt < _REL_TOL * abs(total):
            total += nxt
            break
        term = nxt
    return total


def _ei_asymptotic_excess(x: float) -> float:
    # x e^{-x} Ei(x) - 1 ~ sum_{k>=1} k!/x^k, truncated as above; summed
    # directly because the difference cancels for large x.
    total = 0.0
    term = 1.0
    for k in range(1, _MAX_ITER + 1):
        nxt = term * k / x
        if nxt >= term:
            break
        total += nxt
        if nxt < _REL_TOL * total:
            break
        term = nxt
    return total


def _ein(z: float) -> float:
    """Ein(z) = E1(z) + gamma + ln z for z >= 0, the entire part of E1."""
    if not z >= 0:
        raise ValueError(f"Ein requires z >= 0, got {z}")
    if z > _NEG_SERIES_CUTOFF:
        return EULER_GAMMA + math.log(z) - expint_ei(-z)
    # sum_{k>=1} (-1)^{k+1} z^k / (k * k!), all terms below 1 in size.
    total = 0.0
    term = 1.0
    for k in range(1, _MAX_ITER + 1):
        term *= -z / k
        contrib = -term / k
        total += contrib
        if abs(contrib) < _REL_TOL * abs(total) + _ABS_TOL:
            return total
    raise ArithmeticError(f"Ein series did not converge for z={z}")


def _e1_continued_fraction(z: float) -> float:
    # Modified Lentz evaluation of E1(z) = e^{-z} / (z + 1 - 1/(z + 3 - 4/(...)))
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for k in range(1, _MAX_ITER + 1):
        a = -(k * k)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        if c == 0.0:
            c = tiny
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _REL_TOL:
            return math.exp(-z) * h
    raise ArithmeticError(f"E1 continued fraction did not converge for z={z}")


def _check_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def expint_ei(x: float) -> float:
    """Exponential integral Ei(x) for real nonzero x.

    For x < 0 this equals -E1(-x).  The logarithmic singularity at the
    origin is rejected rather than returned as -inf.
    """
    x = _check_finite("x", x)
    if x == 0.0:
        raise ValueError("Ei has a logarithmic singularity at x = 0")
    if x > 0:
        if x <= _POS_SERIES_CUTOFF:
            return _ei_series_positive(x)
        try:
            return math.exp(x) * _ei_asymptotic_scaled(x)
        except OverflowError:
            # e^x overflows past x ~ 709.78 but Ei(x) only past x ~ 716.36,
            # where the split product overflows to inf.
            split = math.exp(x - 16.0) if x < 720.0 else math.inf
            return split * _ei_asymptotic_scaled(x) * math.exp(16.0)
    z = -x
    if z <= _NEG_SERIES_CUTOFF:
        return EULER_GAMMA + math.log(z) - _ein(z)
    return -_e1_continued_fraction(z)


def expint_ei_scaled(x: float) -> float:
    """e^(-x) * Ei(x) for x > 0, stable for arbitrarily large x.

    The unscaled Ei overflows near x = 709; the detection formulas only
    ever need the scaled product, which stays O(1/x).
    """
    x = _check_finite("x", x)
    if x <= 0:
        raise ValueError(f"expint_ei_scaled requires x > 0, got {x}")
    if x <= _POS_SERIES_CUTOFF:
        return math.exp(-x) * _ei_series_positive(x)
    return _ei_asymptotic_scaled(x)


# 32-point Gauss-Legendre nodes/weights on [-1, 1] (upper half; symmetric).
_GL_NODES = (
    0.0483076656877383162, 0.1444719615827964934, 0.2392873622521370745,
    0.3318686022821276497, 0.4213512761306353454, 0.5068999089322293900,
    0.5877157572407623290, 0.6630442669302152010, 0.7321821187402896804,
    0.7944837959679424070, 0.8493676137325699701, 0.8963211557660521240,
    0.9349060759377396892, 0.9647622555875064307, 0.9856115115452683354,
    0.9972638618494815635,
)
_GL_WEIGHTS = (
    0.0965400885147278006, 0.0956387200792748594, 0.0938443990808045654,
    0.0911738786957638847, 0.0876520930044038111, 0.0833119242269467552,
    0.0781938957870703065, 0.0723457941088485062, 0.0658222227763618468,
    0.0586840934785355471, 0.0509980592623761762, 0.0428358980222266807,
    0.0342738629130214331, 0.0253920653092620595, 0.0162743947309056706,
    0.0070186100094700966,
)


def _gauss_legendre_exp_over_t(a: float, b: float) -> float:
    # integral_a^b e^{-t}/t dt on a short interval, 0 < a < b.
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    for u, w in zip(_GL_NODES, _GL_WEIGHTS):
        tp = mid + half * u
        tm = mid - half * u
        total += w * (math.exp(-tp) / tp + math.exp(-tm) / tm)
    return half * total


def ei_diff(x: float, y: float) -> float:
    """Ei(-x) - Ei(-y) for x, y > 0.

    Positive whenever x > y.  When the arguments are within ~25% of each
    other the naive difference cancels badly, so the gap is evaluated as
    the integral of e^(-t)/t over [x, y] instead.
    """
    x = _check_finite("x", x)
    y = _check_finite("y", y)
    if x <= 0 or y <= 0:
        raise ValueError(f"ei_diff requires positive arguments, got ({x}, {y})")
    if x == y:
        return 0.0
    lo, hi = (x, y) if x < y else (y, x)
    if hi - lo <= 0.25 * hi:
        gap = _gauss_legendre_exp_over_t(lo, hi)  # = Ei(-hi) - Ei(-lo)
        return gap if x > y else -gap
    return expint_ei(-x) - expint_ei(-y)


def upper_gamma(s: int, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) for integer s >= 1 and x >= 0.

    Uses the exact finite-sum identity
    Gamma(s, x) = (s-1)! e^(-x) sum_{k=0}^{s-1} x^k / k!.
    """
    if not isinstance(s, (int,)) or isinstance(s, bool):
        raise ValueError(f"order s must be a positive integer, got {s!r}")
    if s < 1:
        raise ValueError(f"order s must be >= 1, got {s}")
    x = _check_finite("x", x)
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    # term_k = e^{-x} x^k / k!, accumulated by recurrence to avoid overflow.
    term = math.exp(-x)
    total = term
    for k in range(1, s):
        term *= x / k
        total += term
    return math.factorial(s - 1) * total
