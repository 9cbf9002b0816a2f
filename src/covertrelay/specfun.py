"""Special functions used by the closed-form performance expressions.

Everything downstream (detection error probability, outage probability)
reduces to the exponential integral Ei, differences of Ei at negative
arguments, and the upper incomplete gamma function of integer order.
These are implemented here from scratch so they can be validated against
an independent quadrature oracle.  The Gauss-Legendre rules of every
quadrature in the package are built here too.
"""

from __future__ import annotations

import functools
import math
import sys

from .model import _require_finite

__all__ = [
    "expint_ei",
    "expint_ei_scaled",
    "ei_diff",
    "upper_gamma",
]

EULER_GAMMA = 0.57721566490153286061


# The iterative kernels stop where the next term, or Lentz factor, no
# longer changes the result; the most terms they take.
_MAX_ITER = 500

# Switch points between the series / continued-fraction / asymptotic
# kernels.  The positive-axis power series is used up to the point where
# the asymptotic expansion delivers full double precision; on the
# negative axis the alternating series is abandoned early because of
# cancellation.
_POS_SERIES_CUTOFF = 40.0
_NEG_SERIES_CUTOFF = 1.0


def _ei_sum(x: float) -> float:
    # sum_{k>=1} x^k / (k * k!): Ei(x) = gamma + ln x + _ei_sum(x) for x > 0,
    # and Ein(z) = -_ei_sum(-z).  Negating x negates every term exactly.
    total = 0.0
    term = 1.0
    for k in range(1, _MAX_ITER + 1):
        term *= x / k
        nxt = total + term / k
        if nxt == total:
            return total
        total = nxt
    raise ArithmeticError(f"Ei power series did not converge for x={x}")


def _ei_asymptotic_excess(x: float) -> float:
    # x e^{-x} Ei(x) - 1 ~ sum_{k>=1} k!/x^k, summed directly because the
    # difference cancels for large x; truncated at the smallest term or once
    # a term no longer changes the sum.
    total = 0.0
    term = 1.0
    for k in range(1, _MAX_ITER + 1):
        nxt = term * k / x
        if nxt >= term or total + nxt == total:
            break
        total += nxt
        term = nxt
    return total


def _ei_asymptotic_scaled(x: float) -> float:
    # e^{-x} Ei(x) ~ (1/x) sum_{k>=0} k!/x^k, its excess over 1/x summed first.
    return (1.0 + _ei_asymptotic_excess(x)) / x


def _ein(z: float) -> float:
    """Ein(z) = E1(z) + gamma + ln z for z >= 0, the entire part of E1."""
    if not z >= 0:
        raise ValueError(f"Ein requires z >= 0, got {z}")
    if z > _NEG_SERIES_CUTOFF:
        return EULER_GAMMA + math.log(z) - expint_ei(-z)
    return 0.0 - _ei_sum(-z)  # 0.0 - keeps Ein(0) = +0.0


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
        if abs(delta - 1.0) <= sys.float_info.epsilon:
            return math.exp(-z) * h
    raise ArithmeticError(f"E1 continued fraction did not converge for z={z}")


def expint_ei(x: float) -> float:
    """Exponential integral Ei(x) for real nonzero x.

    For x < 0 this equals -E1(-x).  The logarithmic singularity at the
    origin is rejected rather than returned as -inf.
    """
    x = _require_finite("x", x)
    if x == 0.0:
        raise ValueError("Ei has a logarithmic singularity at x = 0")
    if x > 0:
        if x <= _POS_SERIES_CUTOFF:
            return EULER_GAMMA + math.log(x) + _ei_sum(x)
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
    x = _require_finite("x", x)
    if x <= 0:
        raise ValueError(f"expint_ei_scaled requires x > 0, got {x}")
    if x <= _POS_SERIES_CUTOFF:
        return math.exp(-x) * (EULER_GAMMA + math.log(x) + _ei_sum(x))
    return _ei_asymptotic_scaled(x)


@functools.cache
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Ascending nodes and the weights of the n-point Gauss-Legendre rule on [-1, 1].

    Five Newton steps on P_n, evaluated by its three-term recurrence, from
    Tricomi's first guesses for the nonnegative nodes; the weights are
    2 / ((1 - x^2) P_n'(x)^2) at the last step.  The rule is mirrored, so
    exactly symmetric, and built in Python floats as tuples, which the
    cache can share.
    """
    nodes, weights = [], []
    # j P_j = (2j - 1) x P_{j-1} - (j - 1) P_{j-2}, its coefficients as floats.
    steps = [(2.0 * j - 1.0, j - 1.0, float(j)) for j in range(2, n + 1)]
    for k in range(1, (n + 1) // 2 + 1):
        x = (1.0 - (n - 1) / (8.0 * n**3)) * math.cos(math.pi * (4 * k - 1) / (4 * n + 2))
        for _ in range(5):
            p0, p1 = 1.0, x
            for a, b, j in steps:
                p0, p1 = p1, (a * x * p1 - b * p0) / j
            sine2 = (1.0 - x) * (1.0 + x)
            slope = n * (p0 - x * p1) / sine2  # P_n'(x)
            x = x - p1 / slope
        nodes.append(x)
        weights.append(2.0 / (sine2 * (slope * slope)))
    return (tuple(-x for x in nodes) + tuple(nodes[::-1][n % 2 :]),
            tuple(weights) + tuple(weights[::-1][n % 2 :]))


def ei_diff(x: float, y: float) -> float:
    """Ei(-x) - Ei(-y) for x, y > 0.

    Positive whenever x > y.  When the arguments are within ~25% of each
    other and at most 1 apart, the naive difference cancels badly, so the
    gap is the integral of e^(-t)/t over [x, y] by the 32-point
    Gauss-Legendre rule.  Further apart, E1(hi) / E1(lo) < e^(-1): the
    naive difference keeps its digits, and the rule would not.
    """
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    if x <= 0 or y <= 0:
        raise ValueError(f"ei_diff requires positive arguments, got ({x}, {y})")
    if x == y:
        return 0.0
    lo, hi = (x, y) if x < y else (y, x)
    if hi - lo <= min(0.25 * hi, 1.0):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total = 0.0
        for s, w in zip(*_gauss_legendre(32)):
            t = mid + half * s
            total += w * (math.exp(-t) / t)
        gap = half * total  # = Ei(-hi) - Ei(-lo)
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
    x = _require_finite("x", x)
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    # term_k = e^{-x} x^k / k!, accumulated by recurrence to avoid overflow.
    term = math.exp(-x)
    total = term
    for k in range(1, s):
        term *= x / k
        total += term
    return math.factorial(s - 1) * total
