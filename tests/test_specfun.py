"""Special-function layer vs the independent quadrature oracle."""

import math

import numpy as np
import pytest

from covertrelay.specfun import (
    _ein,
    ei_diff,
    expint_ei,
    expint_ei_scaled,
    upper_gamma,
)

from oracles import oracle_ei, oracle_ei_diff, oracle_upper_gamma


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestExpintEi:
    def test_known_values(self):
        assert expint_ei(1.0) == pytest.approx(1.895117816355937, rel=1e-13)
        assert expint_ei(-1.0) == pytest.approx(-0.2193839343955205, rel=1e-13)

    def test_oracle_agreement_positive_axis(self):
        for x in np.geomspace(1e-6, 50.0, 120):
            assert rel_err(expint_ei(float(x)), oracle_ei(float(x))) < 1e-10

    def test_oracle_agreement_negative_axis(self):
        for x in np.geomspace(1e-6, 50.0, 120):
            assert rel_err(expint_ei(float(-x)), oracle_ei(float(-x))) < 1e-10

    def test_large_positive_does_not_overflow_when_scaled(self):
        # The unscaled Ei overflows past ~709; the scaled variant must not.
        for x in (500.0, 1e3, 1e6, 1e12):
            s = expint_ei_scaled(x)
            assert math.isfinite(s)
            # Leading asymptotic behavior is 1/x.
            assert s == pytest.approx(1.0 / x, rel=0.05)

    def test_scaled_matches_unscaled_in_overlap(self):
        for x in np.geomspace(0.5, 600.0, 60):
            x = float(x)
            expected = oracle_ei(x) * math.exp(-x)
            assert rel_err(expint_ei_scaled(x), expected) < 1e-10

    def test_finite_past_the_overflow_of_exp(self):
        # e^x overflows from x ~ 709.78, Ei(x) only from x ~ 716.36.
        assert rel_err(expint_ei(710.0), 3.15091568820620121493864119169e305) < 1e-13
        assert expint_ei(717.0) == math.inf
        assert expint_ei(1e300) == math.inf
        # Below the overflow of e^x the values are those of e^x times the
        # scaled series, unchanged.
        assert expint_ei(100.0) == 2.71555274485377e41
        assert expint_ei(709.0) == 1.160794336657257e305
        assert expint_ei(709.78) == 2.529453953646056e305

    def test_monotone_increasing_on_positive_axis(self):
        grid = np.geomspace(1e-8, 200.0, 400)
        vals = [expint_ei(float(x)) for x in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_decreasing_on_negative_axis(self):
        # Ei(x) -> 0- as x -> -inf and -> -inf as x -> 0-, so along
        # increasing x < 0 the function decreases.
        grid = -np.geomspace(1e-8, 200.0, 400)[::-1]
        vals = [expint_ei(float(x)) for x in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_zero_and_nonfinite(self):
        with pytest.raises(ValueError):
            expint_ei(0.0)
        with pytest.raises(ValueError):
            expint_ei(float("nan"))
        with pytest.raises(ValueError):
            expint_ei(float("inf"))

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            expint_ei_scaled(0.0)
        with pytest.raises(ValueError):
            expint_ei_scaled(-2.0)



class TestEin:
    def test_matches_e1_plus_gamma_plus_log(self):
        for z in np.geomspace(0.5, 50.0, 40):
            z = float(z)
            expected = -oracle_ei(-z) + 0.57721566490153286061 + math.log(z)
            assert rel_err(_ein(z), expected) < 1e-10

    def test_small_arguments_keep_relative_precision(self):
        assert _ein(0.0) == 0.0
        assert _ein(1e-300) == 1e-300
        assert _ein(1e-8) == pytest.approx(1e-8 - 1e-16 / 4, rel=1e-15)
        with pytest.raises(ValueError):
            _ein(-1.0)


class TestEiDiff:
    def test_known_gap(self):
        assert ei_diff(1.0, 3.0) == pytest.approx(-0.20633555330132347, rel=1e-12)

    def test_antisymmetry_and_sign(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x, y = np.exp(rng.uniform(-14, 4, size=2))
            x, y = float(x), float(y)
            if x == y:
                continue
            d = ei_diff(x, y)
            assert d == -ei_diff(y, x)
            assert (d > 0) == (x > y)

    def test_cancellation_regime_matches_oracle(self):
        # Nearly equal arguments are where naive subtraction loses digits.
        rng = np.random.default_rng(12)
        for _ in range(80):
            y = float(np.exp(rng.uniform(-10, 3)))
            x = y * (1.0 + float(rng.uniform(1e-8, 0.2)))
            assert rel_err(ei_diff(x, y), oracle_ei_diff(x, y)) < 1e-10

    def test_wide_gap_matches_oracle(self):
        for lo, hi in ((1e-6, 40.0), (0.01, 5.0), (0.5, 100.0), (2.0, 300.0)):
            assert rel_err(ei_diff(hi, lo), oracle_ei_diff(hi, lo)) < 1e-10

    def test_small_argument_limit(self):
        # For x = rho^2 * y, y -> 0, the gap tends to ln(rho^2) = 2 ln rho.
        y = 1e-12
        assert ei_diff(2.25 * y, y) == pytest.approx(2.0 * math.log(1.5), rel=1e-9)

    def test_identical_arguments(self):
        assert ei_diff(3.7, 3.7) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ei_diff(-1.0, 2.0)
        with pytest.raises(ValueError):
            ei_diff(1.0, 0.0)


class TestUpperGamma:
    def test_known_values(self):
        # Gamma(1, x) = e^{-x}; Gamma(3, 1) = 5/e.
        assert upper_gamma(1, 2.5) == pytest.approx(math.exp(-2.5), rel=1e-14)
        assert upper_gamma(3, 1.0) == pytest.approx(5.0 / math.e, rel=1e-14)
        assert upper_gamma(4, 0.0) == pytest.approx(6.0, rel=1e-14)

    def test_oracle_agreement(self):
        for s in (1, 2, 3, 5, 8, 12):
            for x in np.geomspace(1e-4, 50.0, 25):
                got = upper_gamma(s, float(x))
                want = oracle_upper_gamma(s, float(x))
                assert rel_err(got, want) < 1e-10

    def test_recurrence(self):
        # Gamma(s+1, x) = s Gamma(s, x) + x^s e^{-x}
        rng = np.random.default_rng(13)
        for _ in range(100):
            s = int(rng.integers(1, 21))
            x = float(rng.uniform(0.0, 50.0))
            lhs = upper_gamma(s + 1, x)
            rhs = s * upper_gamma(s, x) + x**s * math.exp(-x)
            assert rel_err(lhs, rhs) < 1e-12

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            upper_gamma(0, 1.0)
        with pytest.raises(ValueError):
            upper_gamma(2.5, 1.0)
        with pytest.raises(ValueError):
            upper_gamma(True, 1.0)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            upper_gamma(2, -0.1)
