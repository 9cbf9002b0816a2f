"""Detection error probability: reference vs closed forms vs Monte Carlo."""

import math

import numpy as np
import pytest

from covertrelay.channel import RngSpec
from covertrelay.detection import (
    DetectionOutcome,
    dep_slot_paper,
    dep_slot_reference,
    mc_dep_slot,
    mc_dep_two_hop,
    min_dep_slot,
    min_dep_two_hop,
    noise_cdf,
    optimal_threshold,
)
from covertrelay.model import SystemParams, dbm_to_watts
from oracles import oracle_dep_slot

SIGMA_N2 = dbm_to_watts(-5.0)
BASE = SystemParams(3.0, 3.0, SIGMA_N2, 1.5)


def binom_floor(analytic, est):
    return max(est.stderr, math.sqrt(max(analytic * (1 - analytic), 0.0) / est.n))


class TestNoiseCdf:
    def test_clamps_and_interpolates(self):
        assert noise_cdf(BASE.mu1 * 0.5, BASE) == 0.0
        assert noise_cdf(BASE.mu2 * 2.0, BASE) == 1.0
        mid = math.sqrt(BASE.mu1 * BASE.mu2)  # geometric midpoint = sigma_n^2
        assert noise_cdf(mid, BASE) == pytest.approx(0.5, rel=1e-12)

    def test_monotone(self):
        xs = np.linspace(BASE.mu1 * 0.9, BASE.mu2 * 1.1, 200)
        vals = [noise_cdf(float(x), BASE) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_no_overflow_for_large_rho(self):
        # x / mu1 = 1e353 overflows; the CDF is (1 + 153 / 200) / 2.
        params = SystemParams(1, 1, 1e-3, 1e200)
        assert noise_cdf(1e150, params) == pytest.approx(0.8825, rel=0, abs=1e-15)


class TestOutcome:
    def test_combine(self):
        out = DetectionOutcome.combine(1e-3, 0.1, 0.2)
        assert out.xi == pytest.approx(1.0 - 0.9 * 0.8, rel=1e-15)

    def test_rejects_inconsistent_xi(self):
        with pytest.raises(ValueError):
            DetectionOutcome(1e-3, 0.1, 0.2, 0.5)

    def test_rejects_nonprobability(self):
        with pytest.raises(ValueError):
            DetectionOutcome.combine(1e-3, -0.1, 0.2)
        with pytest.raises(ValueError):
            DetectionOutcome.combine(1e-3, 0.1, 1.5)


class TestSlotDep:
    def test_below_lower_bound_is_one(self):
        assert dep_slot_reference(3.0, BASE.mu1 * 0.5, BASE) == 1.0
        assert dep_slot_paper(3.0, BASE.mu1 * 0.5, BASE) == 1.0

    def fuzz_points(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            sigma = dbm_to_watts(float(rng.uniform(-20, 5)))
            rho = float(rng.uniform(1.05, 3.0))
            p = float(rng.uniform(0.05, 5.0))
            params = SystemParams(p, p, sigma, rho)
            tau = float(rng.uniform(params.mu1 * 0.5, params.mu2 * 4.0))
            if tau > 0:
                yield p, tau, params

    def test_reference_in_unit_interval_fuzz(self):
        for p, tau, params in self.fuzz_points():
            val = dep_slot_reference(p, tau, params)
            assert 0.0 <= val <= 1.0

    def test_reference_matches_quad_oracle_fuzz(self):
        for p, tau, params in self.fuzz_points():
            assert dep_slot_reference(p, tau, params) == pytest.approx(
                oracle_dep_slot(p, tau, params), rel=0, abs=1e-12
            )

    def test_reference_at_large_rho(self):
        # Missed detection is certain except in a layer 1e-7 wide in the
        # noise exponent, which a rule over the whole range never samples.
        params = SystemParams(1, 1, 1e-3, 1e10)
        value = dep_slot_reference(1.0, params.mu2, params)
        assert value == pytest.approx(0.99999999782852737, rel=0, abs=1e-12)  # mpmath, 40 digits
        assert min_dep_slot(1.0, params) == pytest.approx(value, rel=0, abs=1e-12)
        # tau / mu1 overflows at rho = 1e200.
        params = SystemParams(1, 1, 1e-3, 1e200)
        assert dep_slot_reference(1.0, 1e150, params) == pytest.approx(
            1.0, rel=0, abs=1e-12)  # mpmath: 1 - O(1e-153)
        assert dep_slot_reference(1e150, 1e150, params) == pytest.approx(
            0.67481999665161638, rel=0, abs=1e-12)  # mpmath, 40 digits

    def test_closed_form_matches_reference_between_bounds(self):
        # The interior branch of the closed form must track the quadrature
        # arbiter to 1e-9 across the whole threshold range.
        taus = np.linspace(BASE.mu1 * 1.0001, BASE.mu2, 100)
        for tau in taus:
            ref = dep_slot_reference(3.0, float(tau), BASE)
            closed = dep_slot_paper(3.0, float(tau), BASE)
            assert abs(closed - ref) < 1e-9

    def test_verbatim_high_threshold_branch_is_wrong(self):
        # The published high-threshold branch is transcribed as printed;
        # it disagrees grossly with the reference (its large-tau limit is
        # not 1) and exists only to feed the discrepancy report.
        tau = BASE.mu2 * 2.0
        ref = dep_slot_reference(3.0, tau, BASE)
        verbatim = dep_slot_paper(3.0, tau, BASE)
        assert 0.0 <= ref <= 1.0
        assert abs(verbatim - ref) > 1.0

    def test_min_dep_slot_matches_reference(self):
        for p in (0.1, 1.0, 3.0, 5.0):
            tau = optimal_threshold(BASE)
            assert min_dep_slot(p, BASE) == pytest.approx(
                dep_slot_reference(p, tau, BASE), abs=1e-10
            )

    def test_min_dep_slot_frozen_value(self):
        # Independently frozen via the quadrature arbiter.
        assert min_dep_slot(3.0, BASE) == pytest.approx(4.979098727542208e-5, rel=1e-9)

    def test_optimal_threshold_value(self):
        assert optimal_threshold(BASE) == pytest.approx(4.743416490252569e-4, rel=1e-12)

    def test_two_hop_combination(self):
        params = BASE.with_powers(1.0, 3.0)
        pe1 = min_dep_slot(1.0, params)
        pe2 = min_dep_slot(3.0, params)
        assert min_dep_two_hop(params) == pytest.approx(
            1.0 - (1.0 - pe1) * (1.0 - pe2), rel=1e-15
        )

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            dep_slot_reference(0.0, 1e-3, BASE)
        with pytest.raises(ValueError):
            dep_slot_paper(1.0, 0.0, BASE)
        with pytest.raises(ValueError):
            min_dep_slot(-1.0, BASE)


class TestMonteCarlo:
    def test_reproducible(self):
        a = mc_dep_slot(1.0, optimal_threshold(BASE), BASE, 10_000, RngSpec(42, 1))
        b = mc_dep_slot(1.0, optimal_threshold(BASE), BASE, 10_000, RngSpec(42, 1))
        assert a == b

    def test_slot_estimate_brackets_closed_form(self):
        tau = optimal_threshold(BASE)
        for p in (0.01, 0.1, 1.0):
            est = mc_dep_slot(p, tau, BASE, 500_000, RngSpec(42, 9))
            analytic = min_dep_slot(p, BASE)
            assert abs(analytic - est.mean) <= 4.0 * binom_floor(analytic, est)

    def test_two_hop_estimate_brackets_closed_form(self):
        params = BASE.with_powers(0.05, 0.2)
        tau = optimal_threshold(params)
        est = mc_dep_two_hop(params, tau, 500_000, RngSpec(42, 3))
        analytic = min_dep_two_hop(params)
        assert abs(analytic - est.mean) <= 4.0 * binom_floor(analytic, est)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_dep_slot(1.0, 1e-3, BASE, 10, RngSpec(0))
        with pytest.raises(ValueError):
            mc_dep_two_hop(BASE, 1e-3, 999, RngSpec(0))
