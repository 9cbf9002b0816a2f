"""Outage and throughput: closed form vs quadrature vs Monte Carlo."""

import math

import numpy as np
import pytest

from covertrelay.channel import RngSpec
from covertrelay.model import (
    AntennaConfig,
    RateParams,
    SystemParams,
    dbm_to_watts,
)
from covertrelay.specfun import ei_diff
from oracles import oracle_tas_mrc_outage
from covertrelay.throughput import (
    ThroughputOutcome,
    capacity_hop,
    mc_outage_hop,
    noise_expectation,
    outage_hop_multi_paper,
    outage_hop_multi_reference,
    outage_hop_single,
    throughput_multi,
    throughput_single,
)

SIGMA_N2 = dbm_to_watts(-5.0)
BASE = SystemParams(1.0, 1.0, SIGMA_N2, 1.5)


class TestCapacity:
    def test_values(self):
        assert capacity_hop(1.0, 0.0, 1e-3) == 0.0
        assert capacity_hop(2.0, 1.5, 1.0) == pytest.approx(0.5 * math.log2(4.0), rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            capacity_hop(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            capacity_hop(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            capacity_hop(1.0, -1.0, 1.0)


class TestOutcome:
    def test_combine_identities(self):
        out = ThroughputOutcome.combine(0.1, 0.2, 1.5)
        assert out.p_out == pytest.approx(1.0 - 0.9 * 0.8, rel=1e-15)
        assert out.eta == pytest.approx(1.5 * 0.9 * 0.8, rel=1e-15)

    def test_rejects_inconsistent_fields(self):
        with pytest.raises(ValueError):
            ThroughputOutcome(0.1, 0.2, 0.5, 0.75, 1.5)
        with pytest.raises(ValueError):
            ThroughputOutcome(0.1, 0.2, 0.28, 0.5, 1.5)
        with pytest.raises(ValueError):
            ThroughputOutcome(-0.1, 0.2, 0.28, 1.08, 1.5)


class TestSingleAntenna:
    def test_zero_rate(self):
        assert outage_hop_single(1.0, RateParams(0.0), BASE) == 0.0
        out = throughput_single(BASE, RateParams(0.0))
        assert out.p_out == 0.0 and out.eta == 0.0

    def test_frozen_value(self):
        assert outage_hop_single(1.0, RateParams(1.5), BASE) == pytest.approx(
            0.002272022894214243, rel=1e-9
        )

    def test_huge_rate_saturates(self):
        assert outage_hop_single(1.0, RateParams(30.0), BASE) >= 1.0 - 1e-9
        # kappa overflows at t = 600; at t = 511 only kappa * mu2 / p does.
        assert outage_hop_single(1.0, RateParams(600.0), BASE) == 1.0
        assert outage_hop_single(1e-6, RateParams(511.0), BASE) == 1.0
        out = throughput_single(BASE, RateParams(600.0))
        assert out.p_out == 1.0 and out.eta == 0.0

    def test_monotone_in_rate_and_power(self):
        ts = np.linspace(0.01, 4.0, 60)
        outs = [outage_hop_single(1.0, RateParams(float(t)), BASE) for t in ts]
        assert all(b >= a for a, b in zip(outs, outs[1:]))
        ps = np.geomspace(1e-3, 5.0, 60)
        outs = [outage_hop_single(float(p), RateParams(1.5), BASE) for p in ps]
        assert all(b <= a for a, b in zip(outs, outs[1:]))

    def test_throughput_product_identity(self):
        # eta = T * G1 * G2 / (4 ln^2 rho) with G the Ei gap per hop.
        params = BASE.with_powers(0.7, 2.3)
        rate = RateParams(1.2)
        kappa = rate.kappa
        two_ln_rho = 2.0 * math.log(params.rho)
        g1 = ei_diff(kappa * params.mu2 / 0.7, kappa * params.mu1 / 0.7)
        g2 = ei_diff(kappa * params.mu2 / 2.3, kappa * params.mu1 / 2.3)
        expected = rate.t * g1 * g2 / (two_ln_rho * two_ln_rho)
        assert throughput_single(params, rate).eta == pytest.approx(expected, rel=1e-12)

    def test_matches_mc(self):
        rate = RateParams(0.5)
        for p in (0.05, 1.0):
            analytic = outage_hop_single(p, rate, BASE)
            est = mc_outage_hop(p, rate, BASE, 1, 1, 500_000, RngSpec(42, 11))
            floor = max(est.stderr, math.sqrt(analytic * (1 - analytic) / est.n))
            assert abs(analytic - est.mean) <= 4.0 * floor


class TestMultiAntenna:
    def test_reduces_to_single(self):
        rate = RateParams(1.5)
        for p in np.geomspace(0.01, 5.0, 5):
            for t in np.linspace(0.2, 3.0, 5):
                rate = RateParams(float(t))
                single = outage_hop_single(float(p), rate, BASE)
                multi = outage_hop_multi_reference(float(p), rate, BASE, 1, 1)
                assert abs(single - multi) < 1e-9

    def test_frozen_values(self):
        # abs=0: pytest.approx's default abs=1e-12 would accept any of these.
        # The (2,8) and (4,4) values are oracle_tas_mrc_outage's.
        rate = RateParams(1.5)
        assert outage_hop_multi_reference(1.0, rate, BASE, 2, 2) == pytest.approx(
            8.970077373835423e-12, rel=1e-6, abs=0
        )
        assert outage_hop_multi_reference(1.0, rate, BASE, 2, 8) == pytest.approx(
            1.0291306756825152e-50, rel=1e-6, abs=0
        )
        assert outage_hop_multi_reference(1.0, rate, BASE, 4, 4) == pytest.approx(
            5.020380043951484e-47, rel=1e-6, abs=0
        )

    @pytest.mark.parametrize("n_t,n_r", [(1, 1), (2, 2), (2, 8), (4, 4)])
    def test_matches_incomplete_gamma_oracle(self, n_t, n_r):
        # Up to rho = 1e6, where 128 nodes are not enough and the kernel
        # must refine.
        for rho in (1.01, 1.5, 3.0, 10.0, 1e3, 1e6):
            params = SystemParams(1.0, 1.0, SIGMA_N2, rho)
            for p in np.geomspace(5e-6, 5.0, 7):
                for t in np.geomspace(0.01, 5.0, 7):
                    rate = RateParams(float(t))
                    got = outage_hop_multi_reference(float(p), rate, params, n_t, n_r)
                    ref = oracle_tas_mrc_outage(float(p), rate.kappa, SIGMA_N2, rho, n_t, n_r)
                    assert abs(got - ref) <= 1e-12, (rho, p, t)
                    if ref > 1e-300:
                        assert abs(got - ref) <= 1e-10 * ref, (rho, p, t)

    def test_panels_resolve_huge_noise_uncertainty(self):
        # A single 1024-node rule no longer resolves the outage at rho = 1e30.
        for rho in (1e10, 1e30):
            params = SystemParams(1.0, 1.0, SIGMA_N2, rho)
            for p in (1e-4, 1.0):
                for t in (0.1, 1.5):
                    rate = RateParams(t)
                    got = outage_hop_multi_reference(p, rate, params, 2, 8)
                    ref = oracle_tas_mrc_outage(p, rate.kappa, SIGMA_N2, rho, 2, 8)
                    assert abs(got - ref) <= 1e-12, (rho, p, t)

    def test_kernel_is_elementwise(self):
        # An array of thresholds gives the scalar wrapper's values exactly.
        rates = [RateParams(t) for t in (0.3, 1.5, 4.0)]
        y = np.array([[r.kappa / p for r in rates] for p in (1e-4, 1.0)])
        table = noise_expectation(2, 8, y, BASE)
        assert table.shape == y.shape
        for i, p in enumerate((1e-4, 1.0)):
            for j, rate in enumerate(rates):
                assert table[i, j] == outage_hop_multi_reference(p, rate, BASE, 2, 8)

    def test_overflowing_rate_is_certain_outage(self):
        assert outage_hop_multi_reference(1.0, RateParams(600.0), BASE, 2, 8) == 1.0
        params = SystemParams(1.0, 1.0, SIGMA_N2, 1.5, AntennaConfig(2, 8, 2, 8))
        out = throughput_multi(params, RateParams(600.0))
        assert out.p_out == 1.0 and out.eta == 0.0

    def test_more_antennas_never_hurt(self):
        rate = RateParams(1.5)
        base = outage_hop_multi_reference(1.0, rate, BASE, 2, 2)
        assert outage_hop_multi_reference(1.0, rate, BASE, 4, 2) <= base
        assert outage_hop_multi_reference(1.0, rate, BASE, 2, 4) <= base

    def test_throughput_multi_uses_per_hop_antennas(self):
        params = SystemParams(1.0, 1.0, SIGMA_N2, 1.5, AntennaConfig(2, 8, 2, 8))
        rate = RateParams(1.5)
        out = throughput_multi(params, rate)
        assert out.p_out_hop1 == outage_hop_multi_reference(1.0, rate, params, 2, 8)
        assert out.eta > throughput_single(params, rate).eta

    def test_verbatim_form_violations(self):
        rate = RateParams(1.5)
        # Single receive antenna: incomplete gamma of order zero.
        v = outage_hop_multi_paper(1.0, rate, BASE, 2, 1)
        assert not v.ok and "violation" in v.violation
        # Zero rate: zero raised to a negative power.
        v = outage_hop_multi_paper(1.0, RateParams(0.0), BASE, 2, 2)
        assert not v.ok
        # General case: the j = 0 term demands a negative gamma argument.
        for n_t, n_r in ((2, 2), (2, 8), (4, 4)):
            for interp in ("ln_rho_sq_arg", "ln_rho_sq_whole"):
                v = outage_hop_multi_paper(1.0, rate, BASE, n_t, n_r, interp)
                assert not v.ok
                assert "negative incomplete-gamma" in v.violation

    def test_verbatim_form_rejects_unknown_interpretation(self):
        with pytest.raises(ValueError):
            outage_hop_multi_paper(1.0, RateParams(1.5), BASE, 2, 2, "something")

    def test_matches_mc_where_observable(self):
        # Pick a power low enough that the outage is MC-observable.
        rate = RateParams(1.5)
        p = 1e-3
        analytic = outage_hop_multi_reference(p, rate, BASE, 2, 2)
        assert analytic > 1e-4
        est = mc_outage_hop(p, rate, BASE, 2, 2, 500_000, RngSpec(42, 12))
        floor = max(est.stderr, math.sqrt(analytic * (1 - analytic) / est.n))
        assert abs(analytic - est.mean) <= 4.0 * floor


class TestMcOutage:
    def test_overflowing_rate_is_certain_outage(self):
        for n_t, n_r in ((1, 1), (2, 8)):
            est = mc_outage_hop(1.0, RateParams(600.0), BASE, n_t, n_r, 10_000, RngSpec(5))
            assert est.mean == 1.0

    def test_reproducible(self):
        a = mc_outage_hop(0.01, RateParams(1.5), BASE, 2, 2, 10_000, RngSpec(3, 1))
        b = mc_outage_hop(0.01, RateParams(1.5), BASE, 2, 2, 10_000, RngSpec(3, 1))
        assert a == b

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mc_outage_hop(1.0, RateParams(1.5), BASE, 1, 1, 10, RngSpec(0))
        with pytest.raises(ValueError):
            mc_outage_hop(0.0, RateParams(1.5), BASE, 1, 1, 10_000, RngSpec(0))
