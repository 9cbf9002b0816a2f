"""Outage and throughput: closed form vs quadrature vs Monte Carlo."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from covertrelay import throughput
from covertrelay.channel import tas_mrc_gain_cdf
from covertrelay.errors import NumericError
from covertrelay.model import (
    AntennaConfig,
    RateParams,
    RngSpec,
    SystemParams,
    dbm_to_watts,
)
from covertrelay.specfun import ei_diff
from oracles import noise_expectation, oracle_ei, oracle_outage_single, oracle_tas_mrc_outage
from covertrelay.throughput import (
    ThroughputOutcome,
    _hop_single,
    _outage_table,
    _tas_mrc_outage,
    capacity_hop,
    mc_outage_hop,
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
        out = ThroughputOutcome(0.1, 0.2, 1.5)
        assert out.p_out == pytest.approx(1.0 - 0.9 * 0.8, rel=1e-15)
        assert out.eta == pytest.approx(1.5 * 0.9 * 0.8, rel=1e-15)

    def test_rejects_nonprobability_hops(self):
        with pytest.raises(ValueError, match="p_out_hop1 must be a probability"):
            ThroughputOutcome(-0.1, 0.2, 1.5)
        with pytest.raises(ValueError, match="p_out_hop2 must be a probability"):
            ThroughputOutcome(0.1, 1.5, 1.5)

    def test_rejects_negative_or_nan_rate(self):
        for t in (-1.0, math.nan):
            with pytest.raises(ValueError, match="t must be >= 0"):
                ThroughputOutcome(0.1, 0.2, t)


class TestSingleAntenna:
    def test_zero_rate(self):
        assert outage_hop_single(1.0, RateParams(0.0), BASE) == 0.0
        out = throughput_single(BASE, RateParams(0.0))
        assert out.p_out == 0.0 and out.eta == 0.0

    def test_frozen_value(self):
        assert outage_hop_single(1.0, RateParams(1.5), BASE) == pytest.approx(
            0.002272022894214243, rel=1e-9
        )

    def test_rejects_nonpositive_power(self):
        for p in (0.0, -1.0):
            with pytest.raises(ValueError, match="p must be > 0"):
                outage_hop_single(p, RateParams(1.5), BASE)

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

    def test_tiny_rates_give_the_first_order_outage(self):
        # kappa sigma^2 / p below the normal floats: the outage is
        # E[kappa x / p] = kappa (mu2 - mu1) / (2 p ln rho) to first order.
        for rho in (1.001, 2.0, 1e3):
            params = SystemParams(1.0, 1.0, 1.0, rho)
            for t in (5e-324, 2.2250738585e-313, 1e-310, 2.2e-308):
                rate = RateParams(t)
                first = rate.kappa * (params.mu2 - params.mu1) / (2e3 * math.log(rho))
                got = outage_hop_single(1e3, rate, params)
                assert got == pytest.approx(first, rel=1e-9, abs=1e-321)
        # Rates that made the Ei gap raise: x1 and x2 underflow to 0, or
        # kappa * mu1 does before the division by p.
        params = SystemParams(1.0, 1.0, 1e-13, 2.0)
        assert 0.0 <= outage_hop_single(1.0, RateParams(2.2250738585e-313), params) < 1e-300
        params = SystemParams(1.0, 1.0, 1e-13, 1.25)
        rate = RateParams(2.3337307066302523e-304)
        first = rate.kappa * (params.mu2 - params.mu1) / (2e-12 * math.log(1.25))
        assert outage_hop_single(1e-12, rate, params) == pytest.approx(first, rel=1e-9)

    @pytest.mark.parametrize("p,t,rho,sigma2", [(1.0, 1e-6, 1.5, 1e-3),
                                                (1e3, 1e-100, 1.001, 1e-13)])
    def test_small_thresholds_keep_relative_accuracy(self, p, t, rho, sigma2):
        # Below x2 = kappa mu2 / p = 0.1, 1 - G / (2 ln rho) cancels; the
        # Ein form does not.
        params = SystemParams(1.0, 1.0, sigma2, rho)
        rate = RateParams(t)
        expected = oracle_outage_single(p, rate.kappa, params)
        assert outage_hop_single(p, rate, params) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_subnormal_power_and_threshold(self):
        # p and kappa * mu1 below the normal floats: mu / p overflows and a
        # subnormal product rounds coarsely, so x1 and x2 are formed without
        # either.  The outage is 1 - (Ei(-x2) - Ei(-x1)) / (2 ln rho).
        params = SystemParams(1.0, 1.0, 1.0, 2.0)
        for p, t in ((1e-310, 1e-309), (1e-315, 3e-313), (5e-324, 5e-324)):
            rate = RateParams(t)
            x1, x2 = (float(Fraction(rate.kappa) * Fraction(mu) / Fraction(p))
                      for mu in (params.mu1, params.mu2))
            expected = 1.0 - (oracle_ei(-x2) - oracle_ei(-x1)) / (2.0 * math.log(2.0))
            assert outage_hop_single(p, rate, params) == pytest.approx(expected, rel=1e-12)


    def test_hop_slope_is_the_gain_cdf_gap_and_minus_p_de_dp(self):
        # kappa dE/dkappa = (F(x2) - F(x1)) / (2 ln rho), F the (1,1) gain CDF;
        # E depends on kappa / p alone, so the slope is also -p dE/dp.  x2
        # stays below 10, where E's rounding near 1 does not swamp a central
        # difference in p.
        rng = np.random.default_rng(14)
        for _ in range(2000):
            rho = math.exp(rng.uniform(math.log(1.001), math.log(1e3)))
            params = SystemParams(1.0, 1.0, math.exp(rng.uniform(math.log(1e-13), 0.0)), rho)
            p = math.exp(rng.uniform(math.log(1e-6), math.log(1e3)))
            x2 = math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
            rate = RateParams(0.5 * math.log2(1.0 + x2 * p / params.mu2))
            kappa = rate.kappa
            slope = _hop_single(p, kappa, params)[1]
            cdf_gap = (tas_mrc_gain_cdf(1, 1, kappa * params.mu2 / p)
                       - tas_mrc_gain_cdf(1, 1, kappa * params.mu1 / p)) / (2.0 * math.log(rho))
            assert slope == pytest.approx(cdf_gap, rel=1e-12, abs=0)
            h = 1e-6 * p
            central = (outage_hop_single(p + h, rate, params)
                       - outage_hop_single(p - h, rate, params)) / (2.0 * h)
            assert slope == pytest.approx(-p * central, rel=1e-5, abs=0)


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
        # From rho - 1 = 1e-9, where the table reads its divided differences,
        # up to rho = 1e6.
        for rho in (1.0 + 1e-9, 1.0 + 1e-6, 1.01, 1.5, 3.0, 10.0, 1e3, 1e6):
            params = SystemParams(1.0, 1.0, SIGMA_N2, rho)
            for p in np.geomspace(5e-6, 5.0, 7):
                for t in np.geomspace(0.01, 5.0, 7):
                    rate = RateParams(float(t))
                    got = outage_hop_multi_reference(float(p), rate, params, n_t, n_r)
                    ref = oracle_tas_mrc_outage(float(p), rate.kappa, SIGMA_N2, rho, n_t, n_r)
                    assert abs(got - ref) <= 1e-12, (rho, p, t)
                    if ref > 1e-300:
                        assert abs(got - ref) <= 1e-10 * ref, (rho, p, t)

    def test_many_receive_antennas(self):
        # Gains past 700 at n_r = 1000, where the Gamma(n_r, 1) CDF is far
        # from 1.
        rate = RateParams(7.5)
        got = outage_hop_multi_reference(0.01, rate, BASE, 1, 1000)
        ref = oracle_tas_mrc_outage(0.01, rate.kappa, SIGMA_N2, 1.5, 1, 1000)
        assert ref == pytest.approx(0.544448159033560, rel=1e-12)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_panels_resolve_huge_noise_uncertainty(self):
        # A single 1024-node rule no longer resolves the outage at rho = 1e30;
        # the Gauss-Legendre kernel's panels do, and so does the table.
        for rho in (1e10, 1e30):
            params = SystemParams(1.0, 1.0, SIGMA_N2, rho)
            for p in (1e-4, 1.0):
                for t in (0.1, 1.5):
                    rate = RateParams(t)
                    ref = oracle_tas_mrc_outage(p, rate.kappa, SIGMA_N2, rho, 2, 8)
                    for kernel in (noise_expectation, _tas_mrc_outage):
                        got = kernel(2, 8, rate.kappa / p, params)
                        assert abs(got - ref) <= 1e-12, (kernel, rho, p, t)

    def test_kernel_is_elementwise(self):
        # An array of thresholds gives each kernel's own scalar values
        # exactly: the table's through the scalar wrapper, the Gauss-Legendre
        # kernel's one threshold at a time; rho = 1 + 1e-6 takes the table's
        # divided differences, and rho = 1e10 two of the kernel's panels.
        rates = [RateParams(t) for t in (0.3, 1.5, 4.0)]
        y = np.array([[r.kappa / p for r in rates] for p in (1e-4, 1.0)])
        for rho in (1.0 + 1e-6, 1.5, 1e10):
            params = SystemParams(1.0, 1.0, SIGMA_N2, rho)
            for n_t, n_r in ((1, 1), (2, 8), (4, 4)):
                table = _tas_mrc_outage(n_t, n_r, y, params)
                gl = noise_expectation(n_t, n_r, y, params)
                assert table.shape == gl.shape == y.shape
                for i, p in enumerate((1e-4, 1.0)):
                    for j, rate in enumerate(rates):
                        value = outage_hop_multi_reference(p, rate, params, n_t, n_r)
                        assert table[i, j] == value, (rho, n_t, n_r, p, rate.t)
                        assert gl[i, j] == noise_expectation(n_t, n_r, y[i, j], params)
        # Across the table's lookup blocks too.
        y = np.geomspace(1e-3, 1e6, 2100)
        for params in (BASE, SystemParams(1.0, 1.0, SIGMA_N2, 1.0 + 1e-6)):
            table = _tas_mrc_outage(2, 8, y, params)
            for i in range(0, y.size, 41):
                assert table[i] == _tas_mrc_outage(2, 8, y[i], params), (params.rho, i)

    @pytest.mark.parametrize("ant", [AntennaConfig(2, 8, 2, 8), AntennaConfig(4, 4, 4, 4),
                                     AntennaConfig(2, 8, 4, 4)])
    @pytest.mark.parametrize("t", [0.0, 1.5, 600.0])
    def test_throughput_multi_is_its_per_hop_outages(self, ant, t):
        # One kernel call per distinct antenna pair gives each hop's
        # outage bit for bit, t = 0 and an overflowing kappa included.
        params = SystemParams(2e-4, 0.7, SIGMA_N2, 1.5, ant)
        rate = RateParams(t)
        hop1 = outage_hop_multi_reference(params.p_s, rate, params, ant.n_s, ant.n_rr)
        hop2 = outage_hop_multi_reference(params.p_r, rate, params, ant.n_rt, ant.n_d)
        assert throughput_multi(params, rate) == ThroughputOutcome(hop1, hop2, t)
        if t != 1.5:
            assert hop1 == hop2 == (0.0 if t == 0.0 else 1.0)

    def test_nan_threshold_is_rejected_at_once(self):
        # A NaN threshold gives NaN gains, rejected like negative ones before
        # any refinement (NaN estimates would refine to 1024 nodes per panel).
        with pytest.raises(ValueError, match="gain must be >= 0"):
            noise_expectation(2, 8, math.nan, BASE)
        with pytest.raises(ValueError, match="gain must be >= 0"):
            noise_expectation(1, 1, np.array([1.0, math.nan]), BASE)

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
        assert v == "formula-domain-violation: incomplete gamma of order 0"
        # Zero rate: zero raised to a negative power.
        v = outage_hop_multi_paper(1.0, RateParams(0.0), BASE, 2, 2)
        assert v == "formula-domain-violation: zero SNR threshold raised to a negative power"
        # General case: the j = 0 term demands a negative gamma argument.
        for n_t, n_r in ((2, 2), (2, 8), (4, 4)):
            for interp in ("ln_rho_sq_arg", "ln_rho_sq_whole"):
                v = outage_hop_multi_paper(1.0, rate, BASE, n_t, n_r, interp)
                assert v == "formula-domain-violation: negative incomplete-gamma argument at j=0"
        # Also where (kappa / p) ** omega overflows (t = 100), where
        # kappa / p underflows to 0 and the j = 0 argument with it, and
        # where rho ** 2 overflows (rho > ~1.34e154).
        for p, t, params, n_r in ((1.0, 100.0, BASE, 8),
                                  (4.0, 5e-324, SystemParams(1.0, 1.0, 1.0, 2.0), 2),
                                  (1.0, 1.5, SystemParams(1.0, 1.0, 1e-3, 1e160), 2)):
            v = outage_hop_multi_paper(p, RateParams(t), params, 2, n_r)
            assert v == "formula-domain-violation: negative incomplete-gamma argument at j=0"

    def test_threshold_past_the_float_range_is_certain_outage(self):
        # kappa / p times the noise overflows; the outage is 1, without a warning.
        params = SystemParams(1.0, 1.0, 1.0, 269.0)
        assert outage_hop_multi_reference(1e-6, RateParams(498.0), params, 1, 1) == 1.0

    def test_rejects_nonpositive_power(self):
        for p in (0.0, -1.0):
            with pytest.raises(ValueError, match="p must be > 0"):
                outage_hop_multi_reference(p, RateParams(1.5), BASE, 2, 8)
            with pytest.raises(ValueError, match="p must be > 0"):
                outage_hop_multi_paper(p, RateParams(1.5), BASE, 2, 8)

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


class TestOutageTable:
    """The antiderivative table against the Gauss-Legendre kernel and the oracle."""

    def test_matches_the_gauss_legendre_kernel(self):
        # A seeded corpus over rho - 1 in [1e-9, 1e-2] (the divided
        # differences) and rho in [1.01, 1e300], thresholds from the power-
        # law tail to past the step.
        rng = np.random.default_rng(15)
        pairs = [(1, 1), (2, 2), (2, 8), (4, 4), (1, 32), (3, 100), (1, 400)]
        for n_t, n_r in pairs:
            for k in range(8):
                rho = (1.0 + 10.0 ** rng.uniform(-9, -2) if k < 2
                       else 1.01 if k == 2 else 10.0 ** rng.uniform(math.log10(1.01), 300))
                sigma2 = 10.0 ** rng.uniform(-13, 0)
                params = SystemParams(1.0, 1.0, sigma2, rho)
                lo, hi = math.log(1e-20) / n_r, math.log(4.0 * n_r + 40.0)
                y = np.exp(rng.uniform(lo, hi, 24)) / sigma2
                got = _tas_mrc_outage(n_t, n_r, y, params)
                # The kernel cannot resolve a large n_r's Gamma(n_r) step at
                # large rho (see noise_expectation); the incomplete-gamma
                # oracle, split at that step, is the reference there.
                if n_r >= 100 and rho > 1e6:
                    ref = np.array([oracle_tas_mrc_outage(1.0, v, sigma2, rho, n_t, n_r)
                                    for v in y])
                else:
                    ref = noise_expectation(n_t, n_r, y, params)
                for g, r, v in zip(got.tolist(), ref.tolist(), y.tolist()):
                    assert abs(g - r) <= 1e-12, (n_t, n_r, rho, sigma2, v)
                    if r > 1e-280:
                        assert abs(g - r) <= 1e-10 * r, (n_t, n_r, rho, sigma2, v)

    def test_tails_and_ends(self):
        # Past either end of the table, and for thresholds of 0 and inf, with
        # two lookups (rho = 3) and with divided differences.  Where [a, b]
        # holds the table's left end, the tail and the first panel share it
        # by the same weights, so the ends' rounding moves no length between
        # them (a separate split cost about 4e-10 relative at rho = 1 + 1e-9).
        for rho in (3.0, 1.0 + 1e-4, 1.0 + 1e-9):
            params = SystemParams(1.0, 1.0, 1e-3, rho)
            for n_t, n_r in ((1, 1), (2, 2), (2, 8)):
                table = _outage_table(n_t, n_r)
                left_end = np.exp(table.lo * table.width
                                  + np.array([-0.5, 0.0, 0.5]) * math.log(rho)) / 1e-3
                y = np.concatenate(([0.0, 1e-300, 1e-30, 1e-18], left_end, [1e6, 1e300, math.inf]))
                got = _tas_mrc_outage(n_t, n_r, y, params)
                ref = noise_expectation(n_t, n_r, y, params)
                assert got[0] == 0.0 and got[-1] == 1.0, rho
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
            with pytest.raises(ValueError, match="thresholds must be >= 0"):
                _tas_mrc_outage(2, 8, [1.0, math.nan], params)
        # Thresholds 0 and inf give exactly 0 and 1 for every pair and noise,
        # also where the outage at the smallest positive threshold is not 0
        # (1.07e-310 at rho = 1e10, sigma^2 = 1e5) or the largest finite one
        # is not 1 (0.99 at rho = 1e300, sigma^2 = 1e-13).
        for rho in (1.0 + 1e-7, 1.5, 1e10, 1e300):
            for sigma2 in (1e-13, 1.0, 1e5):
                params = SystemParams(1.0, 1.0, sigma2, rho)
                for n_t, n_r in ((1, 1), (2, 8), (4, 16), (1, 400)):
                    got = _tas_mrc_outage(n_t, n_r, [0.0, math.inf], params)
                    assert got.tolist() == [0.0, 1.0], (n_t, n_r, rho, sigma2)

    def test_scalar_read_is_the_array_read(self):
        # One threshold read in Python floats gives the array read's bits:
        # two lookups and divided differences (rho -> 1), thresholds that put
        # an end of [a, b] on either end of the table, and those clamped into
        # the floats.  A negative or NaN threshold raises the same error.
        rng = np.random.default_rng(31)
        for n_t, n_r in ((1, 1), (2, 2), (2, 8), (4, 4), (4, 16), (1, 32), (3, 100), (1, 400)):
            table = _outage_table(n_t, n_r)
            for rho in (1.0 + 1e-9, 1.0 + 1e-7, 1.0 + 1e-5, 1.0 + 1e-3, 1.01, 1.5, 3.0, 1e10,
                        1e100):
                sigma2 = 10.0 ** rng.uniform(-13, 5)
                params = SystemParams(1.0, 1.0, sigma2, rho)
                ends = np.exp(np.add.outer([table.lo, table.hi], [-1.0, 0.0, 1.0]).ravel()
                              * table.width) / sigma2
                y = np.concatenate((10.0 ** rng.uniform(-10, 10, 40), ends,
                                    [0.0, math.inf, 5e-324, 1e308]))
                want = _tas_mrc_outage(n_t, n_r, y, params)
                got = np.array([table.outage_at(v, params) for v in y.tolist()])
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64),
                                              err_msg=f"{(n_t, n_r, rho, sigma2)}")
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="thresholds must be >= 0"):
                table.outage_at(bad, BASE)

    def test_oracle_resolves_the_step_at_huge_rho(self):
        # At rho ~ 1e146 the Gamma(100) step is a sliver of the oracle's
        # range; unsplit, its quadrature gave 0.5000000000000001.  The value
        # is a 30-digit integral split at the step.
        args = (1.0, 4965.895200740788, 0.02717935823776899, 1.3924879833301753e146, 3, 100)
        assert oracle_tas_mrc_outage(*args) == pytest.approx(0.50032769659788017, rel=0,
                                                             abs=1e-12)

    def test_error_estimate(self, monkeypatch):
        # Every default pair's table is within its stated bound, and a bound
        # below the estimate raises (a failed build is not cached).
        for n_t, n_r in ((1, 1), (2, 2), (2, 8), (4, 4), (1, 1000)):
            assert 0.0 < _outage_table(n_t, n_r).error <= throughput._TABLE_TOL
        _outage_table.cache_clear()
        monkeypatch.setattr(throughput, "_TABLE_TOL", 1e-18)
        with pytest.raises(NumericError, match="outage table for \\(2, 8\\)"):
            _tas_mrc_outage(2, 8, 1.0, BASE)


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

    def test_peak_memory_per_trial(self):
        # The gain is the max of n_t Gamma(n_r, 1) draws: no array holds
        # the n_t * n_r = 64 branch gains of a trial.
        n = 200_000
        tracemalloc.start()
        try:
            mc_outage_hop(1.0, RateParams(1.5), BASE, 4, 16, n, RngSpec(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * n
