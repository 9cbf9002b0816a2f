"""Samplers: reproducibility, distributional checks, exact CDF/PDF."""

import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from covertrelay.channel import (
    RngSpec,
    make_generator,
    sample_noise_power,
    sample_rayleigh_gain,
    sample_tas_mrc_gain,
    tas_mrc_gain_cdf,
    tas_mrc_gain_pdf,
)
from covertrelay.model import SystemParams

PARAMS = SystemParams(1.0, 1.0, 3.1622776601683794e-4, 1.5)


class TestRngContract:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RngSpec(-1)
        with pytest.raises(ValueError):
            RngSpec(2**64)
        with pytest.raises(ValueError):
            RngSpec(1, -1)

    def test_same_spec_bit_identical(self):
        a = sample_rayleigh_gain(make_generator(RngSpec(42, 3)), 1000)
        b = sample_rayleigh_gain(make_generator(RngSpec(42, 3)), 1000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_rayleigh_gain(make_generator(RngSpec(42, 0)), 1000)
        b = sample_rayleigh_gain(make_generator(RngSpec(42, 1)), 1000)
        assert not np.array_equal(a, b)


class TestNoisePower:
    def test_support(self):
        rng = make_generator(RngSpec(1, 0))
        draws = sample_noise_power(PARAMS, rng, 200_000)
        assert draws.min() >= PARAMS.mu1
        assert draws.max() <= PARAMS.mu2

    def test_log_uniform(self):
        # ln(draw / mu1) / ln(rho^2) should be uniform on [0, 1].
        rng = make_generator(RngSpec(2, 0))
        draws = sample_noise_power(PARAMS, rng, 100_000)
        u = np.log(draws / PARAMS.mu1) / (2.0 * math.log(PARAMS.rho))
        stat = stats.kstest(u, "uniform").statistic
        assert stat < 1.63 / math.sqrt(len(u))  # 1% critical value


class TestRayleighGain:
    def test_exponential_distribution(self):
        rng = make_generator(RngSpec(3, 0))
        draws = sample_rayleigh_gain(rng, 100_000)
        assert draws.min() >= 0
        stat = stats.kstest(draws, "expon").statistic
        assert stat < 1.63 / math.sqrt(len(draws))

    def test_mean_within_three_sigma(self):
        rng = make_generator(RngSpec(4, 0))
        draws = sample_rayleigh_gain(rng, 1_000_000)
        stderr = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 1.0) <= 3.0 * stderr


class TestTasMrcGain:
    @pytest.mark.parametrize("n_t,n_r", [(1, 1), (2, 2), (2, 8), (4, 4)])
    def test_empirical_cdf_matches_exact(self, n_t, n_r):
        rng = make_generator(RngSpec(5, 0))
        draws = sample_tas_mrc_gain(n_t, n_r, rng, 100_000)
        stat = stats.kstest(draws, lambda x: tas_mrc_gain_cdf(n_t, n_r, x)).statistic
        assert stat < 1.63 / math.sqrt(len(draws))

    def test_reduces_to_exponential(self):
        rng = make_generator(RngSpec(6, 0))
        single = sample_tas_mrc_gain(1, 1, rng, 1000)
        rng = make_generator(RngSpec(6, 0))
        plain = sample_rayleigh_gain(rng, (1000, 1, 1)).reshape(1000)
        np.testing.assert_array_equal(single, plain)

    def test_cdf_properties(self):
        x = np.linspace(0.0, 40.0, 400)
        for n_t, n_r in ((1, 1), (2, 2), (3, 5), (4, 8)):
            f = tas_mrc_gain_cdf(n_t, n_r, x)
            assert f[0] == 0.0
            assert f[-1] == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.diff(f) >= 0)
            assert np.all((0.0 <= f) & (f <= 1.0))

    def test_cdf_is_one_at_huge_gains(self):
        # The branch partial sum would overflow (or give inf - inf) here.
        for x in (math.inf, 1e300, 800.0):
            assert tas_mrc_gain_cdf(2, 8, x) == 1.0
        assert tas_mrc_gain_cdf(1, 1, math.inf) == 1.0
        assert np.array_equal(tas_mrc_gain_cdf(4, 4, np.array([math.inf, 1e300])), [1.0, 1.0])

    def test_cdf_matches_incomplete_gamma_in_the_lower_tail(self):
        # The branch CDF is scipy's regularized lower incomplete gamma; in
        # the lower tail the CDF is far below the 1e-16 resolution of 1 - F.
        x = np.geomspace(1e-8, 699.0, 2000)
        for n_r in (1, 2, 4, 8, 16):
            for n_t in (1, 3):
                got = tas_mrc_gain_cdf(n_t, n_r, x)
                ref = special.gammainc(n_r, x) ** n_t
                assert np.all(got >= 0.0)
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
        assert 0.0 < tas_mrc_gain_cdf(1, 8, 1e-4) == pytest.approx(2.48e-37, rel=1e-3)

    def test_cdf_stays_positive_up_to_the_mean_for_many_branches(self):
        # From n_r/2 up to n_r the CDF of Gamma(n_r, 1) can still be far
        # below the 1e-16 resolution of 1 - F for large n_r.
        for n_r in (50, 100, 200, 400):
            x = np.linspace(n_r / 2, n_r, 2001)
            got = tas_mrc_gain_cdf(1, n_r, x)
            ref = special.gammainc(n_r, x)
            resolved = ref > 1e-300
            assert not np.any(got[resolved] <= 0.0)
            np.testing.assert_allclose(got[resolved], ref[resolved], rtol=2e-12, atol=0)
        assert tas_mrc_gain_cdf(1, 200, 101) == pytest.approx(2.5393e-18, rel=1e-4)

    def test_pdf_is_zero_at_infinite_gain(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tas_mrc_gain_pdf(2, 8, math.inf) == 0.0
            assert tas_mrc_gain_pdf(1, 1, math.inf) == 0.0
            pdf = tas_mrc_gain_pdf(4, 4, np.array([0.0, 3.0, math.inf]))
        assert pdf[0] == 0.0 and pdf[1] > 0.0 and pdf[2] == 0.0

    def test_more_antennas_stochastically_larger(self):
        x = np.linspace(0.05, 30.0, 300)
        base = tas_mrc_gain_cdf(2, 2, x)
        assert np.all(tas_mrc_gain_cdf(4, 2, x) <= base + 1e-15)
        assert np.all(tas_mrc_gain_cdf(2, 4, x) <= base + 1e-15)

    @pytest.mark.parametrize("n_t,n_r", [(1, 1), (2, 2), (2, 8), (4, 4), (4, 8)])
    def test_pdf_is_cdf_derivative(self, n_t, n_r):
        # Central difference of the CDF against the closed-form density.
        # Far-tail points are skipped: there the CDF difference is below
        # the 1e-16 resolution of floats and says nothing about the pdf.
        h = 1e-5
        checked = 0
        for x in np.linspace(0.5, 25.0, 40):
            pdf = tas_mrc_gain_pdf(n_t, n_r, x)
            if pdf < 1e-3:
                continue
            num = (tas_mrc_gain_cdf(n_t, n_r, x + h) - tas_mrc_gain_cdf(n_t, n_r, x - h)) / (2 * h)
            assert num == pytest.approx(pdf, rel=1e-6)
            checked += 1
        assert checked >= 5

    def test_pdf_integrates_to_one(self):
        from scipy import integrate

        total, _ = integrate.quad(lambda x: tas_mrc_gain_pdf(2, 8, x), 0.0, 80.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            tas_mrc_gain_cdf(0, 1, 1.0)
        with pytest.raises(ValueError):
            tas_mrc_gain_pdf(1, 0, 1.0)
        with pytest.raises(ValueError):
            tas_mrc_gain_cdf(2, 2, -0.5)
        with pytest.raises(ValueError):
            sample_tas_mrc_gain(0, 2, make_generator(RngSpec(0)))
