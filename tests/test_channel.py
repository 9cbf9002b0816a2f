"""Samplers: reproducibility, distributional checks, exact CDF."""

import math

import numpy as np
import pytest
from scipy import special, stats

from covertrelay import channel
from covertrelay.channel import (
    _LOG_SPACE_GAIN,
    make_generator,
    sample_noise_power,
    sample_rayleigh_gain,
    sample_tas_mrc_gain,
    tas_mrc_gain_cdf,
)
from covertrelay.model import RngSpec, SystemParams
from oracles import oracle_lower_series

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
        # e^{U ln rho} is rounded apart from mu1 = sigma_n^2 / rho and
        # mu2 = sigma_n^2 rho, from rho next to 1 up to 1e100.
        for rho, sigma_n2 in ((PARAMS.rho, PARAMS.sigma_n2), (1.0 + 1e-9, 1e-13),
                              (1.01, 1e-13), (1e10, 1e-13), (1e100, 1e-13)):
            params = SystemParams(1.0, 1.0, sigma_n2, rho)
            draws = sample_noise_power(params, make_generator(RngSpec(1, 0)), 200_000)
            assert draws.min() >= params.mu1
            assert draws.max() <= params.mu2

    def test_support_at_the_ends_of_u(self):
        # U within 8 ulps of 0 puts e^{(2U - 1) ln rho} one ulp off 1 / rho,
        # which the clip keeps on [mu1, mu2]; U next to 1 stays under mu2.
        class Stub:
            def random(self, size):
                u = np.r_[np.arange(9) * 2.0**-53, 1.0 - np.arange(1, 9) * 2.0**-53]
                return u[0] if size is None else np.resize(u, size)

        for rho in (1.0 + 1e-9, 1.5, 1e10, 1e100):
            params = SystemParams(1.0, 1.0, 1e-13, rho)
            draws = sample_noise_power(params, Stub(), 17)
            assert draws.min() >= params.mu1
            assert draws.max() <= params.mu2
        assert sample_noise_power(params, Stub(), None) == params.mu1

    def test_in_place_draws_match_the_closed_form(self):
        # The in-place chain is sigma_n^2 exp((2U - 1) ln rho), bit for bit.
        u = make_generator(RngSpec(6, 0)).random(200_000)
        expected = PARAMS.sigma_n2 * np.exp((2.0 * u - 1.0) * math.log(PARAMS.rho))
        draws = sample_noise_power(PARAMS, make_generator(RngSpec(6, 0)), 200_000)
        np.testing.assert_array_equal(draws, expected)

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
    @pytest.mark.parametrize("n_t,n_r", [(1, 1), (2, 2), (2, 8), (4, 4), (1, 400), (3, 100)])
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

    @pytest.mark.parametrize("n_t", [1, 2, 4])
    def test_gains_are_the_row_maxima_of_the_draws(self, n_t):
        # Bit for bit the maximum over each row of the (n, n_t) Gamma(n_r)
        # draws of the same stream, for an array and for one gain.
        spec = RngSpec(7, 3)
        for size in (10_000, None):
            got = sample_tas_mrc_gain(n_t, 8, make_generator(spec), size)
            rows = 1 if size is None else size
            want = make_generator(spec).standard_gamma(8, (rows, n_t)).max(axis=1)
            np.testing.assert_array_equal(got, want[0] if size is None else want)

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

    @pytest.mark.parametrize("n_r", [1, 8, 400, 500, 700, 1000, 2000])
    def test_cdf_matches_incomplete_gamma_for_many_branches(self, n_r):
        # From _LOG_SPACE_GAIN on, the sums are formed in log space: past
        # n_r ~ 500 the CDF of Gamma(n_r, 1) is not yet 1 there.
        x = np.concatenate([np.geomspace(1e-3, 1e4, 1000), np.linspace(n_r / 2, 1.5 * n_r, 1001),
                            np.linspace(600.0, 800.0, 401), [900.0, 2000.0, 2100.0, math.inf]])
        for n_t in (1, 2, 4):
            got = tas_mrc_gain_cdf(n_t, n_r, x)
            ref = special.gammainc(n_r, x) ** n_t
            assert np.max(np.abs(got - ref)) <= n_r * 1e-15, n_t

    def test_more_antennas_stochastically_larger(self):
        x = np.linspace(0.05, 30.0, 300)
        base = tas_mrc_gain_cdf(2, 2, x)
        assert np.all(tas_mrc_gain_cdf(4, 2, x) <= base + 1e-15)
        assert np.all(tas_mrc_gain_cdf(2, 4, x) <= base + 1e-15)

    def test_fixed_length_series_matches_the_convergence_checked_one(self):
        # The lower series runs a fixed number of terms; the convergence-
        # checked loop of the oracle must give the same bits for every n_r
        # up to 400.
        rng = np.random.default_rng(20261018)
        for n_r in range(1, 401):
            n_t = int(rng.integers(1, 9))
            x = np.concatenate([rng.uniform(0.0, n_r, 64), n_r * rng.random(8) ** 8,
                                [0.0, math.nextafter(n_r, 0.0), n_r, 2.0 * n_r, _LOG_SPACE_GAIN,
                                 np.nextafter(_LOG_SPACE_GAIN, math.inf), 1e300, math.inf]])
            shapes = (x, x[:0], x.reshape(8, -1)) if n_r % 40 == 1 else (x,)
            for x in shapes:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(channel, "_lower_series", oracle_lower_series)
                    cdf = tas_mrc_gain_cdf(n_t, n_r, x)
                assert np.array_equal(tas_mrc_gain_cdf(n_t, n_r, x), cdf), (n_t, n_r)
            assert tas_mrc_gain_cdf(n_t, n_r, 0.0) == 0.0

    def test_rejects_nan_gains(self):
        # NaN fails every comparison, so it must be rejected explicitly.
        for x in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="gain must be >= 0"):
                tas_mrc_gain_cdf(2, 8, x)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            tas_mrc_gain_cdf(0, 1, 1.0)
        with pytest.raises(ValueError):
            tas_mrc_gain_cdf(1, 0, 1.0)
        with pytest.raises(ValueError):
            tas_mrc_gain_cdf(2, 2, -0.5)
        with pytest.raises(ValueError):
            sample_tas_mrc_gain(0, 2, make_generator(RngSpec(0)))
