"""Domain types: unit conversion, eager validation, config parsing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertrelay.errors import CLAMP_SLACK, NumericError, clamp_unit_interval
from covertrelay.model import (
    AntennaConfig,
    ConstraintSet,
    McEstimate,
    RateParams,
    SystemParams,
    dbm_to_watts,
    load_config,
    rho_from_db,
    watts_to_dbm,
)


class TestUnits:
    def test_dbm_examples(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
        assert dbm_to_watts(-5.0) == pytest.approx(3.1622776601683794e-4, rel=1e-15)

    @given(st.floats(min_value=-80.0, max_value=60.0))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, dbm):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-12)

    def test_watts_to_dbm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)
        with pytest.raises(ValueError):
            watts_to_dbm(-1.0)

    def test_rho_from_db(self):
        assert rho_from_db(3.0) == pytest.approx(10.0**0.3, rel=1e-15)
        assert rho_from_db(0.0) == 1.0


class TestSystemParams:
    def test_noise_bounds(self):
        params = SystemParams(1.0, 2.0, 4e-4, 1.5)
        mu1, mu2 = params.mu1, params.mu2
        assert mu1 == pytest.approx(4e-4 / 1.5, rel=1e-15)
        assert mu2 == pytest.approx(6e-4, rel=1e-15)
        assert 0 < mu1 < mu2

    def test_with_powers_preserves_rest(self):
        antennas = AntennaConfig(2, 8, 2, 8)
        params = SystemParams(1.0, 1.0, 1e-3, 2.0, antennas)
        changed = params.with_powers(0.5, 0.25)
        assert changed.p_s == 0.5 and changed.p_r == 0.25
        assert changed.sigma_n2 == params.sigma_n2
        assert changed.rho == params.rho
        assert changed.antennas == antennas

    @given(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_rejects_invalid_power_or_rho(self, p, rho):
        bad_p = not (math.isfinite(p) and p > 0)
        bad_rho = not (math.isfinite(rho) and rho > 1)
        if not (bad_p or bad_rho):
            SystemParams(p, p, 1e-3, rho)
            return
        with pytest.raises(ValueError):
            SystemParams(p, p, 1e-3, rho)

    def test_rejects_rho_of_one(self):
        with pytest.raises(ValueError):
            SystemParams(1.0, 1.0, 1e-3, 1.0)

    def test_antenna_validation(self):
        with pytest.raises(ValueError):
            AntennaConfig(n_s=0)
        with pytest.raises(ValueError):
            AntennaConfig(n_rr=-3)
        with pytest.raises(ValueError):
            AntennaConfig(n_d=2.0)
        assert AntennaConfig().is_single
        assert not AntennaConfig(n_rt=2).is_single


class TestBudgetsAndRate:
    def test_constraints_validate_open_intervals(self):
        ConstraintSet(0.15, 0.1, 5.0)
        for eps, delta, p_max in ((0.0, 0.1, 5.0), (1.0, 0.1, 5.0), (0.1, 0.0, 5.0),
                                  (0.1, 1.0, 5.0), (0.1, 0.1, 0.0)):
            with pytest.raises(ValueError):
                ConstraintSet(eps, delta, p_max)

    def test_kappa(self):
        assert RateParams(0.0).kappa == 0.0
        assert RateParams(0.5).kappa == pytest.approx(1.0, rel=1e-15)
        assert RateParams(1.5).kappa == pytest.approx(7.0, rel=1e-15)
        # expm1 keeps precision at tiny rates where 2^(2t) - 1 cancels.
        assert RateParams(1e-12).kappa == pytest.approx(2e-12 * math.log(2.0), rel=1e-16)
        # 2^(2t) leaves the float range near t = 512.
        assert math.isfinite(RateParams(500.0).kappa)
        assert RateParams(600.0).kappa == math.inf

    def test_rate_rejects_negative(self):
        with pytest.raises(ValueError):
            RateParams(-0.1)

    def test_mc_estimate_validated(self):
        with pytest.raises(ValueError):
            McEstimate(mean=0.5, stderr=-1.0, n=10, seed=0)
        with pytest.raises(ValueError):
            McEstimate(mean=0.5, stderr=0.0, n=0, seed=0)


class TestClampUnitInterval:
    def test_clamps_float_noise(self):
        assert clamp_unit_interval(-CLAMP_SLACK, "x") == 0.0
        assert clamp_unit_interval(1.0 + CLAMP_SLACK, "x") == 1.0
        assert clamp_unit_interval(0.25, "x") == 0.25

    def test_rejects_nan_and_values_past_the_slack(self):
        with pytest.raises(NumericError, match="x evaluated to NaN"):
            clamp_unit_interval(math.nan, "x")
        for value in (-2.0 * CLAMP_SLACK, 1.0 + 2.0 * CLAMP_SLACK):
            with pytest.raises(NumericError, match=r"leaves \[0, 1\]"):
                clamp_unit_interval(value, "x")


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# baseline scenario\n"
            "rho = 1.5\n"
            "sigma-n2-dbm = -5  # nominal noise\n"
            "\n"
            "seed=7\n"
        )
        values = load_config(str(cfg))
        assert values == {"rho": "1.5", "sigma-n2-dbm": "-5", "seed": "7"}

    def test_rejects_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rho 1.5\n")
        with pytest.raises(ValueError):
            load_config(str(cfg))

    def test_rejects_empty_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rho =\n")
        with pytest.raises(ValueError):
            load_config(str(cfg))
