"""Command-line interface: exit codes, CSV output, config merging."""

import csv

import pytest

from covertrelay.cli import main
from covertrelay.model import dbm_to_watts


def read_csv(path):
    text = path.read_text()
    assert text.startswith("# params:")
    lines = text.splitlines()
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


class TestDep:
    def test_default_point(self, tmp_path):
        out = tmp_path / "dep.csv"
        assert main(["dep", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["tau_star_w", "pe1_star", "pe2_star", "xi_star"]
        assert len(rows) == 1
        tau, pe1, pe2, xi = (float(v) for v in rows[0])
        assert tau == pytest.approx(1.5 * dbm_to_watts(-5.0), rel=1e-12)
        assert xi == pytest.approx(1.0 - (1.0 - pe1) * (1.0 - pe2), rel=1e-12)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["dep", "--ps", "3", "--pr", "2", "--rho", "1.7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_global_flags_accepted_after_subcommand(self, tmp_path):
        out = tmp_path / "dep.csv"
        assert main(["dep", "--seed", "7", "--out", str(out)]) == 0

    def test_rho_and_rho_db_conflict(self):
        assert main(["dep", "--rho", "1.5", "--rho-db", "3"]) == 2

    def test_invalid_rho(self):
        assert main(["dep", "--rho", "0.9"]) == 2


class TestThroughput:
    def test_point(self, tmp_path):
        out = tmp_path / "tp.csv"
        assert main(["throughput", "--t", "1.5", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["t", "p_out_hop1", "p_out_hop2", "p_out", "eta"]
        t, h1, h2, p_out, eta = (float(v) for v in rows[0])
        assert eta == pytest.approx(t * (1.0 - p_out), rel=1e-12)

    def test_overflowing_rate_is_certain_outage(self, tmp_path):
        for extra in ([], ["--nt", "2", "--nr", "8"]):
            out = tmp_path / "tp.csv"
            assert main(["throughput", "--t", "600", "--out", str(out), *extra]) == 0
            _, _, rows = read_csv(out)
            t, h1, h2, p_out, eta = (float(v) for v in rows[0])
            assert (t, p_out, eta) == (600.0, 1.0, 0.0)

    def test_multi_antenna_beats_single(self, tmp_path):
        single, multi = tmp_path / "s.csv", tmp_path / "m.csv"
        main(["throughput", "--t", "1.5", "--out", str(single)])
        main(["throughput", "--t", "1.5", "--nt", "2", "--nr", "8", "--out", str(multi)])
        eta_s = float(read_csv(single)[2][0][4])
        eta_m = float(read_csv(multi)[2][0][4])
        assert eta_m > eta_s


class TestSweep:
    def test_rate_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--variable", "t", "--from", "0.1", "--to", "2.0",
                "--steps", "10", "--out", str(out)]
        assert main(argv) == 0
        _, header, rows = read_csv(out)
        assert header == ["t", "xi_star", "p_out", "eta"]
        assert len(rows) == 10
        outages = [float(r[2]) for r in rows]
        assert outages == sorted(outages)

    def test_power_sweep_monotone_dep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--variable", "p", "--from", "0.1", "--to", "5.0",
              "--steps", "20", "--out", str(out)])
        xis = [float(r[1]) for r in read_csv(out)[2]]
        assert all(b <= a for a, b in zip(xis, xis[1:]))

    def test_requires_range(self):
        assert main(["sweep", "--variable", "t"]) == 2

    def test_unknown_variable(self):
        assert main(["sweep", "--variable", "nope", "--from", "0", "--to", "1"]) == 2

    def test_log_scale_validation(self):
        assert main(["sweep", "--variable", "t", "--from", "0", "--to", "1",
                     "--scale", "log"]) == 2


class TestOptimize:
    def test_single(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert main(["optimize-single", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["p_s", "p_r", "t", "eta", "method", "active_constraints"]
        assert rows[0][4] == "kkt"
        assert "covertness" in rows[0][5]

    def test_single_infeasible_exit_code(self):
        assert main(["optimize-single", "--epsilon", "1e-6", "--delta", "1e-9"]) == 3

    def test_multi(self, tmp_path):
        out = tmp_path / "opt.csv"
        argv = ["optimize-multi", "--nt", "2", "--nr", "8", "--out", str(out)]
        assert main(argv) == 0
        _, _, rows = read_csv(out)
        assert rows[0][4] == "grid"
        assert float(rows[0][3]) > 0.5

    def test_multi_partial_steps_rejected(self):
        assert main(["optimize-multi", "--h1", "0.05"]) == 2


class TestConfigFile:
    def test_file_supplies_defaults_cli_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ps = 3.0\npr = 2.0\nrho = 1.7\n")
        from_cfg = tmp_path / "cfg.csv"
        assert main(["dep", "--config", str(cfg), "--out", str(from_cfg)]) == 0
        params_line = read_csv(from_cfg)[0]
        assert "ps=3" in params_line and "rho=1.7" in params_line
        overridden = tmp_path / "cli.csv"
        assert main(["dep", "--config", str(cfg), "--ps", "4", "--out", str(overridden)]) == 0
        assert "ps=4" in read_csv(overridden)[0]

    def test_missing_config_is_invalid(self):
        assert main(["dep", "--config", "/nonexistent/run.cfg"]) == 2


class TestValidateAndFigures:
    def test_validate_writes_report_and_discrepancies(self, tmp_path):
        out = tmp_path / "validation.csv"
        argv = ["validate", "--samples", "20000", "--seed", "42", "--out", str(out)]
        assert main(argv) == 0
        _, header, rows = read_csv(out)
        assert header == ["check", "analytic", "mc_mean", "mc_stderr", "n_sigma", "status"]
        assert len(rows) >= 15
        assert all(r[5] == "pass" for r in rows)
        disc = tmp_path / "discrepancies.csv"
        assert disc.exists()
        with open(disc) as handle:
            disc_rows = list(csv.reader(handle))
        assert disc_rows[0] == ["formula_id", "params", "paper_value_or_violation",
                                "reference_value", "abs_diff"]
        assert len(disc_rows) > 100

    def test_figures_single(self, tmp_path):
        assert main(["figures", "--which", "6", "--outdir", str(tmp_path)]) == 0
        fig6 = tmp_path / "fig6.csv"
        _, header, rows = read_csv(fig6)
        assert header == ["t", "eta_single", "eta_multi"]
        assert len(rows) == 200
        # TAS/MRC dominates pointwise across the rate grid.
        assert all(float(r[2]) >= float(r[1]) - 1e-12 for r in rows)

    def test_figures_rejects_unknown(self, tmp_path):
        assert main(["figures", "--which", "12", "--outdir", str(tmp_path)]) == 2
