"""Command-line interface: exit codes, CSV output, config merging."""

import csv
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import covertrelay
from covertrelay import cli
from covertrelay.cli import _linspace, main
from covertrelay.detection import min_dep_two_hop
from covertrelay.errors import NumericError
from covertrelay.model import AntennaConfig, RateParams, SystemParams, dbm_to_watts
from covertrelay.optimize import covert_power_limit
from covertrelay.throughput import throughput_multi, throughput_single
from covertrelay.validation import ValidationCheck
from oracles import oracle_tas_mrc_outage


SRC = os.path.dirname(os.path.dirname(covertrelay.__file__))


def read_csv(path):
    text = path.read_text()
    assert text.startswith("# params:")
    lines = text.splitlines()
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


def values(rows):
    return [[float(v) for v in row] for row in rows]


def throughput(params, t):
    fn = throughput_single if params.antennas.is_single else throughput_multi
    return fn(params, RateParams(t))


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
        # --config is the one global flag; --seed belongs to validate alone.
        with pytest.raises(SystemExit) as exc:
            main(["dep", "--seed", "7"])
        assert exc.value.code == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ps = 3\n")
        out = tmp_path / "dep.csv"
        assert main(["dep", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_csv(out)[0].startswith("# params: ps=3 ")

    def test_negative_value_in_exponent_notation(self, tmp_path):
        out = tmp_path / "dep.csv"
        assert main(["dep", "--sigma-n-dbm", "-4.8267731134643554e-05", "--out", str(out)]) == 0
        fields = dict(field.split("=") for field in read_csv(out)[0].split()[2:])
        assert float(fields["sigma_n2_w"]) == dbm_to_watts(-4.8267731134643554e-05)

    def test_rho_and_rho_db_conflict(self):
        assert main(["dep", "--rho", "1.5", "--rho-db", "3"]) == 2

    def test_invalid_rho(self):
        assert main(["dep", "--rho", "0.9"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--rho", "1.0000001"],
        ["--ps", "5e-324"],
        ["--rho", "1e300", "--sigma-n-dbm", "-300"],
        ["--ps", "1e300", "--sigma-n-dbm", "-1000"],
    ], ids=["rho-near-one", "subnormal-power", "mu1-underflows", "v-underflows"])
    def test_valid_inputs_at_the_ends_of_the_domain(self, tmp_path, argv):
        out = tmp_path / "dep.csv"
        assert main(["dep", *argv, "--out", str(out)]) == 0
        assert all(0.0 <= v <= 1.0 for v in values(read_csv(out)[2])[0][1:])

    def test_rho_in_db(self, tmp_path):
        out = tmp_path / "dep.csv"
        assert main(["dep", "--rho-db", "3", "--out", str(out)]) == 0
        fields = dict(field.split("=") for field in read_csv(out)[0].split()[2:])
        assert float(fields["rho"]) == 10.0 ** 0.3


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

    def test_many_receive_antennas_at_huge_noise_uncertainty(self, tmp_path):
        # The Gamma(400) step is too sharp for the Gauss-Legendre kernel over
        # rho = 1e10 (it exited 4); the outage table resolves it.
        out = tmp_path / "tp.csv"
        argv = ["throughput", "--rho", "1e10", "--nt", "1", "--nr", "400", "--ps", "1", "--pr", "1",
                "--t", "1", "--out", str(out)]
        assert main(argv) == 0
        hop1 = float(read_csv(out)[2][0][1])
        ref = oracle_tas_mrc_outage(1.0, RateParams(1.0).kappa, dbm_to_watts(-5.0), 1e10, 1, 400)
        assert ref == pytest.approx(0.218780217884449, rel=1e-12)
        assert hop1 == pytest.approx(ref, rel=1e-10, abs=1e-12)

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

    def test_rho_sweep_from_next_to_one(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--variable", "rho", "--from", "1.0000001", "--to", "1.5",
                     "--steps", "5", "--out", str(out)]) == 0
        assert all(0.0 <= v <= 1.0 for row in values(read_csv(out)[2]) for v in row[1:3])

    def test_requires_range(self):
        assert main(["sweep", "--variable", "t"]) == 2

    def test_unknown_variable(self):
        assert main(["sweep", "--variable", "nope", "--from", "0", "--to", "1"]) == 2

    def test_log_scale_validation(self):
        assert main(["sweep", "--variable", "t", "--from", "0", "--to", "1",
                     "--scale", "log"]) == 2

    def test_log_scale_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--variable", "p", "--scale", "log", "--from", "1e-6", "--to", "5",
                     "--steps", "7", "--nt", "2", "--nr", "8", "--out", str(out)]) == 0
        assert [float(r[0]) for r in read_csv(out)[2]] == np.geomspace(1e-6, 5.0, 7).tolist()

    @seed(20261020)
    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(allow_nan=False, allow_infinity=False),
           hi=st.floats(allow_nan=False, allow_infinity=False), n=st.integers(2, 500))
    def test_linear_grid_is_numpys_bit_for_bit(self, lo, hi, n):
        # Compared as bit patterns: where hi - lo overflows, both grids
        # start with the same NaN.
        assume(lo < hi)
        with np.errstate(all="ignore"):
            want = np.linspace(lo, hi, n)
        assert np.array(_linspace(lo, hi, n)).view(np.int64).tolist() == want.view(
            np.int64).tolist()

    def test_epsilon_sweep_where_mu2_over_p_max_overflows(self, tmp_path):
        # Both powers sit at P_max, where the DEP is exactly 1 and every hop
        # is in outage.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--variable", "epsilon", "--from", "0.1", "--to", "0.5",
                     "--steps", "2", "--p-max", "1e-320", "--out", str(out)]) == 0
        assert values(read_csv(out)[2]) == [[0.1, 1.0, 1.0, 0.0], [0.5, 1.0, 1.0, 0.0]]

    @pytest.mark.parametrize("grid", [
        ["--from", "2", "--to", "2"],
        ["--from", "3", "--to", "1"],
        ["--from", "0.1", "--to", "1", "--steps", "1"],
        ["--from", "0.1", "--to", "1", "--scale", "cubic"],
    ], ids=["empty-range", "reversed-range", "one-step", "unknown-scale"])
    def test_bad_grid_is_invalid(self, grid):
        assert main(["sweep", "--variable", "t", *grid]) == 2

    @pytest.mark.parametrize("flags", [
        ["--from", "0.1", "--to", "0.5", "--p-max", "0"],
        ["--from", "0.1", "--to", "0.5", "--p-max", "-1"],
        ["--from", "0.1", "--to", "0.5", "--p-max", "nan"],
        ["--from", "0.1", "--to", "1.5"],
        ["--from", "0", "--to", "0.5"],
        ["--from", "-0.1", "--to", "0.5"],
    ], ids=["p-max-0", "p-max-negative", "p-max-nan", "epsilon-1.5", "epsilon-0",
            "epsilon-negative"])
    def test_epsilon_sweep_outside_the_domain_is_invalid(self, capsys, flags):
        assert main(["sweep", "--variable", "epsilon", "--steps", "2", *flags]) == 2
        assert "must be in (0, " in capsys.readouterr().err

    def test_epsilon_sweep_at_infinite_p_max_is_invalid(self):
        # A search down from P_max = inf would never end, so a child process
        # runs it: the timeout fails the test instead of hanging the suite.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-m", "covertrelay.cli", "sweep", "--variable",
                               "epsilon", "--from", "0.1", "--to", "0.5", "--steps", "2",
                               "--p-max", "inf"], capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "p_max must be in (0, inf), got inf" in proc.stderr


SWEEP_RANGES = {
    "p": (0.1, 5.0), "p_s": (0.1, 5.0), "p_r": (0.1, 5.0), "rho": (1.01, 3.0),
    "sigma_n2_dbm": (-10.0, 3.0), "t": (0.1, 2.0), "epsilon": (0.05, 0.5),
    "n_t": (1.0, 4.0), "n_r": (1.0, 4.0),
}


def swept_point(variable, value, base, t):
    """(params, t) of a sweep point, built directly from the library types."""
    if variable == "t":
        return base, value
    if variable == "epsilon":
        p_cov = covert_power_limit(value, base, 5.0)
        return base.with_powers(p_cov, p_cov), t
    if variable in ("n_t", "n_r"):
        k, ant = int(round(value)), base.antennas
        ant = (AntennaConfig(k, ant.n_rr, k, ant.n_d) if variable == "n_t"
               else AntennaConfig(ant.n_s, k, ant.n_rt, k))
        return dataclasses.replace(base, antennas=ant), t
    fields = {"p": {"p_s": value, "p_r": value}, "p_s": {"p_s": value}, "p_r": {"p_r": value},
              "rho": {"rho": value}, "sigma_n2_dbm": {"sigma_n2": dbm_to_watts(value)}}
    return dataclasses.replace(base, **fields[variable]), t


class TestSweepMatchesLibrary:
    @pytest.mark.parametrize("antennas", [(1, 1), (2, 4)])
    @pytest.mark.parametrize("variable", list(SWEEP_RANGES))
    def test_every_variable(self, tmp_path, variable, antennas):
        lo, hi = SWEEP_RANGES[variable]
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--variable", variable, "--from", str(lo), "--to", str(hi),
                "--steps", "4", "--nt", str(antennas[0]), "--nr", str(antennas[1]),
                "--out", str(out)]
        assert main(argv) == 0
        _, header, rows = read_csv(out)
        assert header == [variable, "xi_star", "p_out", "eta"]
        base = SystemParams(1.0, 1.0, dbm_to_watts(-5.0), 1.5, AntennaConfig(*antennas * 2))
        expected = []
        for value in np.linspace(lo, hi, 4):
            params, t = swept_point(variable, float(value), base, 0.5)
            tp = throughput(params, t)
            expected.append([float(value), min_dep_two_hop(params), tp.p_out, tp.eta])
        assert values(rows) == expected


def expected_figure(number):
    """Header and rows of one figure, built directly from the library."""
    sigma = dbm_to_watts(-5.0)
    single = SystemParams(1.0, 1.0, sigma, 1.5)

    def multi(params, n_t=2, n_r=8):
        return dataclasses.replace(params, antennas=AntennaConfig(n_t, n_r, n_t, n_r))

    if number in (3, 4):
        rows = []
        for sigma_dbm in (-10.0, -5.0, 3.0):
            for x in np.linspace(0.1, 5.0, 50) if number == 3 else np.linspace(1.01, 3.0, 50):
                x = float(x)
                params = (SystemParams(x, x, dbm_to_watts(sigma_dbm), 1.5) if number == 3
                          else SystemParams(3.0, 3.0, dbm_to_watts(sigma_dbm), x))
                rows.append([sigma_dbm, x, min_dep_two_hop(params)])
        return ["sigma_n2_dbm", "P_watts" if number == 3 else "rho", "xi_star"], rows
    if number == 5:
        grid = [float(p) for p in np.linspace(0.25, 5.0, 20)]
        rows = [[p_s, p_r, min_dep_two_hop(single.with_powers(p_s, p_r))]
                for p_s in grid for p_r in grid]
        return ["p_s", "p_r", "xi_star"], rows
    if number == 6:
        rows = []
        for t in np.linspace(0.01, 3.0, 200):
            rate = RateParams(float(t))
            rows.append([float(t), throughput_single(single, rate).eta,
                         throughput_multi(multi(single), rate).eta])
        return ["t", "eta_single", "eta_multi"], rows
    if number == 7:
        rate = RateParams(1.5)
        pairs = ((1, 1), (1, 2), (2, 2), (2, 4), (2, 8), (4, 4), (4, 8))
        return ["n_t", "n_r", "eta"], [
            [n_t, n_r, throughput_multi(multi(single, n_t, n_r), rate).eta] for n_t, n_r in pairs
        ]
    rows = []
    rate = RateParams(0.5)
    for eps in np.linspace(0.05, 0.5, 20):
        p_cov = covert_power_limit(float(eps), single, 5.0)
        point = single.with_powers(p_cov, p_cov)
        rows.append([float(eps), p_cov, throughput_single(point, rate).eta,
                     throughput_multi(multi(point), rate).eta])
    return ["epsilon", "p_cov_w", "eta_single", "eta_multi"], rows


def test_every_figure_matches_library(tmp_path):
    assert main(["figures", "--outdir", str(tmp_path)]) == 0
    for number in range(3, 9):
        params_line, header, rows = read_csv(tmp_path / f"fig{number}.csv")
        assert params_line == f"# params: figure={number} rho=1.5"
        want_header, want_rows = expected_figure(number)
        assert header == want_header
        assert values(rows) == want_rows, number


class TestOptimize:
    def test_single(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert main(["optimize-single", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["p_s", "p_r", "t", "eta", "method", "active_constraints"]
        assert rows[0][4] == "kkt"
        assert "covertness" in rows[0][5]

    def test_single_at_low_noise(self, tmp_path):
        # At -80 dBm the covert powers lie about twelve decades below P_max;
        # DEP and outage depend on p / sigma^2 alone, so eta is the default's.
        etas = []
        for sigma_dbm in ("-5", "-80"):
            out = tmp_path / f"opt{sigma_dbm}.csv"
            assert main(["optimize-single", "--sigma-n-dbm", sigma_dbm, "--out", str(out)]) == 0
            _, _, rows = read_csv(out)
            etas.append(float(rows[0][3]))
        assert etas[1] == pytest.approx(etas[0], rel=1e-9)

    def test_single_on_a_flat_frontier_at_low_noise(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert main(["optimize-single", "--epsilon", "0.999999", "--delta", "0.5",
                     "--p-max", "1e300", "--sigma-n-dbm", "-150", "--out", str(out)]) == 0
        assert read_csv(out)[2][0][4] == "kkt"

    def test_single_infeasible_exit_code(self):
        assert main(["optimize-single", "--epsilon", "1e-6", "--delta", "1e-9"]) == 3

    def test_single_where_mu1_underflows_is_infeasible_not_invalid(self):
        assert main(["optimize-single", "--rho", "1e300", "--sigma-n-dbm", "-300"]) == 3

    @pytest.mark.parametrize("flags", [["--sigma-n-dbm", "3000", "--p-max", "5e-12"],
                                       ["--p-max", "1e-320"]], ids=["hot-noise", "subnormal-cap"])
    def test_single_where_mu2_over_p_max_overflows_names_reliability(self, capsys, flags):
        # mu2 / P_max leaves the floats, so the DEP at P_max is exactly 1 and
        # P_max is covert; no rate is reliable there.
        assert main(["optimize-single", *flags]) == 3
        err = capsys.readouterr().err
        assert "is reliable at covert powers" in err and "covertness" not in err

    def test_multi(self, tmp_path):
        out = tmp_path / "opt.csv"
        argv = ["optimize-multi", "--nt", "2", "--nr", "8", "--out", str(out)]
        assert main(argv) == 0
        _, _, rows = read_csv(out)
        assert rows[0][4] == "grid"
        assert float(rows[0][3]) > 0.5

    def test_multi_names_the_covert_powers_below_its_grid(self, capsys):
        # At -80 dBm the covert powers lie about twelve decades below P_max,
        # and the paper's grids start six decades below it.
        assert main(["optimize-multi", "--sigma-n-dbm", "-80"]) == 3
        err = capsys.readouterr().err
        p_cov = covert_power_limit(0.15, SystemParams(1.0, 1.0, dbm_to_watts(-80.0), 1.5), 5.0)
        assert "(tightest: covertness)" in err
        assert "the grids start at 5e-06 W" in err
        assert f"the largest covert equal power is {p_cov:.6g} W" in err

    def test_multi_says_when_no_power_is_covert(self, capsys):
        # At -3200 dBm no float power is covert, so there is no covert power to name.
        assert main(["optimize-multi", "--sigma-n-dbm", "-3200"]) == 3
        assert "unsatisfiable even at vanishing power" in capsys.readouterr().err

    def test_multi_partial_steps_rejected(self):
        assert main(["optimize-multi", "--h1", "0.05"]) == 2

    def test_multi_nan_phi_rejected(self, capsys):
        assert main(["optimize-multi", "--phi", "nan"]) == 2
        assert "phi must be > 0, got nan" in capsys.readouterr().err


class TestFlagContract:
    """Each verb accepts only the flags it reads."""

    @pytest.mark.parametrize("argv", [
        ["dep", "--nt", "2"],
        ["dep", "--seed", "7"],
        ["optimize-single", "--ps", "1"],
        ["optimize-single", "--nt", "2", "--nr", "8"],
        ["optimize-multi", "--pr", "1"],
        ["figures", "--out", "x.csv"],
    ])
    def test_unread_flag_is_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_params_line_names_only_the_verbs_flags(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert main(["optimize-multi", "--nt", "2", "--nr", "2", "--out", str(out)]) == 0
        keys = [field.split("=")[0] for field in read_csv(out)[0].split()[2:]]
        assert keys == ["sigma_n2_w", "rho", "nt", "nr", "epsilon", "delta", "p_max"]

    def test_numeric_failure_exits_4(self, monkeypatch, capsys):
        def fail(p, params):
            raise NumericError("min_dep_slot = -3e-09 leaves [0, 1]")

        monkeypatch.setattr(cli, "min_dep_slot", fail)
        assert main(["dep"]) == 4
        assert "numeric failure: min_dep_slot" in capsys.readouterr().err

    def test_unwritable_output_is_invalid(self, tmp_path, capsys, monkeypatch):
        # validate and sweep fail on their output paths before they compute.
        def campaign(**kwargs):
            pytest.fail("run_validation ran before its output was checked")

        def sweep_rows(*args, **kwargs):
            pytest.fail("_sweep_rows ran before its output was checked")

        monkeypatch.setattr(covertrelay.validation, "run_validation", campaign)
        monkeypatch.setattr(cli, "_sweep_rows", sweep_rows)
        blocker = tmp_path / "file"
        blocker.write_text("")
        for argv in (["dep", "--out", str(tmp_path / "missing" / "x.csv")],
                     ["figures", "--outdir", str(blocker / "figs")],
                     ["validate", "--out", str(tmp_path / "missing" / "v.csv")],
                     ["sweep", "--variable", "t", "--from", "0.1", "--to", "3",
                      "--out", str(tmp_path / "missing" / "s.csv")]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("error: "), argv

    def test_exit_codes_reach_the_shell(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
        for argv, code in ((["dep", "--seed", "7"], 2),
                           (["optimize-single", "--epsilon", "1e-6", "--delta", "1e-9"], 3)):
            proc = subprocess.run([sys.executable, "-m", "covertrelay.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == code, proc.stderr


class TestConfigFile:
    # A typo, a flag's name instead of its dest, and a key of another verb.
    @pytest.mark.parametrize("verb, key", [
        ("optimize-single", "epsilom"), ("optimize-single", "p-max"), ("dep", "nt"),
    ])
    def test_unknown_key_is_invalid_and_named(self, tmp_path, capsys, verb, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        assert main([verb, "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    def test_value_is_converted_by_the_flags_type(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nt = 2\nnr = 8\nt = 1.5\n")
        out = tmp_path / "tp.csv"
        assert main(["--config", str(cfg), "throughput", "--out", str(out)]) == 0
        params_line, _, rows = read_csv(out)
        assert params_line.endswith(" nt=2 nr=8 t=1.5")
        params = SystemParams(1.0, 1.0, dbm_to_watts(-5.0), 1.5, AntennaConfig(2, 8, 2, 8))
        assert float(rows[0][4]) == throughput(params, 1.5).eta
        cfg.write_text("nt = 2.5\n")
        with pytest.raises(SystemExit) as exc:
            main(["throughput", "--config", str(cfg)])
        assert exc.value.code == 2

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

    def test_failed_check_is_reported_and_exits_4(self, tmp_path, monkeypatch, capsys):
        # The report and the discrepancies are still written.  0.1 is 10
        # standard errors off, past n_sigma = 3.
        failed = ValidationCheck("dep_slot", 0.5, 0.4, 0.01, 3.0)
        assert not failed.passed
        monkeypatch.setattr(covertrelay.validation, "run_validation",
                            lambda samples, seed: [failed])
        out = tmp_path / "validation.csv"
        assert main(["validate", "--out", str(out)]) == 4
        assert "analytic-vs-MC checks failed" in capsys.readouterr().err
        assert [(row[0], row[5]) for row in read_csv(out)[2]] == [("dep_slot", "FAIL")]
        assert (tmp_path / "discrepancies.csv").exists()

    def test_validate_accepts_one_worker_only(self):
        with pytest.raises(ValueError, match="workers must be 1, got 2"):
            covertrelay.validation.run_validation(workers=2)

    def test_validate_writes_one_line_ending(self, tmp_path, monkeypatch):
        passed = ValidationCheck("dep_slot", 0.5, 0.5, 0.01, 0.0)
        monkeypatch.setattr(covertrelay.validation, "run_validation",
                            lambda samples, seed: [passed])
        out = tmp_path / "validation.csv"
        assert main(["validate", "--out", str(out)]) == 0
        for path in (out, tmp_path / "discrepancies.csv"):
            assert b"\r" not in path.read_bytes(), path.name

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


class TestNumpyOnlyRuntime:
    """The library and every verb run with numpy alone; scipy is for tests."""

    def run_python(self, code, cwd):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, cwd=cwd, timeout=300)

    def test_every_verb_runs_without_scipy(self, tmp_path):
        runs = [["dep"], ["throughput"], ["throughput", "--nt", "2", "--nr", "8"],
                ["sweep", "--variable", "rho", "--from", "1.1", "--to", "3", "--steps", "5"],
                ["optimize-single"], ["optimize-multi"], ["validate", "--samples", "20000"],
                ["figures", "--outdir", "tmp"]]
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
            "from covertrelay.cli import main\n"
            f"print([main(argv) for argv in {runs!r}], file=sys.stderr)\n"
        )
        proc = self.run_python(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == str([0] * len(runs))
        assert (tmp_path / "discrepancies.csv").exists()
        assert (tmp_path / "tmp" / "fig8.csv").exists()

    def test_closed_form_verbs_run_without_numpy(self, tmp_path):
        # dep, single-antenna throughput, linear single-antenna sweeps and
        # optimize-single load only the standard library, and print what they
        # print with numpy.  throughput at rho = 1.1 takes ei_diff's close
        # branch; the epsilon sweep solves for the covert power limit.
        runs = [["dep"], ["dep", "--rho", "1.0000001"], ["dep", "--ps", "5e-324"],
                ["dep", "--rho", "1e300", "--sigma-n-dbm", "-300"], ["throughput"],
                ["throughput", "--rho", "1.1", "--ps", "0.001", "--pr", "0.001", "--t", "2"],
                ["sweep", "--variable", "p", "--from", "0.5", "--to", "3", "--steps", "20"],
                ["sweep", "--variable", "rho", "--from", "1.01", "--to", "3", "--steps", "5"],
                ["sweep", "--variable", "sigma_n2_dbm", "--from", "-10", "--to", "3",
                 "--steps", "5"],
                ["optimize-single"], ["optimize-single", "--sigma-n-dbm", "-80"],
                ["optimize-single", "--rho", "3", "--epsilon", "0.5", "--delta", "0.001"],
                ["optimize-single", "--epsilon", "0.999", "--delta", "0.5"],
                ["sweep", "--variable", "epsilon", "--from", "0.05", "--to", "0.5", "--steps", "5",
                 "--sigma-n-dbm", "-80"]]
        code = ("import sys\n"
                "{}\n"
                "from covertrelay.cli import main\n"
                f"print([main(argv) for argv in {runs!r}], file=sys.stderr)\n")
        blocked = self.run_python(code.format("sys.modules['numpy'] = None"), tmp_path)
        loaded = self.run_python(code.format("import numpy"), tmp_path)
        for proc in (blocked, loaded):
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.splitlines()[-1] == str([0] * len(runs))
        assert blocked.stdout == loaded.stdout

    def test_optimize_import_loads_no_numpy(self, tmp_path):
        # numpy is imported by optimize_multi's grid scan alone.
        code = "import sys, covertrelay.optimize\nprint('numpy' in sys.modules)\n"
        proc = self.run_python(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_validation_import_loads_no_numpy(self, tmp_path):
        # numpy is imported by the Monte-Carlo estimators when they run.
        code = "import sys, covertrelay.validation\nprint('numpy' in sys.modules)\n"
        proc = self.run_python(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_specfun_runs_without_numpy(self, tmp_path):
        code = ("import sys\n"
                "sys.modules['numpy'] = None\n"
                "from covertrelay.specfun import _gauss_legendre, ei_diff\n"
                "print(len(_gauss_legendre(1024)[0]), ei_diff(1.1, 1.0) > 0)\n")
        proc = self.run_python(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1024 True"

    def test_cli_import_loads_no_scipy(self, tmp_path):
        code = ("import sys, covertrelay.cli\n"
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
        proc = self.run_python(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_gauss_legendre_rules_load_no_numpy_polynomial(self, tmp_path):
        # The slot-DEP reference and the outage tables build their rules in
        # specfun, without numpy.polynomial's import.
        code = ("import sys\n"
                "from covertrelay.detection import dep_slot_reference\n"
                "from covertrelay.model import SystemParams\n"
                "from covertrelay.throughput import _outage_table\n"
                "dep_slot_reference(1e-3, 1.2e-3, SystemParams(1.0, 1.0, 1e-3, 1.5))\n"
                "_outage_table(2, 8)\n"
                "print('numpy.polynomial' in sys.modules)\n")
        proc = self.run_python(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestPackageExports:
    """The package resolves its exports on first access."""

    def test_each_export_is_its_home_modules_object(self):
        for name in covertrelay.__all__:
            value = getattr(covertrelay, name)
            assert value is getattr(sys.modules[value.__module__], name)

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from covertrelay import *", namespace)
        assert set(covertrelay.__all__) <= namespace.keys()

    def test_dir_lists_every_export(self):
        assert set(covertrelay.__all__) <= set(dir(covertrelay))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            covertrelay.no_such_name
