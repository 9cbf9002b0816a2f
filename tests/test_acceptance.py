"""End-to-end acceptance suite: ten criteria, one pass/fail line each.

Every expected value here is either derived from the independent
quadrature oracle in oracles.py, checked against a seeded Monte-Carlo
estimate, or asserted as a structural identity; nothing is copied from
the implementation under test.
"""

import contextlib
import csv
import math
import time

import numpy as np
import pytest

from covertrelay.detection import (
    dep_slot_paper,
    dep_slot_reference,
    mc_dep_two_hop,
    min_dep_two_hop,
    optimal_threshold,
)
from covertrelay.model import (
    AntennaConfig,
    ConstraintSet,
    RateParams,
    RngSpec,
    SystemParams,
    dbm_to_watts,
)
from covertrelay.optimize import covert_power_limit, optimize_multi, optimize_single
from covertrelay.report import CSV_COLUMNS, build_discrepancy_report, write_discrepancy_csv
from covertrelay.specfun import ei_diff, expint_ei, upper_gamma
from covertrelay.throughput import (
    mc_outage_hop,
    outage_hop_multi_reference,
    outage_hop_single,
    throughput_multi,
    throughput_single,
)

from oracles import oracle_ei, oracle_upper_gamma

RHO = 1.5
SIGMA_DBM_GRID = (-10.0, -5.0, 3.0)
POWER_GRID = (1.0, 3.0, 5.0)
MC_TRIALS = 10_000_000
MC_SEED = 42


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:2d} [{title}]: FAIL", flush=True)
        raise
    print(f"CRITERION {number:2d} [{title}]: PASS", flush=True)


def three_se(analytic: float, estimate) -> float:
    # Binomial standard error under the analytic value is the honest
    # yardstick when the empirical one collapses (rare events, 0 hits).
    floor = math.sqrt(max(analytic * (1.0 - analytic), 0.0) / estimate.n)
    return 3.0 * max(estimate.stderr, floor)


def test_criterion_01_special_functions_vs_oracle():
    with criterion(1, "special functions vs quadrature oracle"):
        start = time.monotonic()
        checked = 0
        for x in np.geomspace(1e-6, 50.0, 400):
            x = float(x)
            for sign in (1.0, -1.0):
                got, want = expint_ei(sign * x), oracle_ei(sign * x)
                assert abs(got - want) <= 1e-10 * max(abs(got), abs(want))
                checked += 1
        for s in range(1, 11):
            for x in np.geomspace(1e-3, 40.0, 20):
                got, want = upper_gamma(s, float(x)), oracle_upper_gamma(s, float(x))
                assert abs(got - want) <= 1e-10 * max(abs(got), abs(want))
                checked += 1
        assert checked == 1000
        assert time.monotonic() - start < 5.0


def test_criterion_02_min_dep_two_hop_vs_monte_carlo():
    with criterion(2, "two-hop minimum DEP vs 1e7-trial MC"):
        start = time.monotonic()
        stream = 0
        for sigma_dbm in SIGMA_DBM_GRID:
            sigma_n2 = dbm_to_watts(sigma_dbm)
            for p in POWER_GRID:
                params = SystemParams(p, p, sigma_n2, RHO)
                analytic = min_dep_two_hop(params)
                est = mc_dep_two_hop(
                    params, optimal_threshold(params), MC_TRIALS, RngSpec(MC_SEED, stream)
                )
                stream += 1
                assert abs(analytic - est.mean) <= three_se(analytic, est), (
                    f"P={p} W, sigma={sigma_dbm} dBm: {analytic} vs {est.mean} "
                    f"+- {est.stderr}"
                )
        assert time.monotonic() - start < 120.0


def test_criterion_03_threshold_optimality():
    with criterion(3, "radiometer threshold optimality"):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            sigma_n2 = dbm_to_watts(float(rng.uniform(-20.0, 5.0)))
            rho = float(rng.uniform(1.05, 3.0))
            p = float(rng.uniform(0.1, 5.0))
            params = SystemParams(p, p, sigma_n2, rho)
            taus = np.linspace(params.mu1 / 2.0, 4.0 * params.mu2, 1000)
            deps = [dep_slot_reference(p, float(tau), params) for tau in taus]
            best = float(taus[int(np.argmin(deps))])
            step = float(taus[1] - taus[0])
            assert abs(best - rho * sigma_n2) <= step


def test_criterion_04_dep_shape_properties():
    with criterion(4, "DEP monotone in power and uncertainty"):
        start = time.monotonic()
        for sigma_dbm in SIGMA_DBM_GRID:
            sigma_n2 = dbm_to_watts(sigma_dbm)
            xis = [
                min_dep_two_hop(SystemParams(float(p), float(p), sigma_n2, RHO))
                for p in np.linspace(0.1, 5.0, 50)
            ]
            assert all(b <= a + 1e-15 for a, b in zip(xis, xis[1:]))
        sigma_n2 = dbm_to_watts(-5.0)
        rhos = np.linspace(1.01, 3.0, 50)
        xis = [min_dep_two_hop(SystemParams(3.0, 3.0, sigma_n2, float(r))) for r in rhos]
        assert all(b >= a - 1e-15 for a, b in zip(xis, xis[1:]))
        assert xis[0] > 0.0  # even minimal uncertainty never exposes the link fully
        assert time.monotonic() - start < 60.0


def test_criterion_05_single_antenna_outage_and_throughput_vs_mc():
    with criterion(5, "single-antenna outage/throughput vs MC + product identity"):
        stream = 100
        sigma_n2 = dbm_to_watts(-5.0)
        for p in (0.5, 1.0, 3.0):
            for t in (0.5, 1.0, 1.5):
                params = SystemParams(p, p, sigma_n2, RHO)
                rate = RateParams(t)
                hop = outage_hop_single(p, rate, params)
                est1 = mc_outage_hop(p, rate, params, 1, 1, MC_TRIALS, RngSpec(MC_SEED, stream))
                est2 = mc_outage_hop(p, rate, params, 1, 1, MC_TRIALS,
                                     RngSpec(MC_SEED, stream + 1))
                stream += 2
                assert abs(hop - est1.mean) <= three_se(hop, est1)

                out = throughput_single(params, rate)
                eta_mc = t * (1.0 - est1.mean) * (1.0 - est2.mean)
                se_eta = t * math.hypot(
                    (1.0 - est2.mean) * max(est1.stderr, three_se(hop, est1) / 3.0),
                    (1.0 - est1.mean) * max(est2.stderr, three_se(hop, est2) / 3.0),
                )
                assert abs(out.eta - eta_mc) <= 3.0 * se_eta

                # Product form of the throughput as an exact identity.
                kappa = rate.kappa
                g = ei_diff(kappa * params.mu2 / p, kappa * params.mu1 / p)
                expected = t * g * g / (4.0 * math.log(RHO) ** 2)
                assert abs(out.eta - expected) <= 1e-12 * max(out.eta, expected, 1.0)


def test_criterion_06_multi_antenna_outage_vs_mc():
    with criterion(6, "TAS/MRC outage vs MC and single-antenna reduction"):
        start = time.monotonic()
        sigma_n2 = dbm_to_watts(-5.0)
        params = SystemParams(1.0, 1.0, sigma_n2, RHO)
        rate = RateParams(1.5)
        stream = 200
        for n_t, n_r in ((1, 1), (2, 2), (2, 8), (4, 4)):
            analytic = outage_hop_multi_reference(1.0, rate, params, n_t, n_r)
            est = mc_outage_hop(1.0, rate, params, n_t, n_r, MC_TRIALS,
                                RngSpec(MC_SEED, stream))
            stream += 1
            assert abs(analytic - est.mean) <= three_se(analytic, est), (
                f"(n_t, n_r)=({n_t}, {n_r}): {analytic} vs {est.mean}"
            )
        single = outage_hop_single(1.0, rate, params)
        reduced = outage_hop_multi_reference(1.0, rate, params, 1, 1)
        assert abs(single - reduced) <= 1e-9
        assert time.monotonic() - start < 300.0


def test_criterion_07_discrepancy_report(tmp_path):
    with criterion(7, "verbatim-formula discrepancy report"):
        # The interior closed-form branch must agree with the arbiter.
        sigma_n2 = dbm_to_watts(-5.0)
        params = SystemParams(3.0, 3.0, sigma_n2, RHO)
        for tau in np.linspace(params.mu1 * 1.0001, params.mu2, 100):
            ref = dep_slot_reference(3.0, float(tau), params)
            closed = dep_slot_paper(3.0, float(tau), params)
            assert abs(closed - ref) <= 1e-9

        # The suspect branches only need a complete machine-readable report.
        records = build_discrepancy_report()
        path = tmp_path / "discrepancies.csv"
        write_discrepancy_csv(records, str(path))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(CSV_COLUMNS)
        body = rows[1:]
        dep_rows = [r for r in body if r[0] == "dep_slot_above_upper_bound"]
        outage_rows = [r for r in body if r[0].startswith("outage_multi_combinatorial")]
        # 3 noise levels x 3 powers x 10 thresholds; 3 x 3 x 4 antenna
        # pairs x 2 readings of the ambiguous log factor.
        assert len(dep_rows) == 90
        assert len(outage_rows) == 72
        for r in body:
            assert r[2] != "" and r[3] != ""  # value-or-violation + reference
        assert all(r[4] != "" for r in dep_rows)  # numeric, so diffs exist


def test_criterion_08_optimizers_dominate_dense_grid():
    with criterion(8, "optimizers dominate dense grid"):
        start = time.monotonic()
        sigma_n2 = dbm_to_watts(-5.0)
        params = SystemParams(1.0, 1.0, sigma_n2, RHO)
        constraints = ConstraintSet(0.15, 0.1, 5.0)

        opt = optimize_single(constraints, params)
        # Independent 100^3 grid (log-spaced, the feasible powers live
        # several decades below the cap).
        p_grid = np.geomspace(constraints.p_max * 1e-6, constraints.p_max, 100)
        t_grid = np.geomspace(1e-3, 4.0, 100)
        best = None
        for p_s in p_grid:
            for p_r in p_grid:
                point = params.with_powers(float(p_s), float(p_r))
                if min_dep_two_hop(point) < 1.0 - constraints.epsilon:
                    continue
                for i, t in enumerate(t_grid):
                    out = throughput_single(point, RateParams(float(t)))
                    if out.p_out > constraints.delta:
                        break
                    if best is None or out.eta > best[0]:
                        best = (out.eta, float(p_s), float(p_r), i)
        assert best is not None
        grid_eta, bp_s, bp_r, ti = best
        # One grid cell's worth of eta variation around the grid optimum.
        neighbors = []
        point = params.with_powers(bp_s, bp_r)
        for j in (ti - 1, ti + 1):
            if 0 <= j < len(t_grid):
                neighbors.append(
                    throughput_single(point, RateParams(float(t_grid[j]))).eta
                )
        cell = max(abs(grid_eta - v) for v in neighbors)
        assert opt.eta >= grid_eta - cell

        multi_params = SystemParams(1.0, 1.0, sigma_n2, RHO, AntennaConfig(2, 8, 2, 8))
        evaluations = []
        opt_m = optimize_multi(constraints, multi_params, evaluations=evaluations)
        assert evaluations
        assert opt_m.eta >= max(e[3] for e in evaluations)
        # Returned point is genuinely feasible.
        assert min_dep_two_hop(
            multi_params.with_powers(opt_m.p_s, opt_m.p_r)
        ) >= 1.0 - constraints.epsilon - 1e-9
        out = throughput_multi(
            multi_params.with_powers(opt_m.p_s, opt_m.p_r), RateParams(opt_m.t)
        )
        assert out.p_out <= constraints.delta + 1e-9
        assert time.monotonic() - start < 120.0


def test_criterion_09_optimized_vs_unoptimized_ordering():
    with criterion(9, "throughput ordering multi/single, optimized/not"):
        sigma_n2 = dbm_to_watts(-5.0)
        single = SystemParams(1.0, 1.0, sigma_n2, RHO)
        multi = SystemParams(1.0, 1.0, sigma_n2, RHO, AntennaConfig(2, 8, 2, 8))
        constraints = ConstraintSet(0.15, 0.1, 5.0)
        t_ref = RateParams(0.5)

        p_cov = covert_power_limit(constraints.epsilon, single, constraints.p_max)
        eta_s = throughput_single(single.with_powers(p_cov, p_cov), t_ref).eta
        eta_s_star = optimize_single(constraints, single).eta
        eta_m = throughput_multi(multi.with_powers(p_cov, p_cov), t_ref).eta
        eta_m_star = optimize_multi(constraints, multi).eta
        assert eta_m_star > eta_m > eta_s_star > eta_s, (
            f"ordering violated: {eta_m_star}, {eta_m}, {eta_s_star}, {eta_s}"
        )


def test_criterion_10_throughput_unimodal_in_rate():
    with criterion(10, "throughput unimodal in target rate"):
        sigma_n2 = dbm_to_watts(-5.0)
        params = SystemParams(1.0, 1.0, sigma_n2, RHO)
        etas = [
            throughput_single(params, RateParams(float(t))).eta
            for t in np.linspace(0.05, 8.0, 200)
        ]
        diffs = np.diff(etas)
        # Strictly one rising phase followed by one falling phase.
        signs = [1 if d > 1e-12 else (-1 if d < -1e-12 else 0) for d in diffs]
        signs = [s for s in signs if s != 0]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1
        assert signs[0] == 1 and signs[-1] == -1
        peak = int(np.argmax(etas))
        assert 0 < peak < len(etas) - 1
