"""Constrained throughput maximization: gradients, frontier search, grid scan."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from covertrelay.errors import InfeasibleError, NumericError
from covertrelay.model import (
    AntennaConfig,
    ConstraintSet,
    RateParams,
    SystemParams,
    dbm_to_watts,
)
from covertrelay.detection import _dep_single, min_dep_slot, min_dep_two_hop
from covertrelay.optimize import (
    Optimum,
    covert_power_limit,
    lagrangian_gradient,
    optimize_multi,
    optimize_single,
)
from covertrelay import optimize
from covertrelay.throughput import (
    _tas_mrc_outage,
    throughput_multi,
    throughput_single,
)

import oracles
from oracles import noise_expectation, oracle_lagrangian_gradient, oracle_optimize_multi

SIGMA_N2 = dbm_to_watts(-5.0)
BASE = SystemParams(1.0, 1.0, SIGMA_N2, 1.5)
BUDGETS = ConstraintSet(0.15, 0.1, 5.0)


def run_child(code: str) -> subprocess.CompletedProcess:
    # A fresh interpreter, for what one process can show only once: its
    # imports, or a call that must not hang the suite.
    src = os.path.dirname(os.path.dirname(optimize.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)


def assert_gradient_matches_central_difference(p_s, p_r, t, mult):
    analytic = lagrangian_gradient(p_s, p_r, t, mult, BASE)
    numeric = oracle_lagrangian_gradient((p_s, p_r, t), mult, BUDGETS, BASE)
    for i, (a, fd) in enumerate(zip(analytic, numeric)):
        # The central difference carries ~eps/h of rounding noise, so
        # negligible components need an absolute slack as well.
        scale = max(abs(a), abs(fd), 1e-9)
        assert abs(a - fd) <= 1e-4 * scale + 1e-7, (i, a, fd)
    return analytic


class TestOptimum:
    def test_rejects_bad_fields(self):
        Optimum(1.0, 1.0, 0.0, 0.0)
        for fields in ((0.0, 1.0, 1.0, 1.0), (1.0, -1.0, 1.0, 1.0), (1.0, 1.0, -1.0, 1.0),
                       (1.0, 1.0, 1.0, -1.0)):
            with pytest.raises(ValueError, match="optimum fields must be positive"):
                Optimum(*fields)
        with pytest.raises(ValueError, match="unknown active constraints"):
            Optimum(1.0, 1.0, 1.0, 1.0, frozenset({"covertness", "latency"}))
        with pytest.raises(ValueError, match="method must be 'kkt' or 'grid'"):
            Optimum(1.0, 1.0, 1.0, 1.0, method="bisect")


class TestGradient:
    def test_analytic_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            p_s = float(np.exp(rng.uniform(math.log(1e-5), math.log(4.0))))
            p_r = float(np.exp(rng.uniform(math.log(1e-5), math.log(4.0))))
            t = float(np.exp(rng.uniform(math.log(0.05), math.log(2.5))))
            mult = tuple(float(m) for m in rng.uniform(0.0, 2.0, 4))
            assert_gradient_matches_central_difference(p_s, p_r, t, mult)

    def test_certain_outage_leaves_covertness_and_power_terms(self):
        # At t = 600 kappa is inf: eta and p_out are flat, so dL/dt = 0 and
        # the power partials are those of the covertness and power terms.
        mult = (0.3, 0.2, 0.1, 0.4)
        d_ps, d_pr, d_t = assert_gradient_matches_central_difference(1.0, 1.0, 600.0, mult)
        assert d_t == 0.0
        assert d_ps > mult[2] and d_pr > mult[3]
        assert lagrangian_gradient(1.0, 1.0, 600.0, (0, 0, 0, 0), BASE) == (0, 0, 0)

    def test_tiny_power_reaches_its_limit(self):
        # As p_s -> 0, B(p_s) -> p_s / mu2 while the outage terms vanish, so
        # dL/dp_s -> k1 B(p_r) / (c mu2) with c = 4 ln^2 rho.
        c = 4.0 * math.log(BASE.rho) ** 2
        b_r = 2.0 * math.log(BASE.rho) * (1.0 - min_dep_slot(1.0, BASE))
        for p_s in (1e-20, 1e-100, 1e-160, 1e-200, 1e-300):
            d_ps, d_pr, d_t = lagrangian_gradient(p_s, 1.0, 1.5, (1.0, 0.0, 0.0, 0.0), BASE)
            assert d_ps == pytest.approx(b_r / (c * BASE.mu2), rel=1e-9)
            assert math.isfinite(d_pr) and math.isfinite(d_t)

    def test_dep_gap_slope_at_large_power(self):
        # Far above the noise the slope of the DEP gap B(p) is its first-order
        # limit (mu2 / p^2)(2 ln rho - 1 + rho^-2), equal here to 50-digit
        # mpmath; e^(v - u) - 1 formed without expm1 was 72 % off.
        params = SystemParams(1.0, 1.0, 1e-13, 1.5)
        limit = params.mu2 / 1e3**2 * (2.0 * math.log(1.5) - 1.0 + 1.5**-2)
        assert _dep_single(1e3, params)[2] == pytest.approx(limit, rel=1e-12, abs=0)

    def test_dep_gap_slope_where_p_squared_leaves_the_floats(self):
        # B depends on p / sigma^2 alone, so dB/dp scales as 1 / sigma^2.
        # At p = 1e-3 * 2^-600 or 2^600, p**2 under- or overflows.
        ref = _dep_single(1e-3, SystemParams(1.0, 1.0, 1e-3, 1.5))[2]
        for k in (-600, 600):
            p = math.ldexp(1e-3, k)
            assert _dep_single(p, SystemParams(1.0, 1.0, p, 1.5))[2] == pytest.approx(
                math.ldexp(ref, -k), rel=1e-12, abs=0)

    def test_finite_where_the_closed_form_dep_leaves_the_unit_interval(self):
        # At rho = 1 + 1e-7 the DEP 1 - B / (2 ln rho) cancels past the clamp's
        # slack, so min_dep_slot raises; the gradient reads only B and dB/dp.
        params = SystemParams(1.0, 1.0, SIGMA_N2, 1.0 + 1e-7)
        grad = lagrangian_gradient(1.0, 1.0, 1.5, (1.0, 0.0, 0.0, 0.0), params)
        assert all(math.isfinite(g) for g in grad) and grad[0] < 0.0

    def test_rejects_boundary_point(self):
        with pytest.raises(ValueError):
            lagrangian_gradient(0.0, 1.0, 1.0, (0, 0, 0, 0), BASE)
        with pytest.raises(ValueError):
            lagrangian_gradient(1.0, 1.0, 0.0, (0, 0, 0, 0), BASE)


class TestLeastSquares:
    """The certificate's Gram–Schmidt fit against numpy's lstsq."""

    @staticmethod
    def draw(rng, rows, n):
        # Singular values in [1, 10]: two backward-stable solvers agree to
        # about cond^2 eps, far below 1e-12 here.
        u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return u[:, :n] * rng.uniform(1.0, 10.0, n) @ v

    @staticmethod
    def assert_fit_matches_lstsq(a, base, independent):
        k = np.array(optimize._least_squares(a.T.tolist(), base.tolist()))
        expected = np.linalg.lstsq(a, -base, rcond=None)[0]
        np.testing.assert_allclose(base + a @ k, base + a @ expected, rtol=1e-12,
                                   atol=1e-12 * np.linalg.norm(base))
        np.testing.assert_allclose(k[:independent], expected[:independent], rtol=1e-12, atol=0)
        return k

    @pytest.mark.parametrize("rows, n", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)])
    def test_independent_columns_match_lstsq(self, rows, n):
        rng = np.random.default_rng(10 * rows + n)
        for _ in range(50):
            self.assert_fit_matches_lstsq(self.draw(rng, rows, n), rng.standard_normal(rows), n)

    @pytest.mark.parametrize("rows", [2, 3])
    def test_a_dependent_column_gets_zero(self, rows):
        # Two rows and three columns, as at the rate floor with three active
        # budgets; or three columns in a plane, as for covertness and both
        # power budgets.  lstsq spreads the fit over the third column at
        # minimum norm; the residual is the same.
        rng = np.random.default_rng(rows)
        for _ in range(50):
            a = np.zeros((rows, 3))
            a[:2, :2], a[:2, 2] = self.draw(rng, 2, 2), rng.standard_normal(2)
            k = self.assert_fit_matches_lstsq(a, rng.standard_normal(rows), 0)
            assert k[2] == 0.0

    def test_nearly_parallel_columns_still_leave_one_at_zero(self):
        # Three columns in a plane, the first two 1.6e-8 rad apart, just wide
        # enough for both to be kept: only a basis projected out twice stays
        # orthonormal enough for the third's remainder to fall under the cut.
        rng = np.random.default_rng(4)
        for _ in range(200):
            c, turn = rng.standard_normal(2), rng.choice([-1.6e-8, 1.6e-8])
            a = np.zeros((3, 3))
            a[:2, 0], a[:2, 2] = c, rng.standard_normal(2)
            a[:2, 1] = [[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]] @ c
            assert 0.0 in optimize._least_squares(a.T.tolist(), rng.standard_normal(3).tolist())


class TestCovertPowerLimit:
    def test_limit_is_tight(self):
        p_cov = covert_power_limit(0.15, BASE, 5.0)
        target = 1.0 - 0.15
        assert min_dep_two_hop(BASE.with_powers(p_cov, p_cov)) >= target
        assert min_dep_two_hop(BASE.with_powers(p_cov * 1.001, p_cov * 1.001)) < target

    def test_frozen_value(self):
        assert covert_power_limit(0.15, BASE, 5.0) == pytest.approx(
            1.3460775747e-4, rel=1e-6
        )

    def test_subnormal_limit(self):
        # Covert powers near 2e-315 W: the search ends where no float lies
        # between its ends, with a power that is covert by the test itself.
        params = SystemParams(1.0, 1.0, 1e-300, 1.0 + 1e-9)
        p_cov = covert_power_limit(1e-12, params, 1e-300)
        assert 0.0 < p_cov < 1e-312
        assert min_dep_two_hop(params.with_powers(p_cov, p_cov)) >= 1.0 - 1e-12

    def test_covert_where_mu2_over_p_max_overflows(self):
        # Below mu2 / float_max the DEP is exactly 1: P_max itself is covert.
        params = SystemParams(1.0, 1.0, dbm_to_watts(-5.0), 1.5)
        assert covert_power_limit(0.15, params, 1e-320) == 1e-320

    def test_infeasible_when_no_float_power_is_covert(self):
        # At a noise level of 1e-323 W even the smallest float power is detected.
        with pytest.raises(InfeasibleError, match="unsatisfiable even at vanishing power") as err:
            covert_power_limit(0.15, SystemParams(1.0, 1.0, 1e-323, 1.5), 5.0)
        assert err.value.tightest_constraint == "covertness"

    def test_returns_p_max_when_unconstrained(self):
        # With epsilon near 1 the covertness budget never binds.
        assert covert_power_limit(0.99999, BASE, 5.0) == 5.0

    @pytest.mark.parametrize("epsilon,p_max,bad", [
        (0.0, 5.0, "epsilon"), (-0.1, 5.0, "epsilon"), (1.0, 5.0, "epsilon"),
        (1.5, 5.0, "epsilon"), (math.nan, 5.0, "epsilon"),
        (0.15, 0.0, "p_max"), (0.15, -1.0, "p_max"), (0.15, math.nan, "p_max"),
    ])
    def test_rejects_values_outside_the_domain(self, epsilon, p_max, bad):
        value = epsilon if bad == "epsilon" else p_max
        with pytest.raises(ValueError, match=re.escape(f"{bad} must be in (0, ")
                           + f".*got {re.escape(str(value))}$"):
            covert_power_limit(epsilon, BASE, p_max)

    def test_rejects_an_infinite_p_max(self):
        # A search down from P_max = inf would never end, so a child process
        # runs it: the timeout fails the test instead of hanging the suite.
        code = ("import math; from covertrelay.model import SystemParams; "
                "from covertrelay.optimize import covert_power_limit; "
                "covert_power_limit(0.15, SystemParams(1.0, 1.0, 1e-3, 1.5), math.inf)")
        proc = run_child(code)
        assert proc.stderr.endswith("ValueError: p_max must be in (0, inf), got inf\n")


class TestOptimizeSingle:
    def test_converges_via_kkt(self):
        opt = optimize_single(BUDGETS, BASE)
        assert opt.method == "kkt"
        assert opt.active_constraints == frozenset({"covertness", "reliability"})
        assert opt.eta == pytest.approx(0.014034207929064121, rel=1e-6)
        # At the optimum both budgets are tight.
        params = BASE.with_powers(opt.p_s, opt.p_r)
        assert min_dep_two_hop(params) == pytest.approx(1.0 - BUDGETS.epsilon, abs=1e-7)
        assert throughput_single(params, RateParams(opt.t)).p_out == pytest.approx(
            BUDGETS.delta, abs=1e-7
        )

    def test_symmetric_problem_gives_symmetric_powers(self):
        opt = optimize_single(BUDGETS, BASE)
        # The optimum is taken at p_cov, whose partner is p_cov itself.
        assert opt.p_s == opt.p_r

    def test_deterministic(self):
        a = optimize_single(BUDGETS, BASE)
        b = optimize_single(BUDGETS, BASE)
        assert a == b

    def test_vacuous_budgets_hit_power_caps(self):
        loose = ConstraintSet(0.99999, 0.999, 2.0)
        opt = optimize_single(loose, BASE)
        assert opt.p_s == pytest.approx(2.0, rel=1e-6)
        assert opt.p_r == pytest.approx(2.0, rel=1e-6)
        assert {"power_s", "power_r"} <= set(opt.active_constraints)

    def test_relaxing_covertness_never_hurts(self):
        etas = [
            optimize_single(ConstraintSet(eps, 0.1, 5.0), BASE).eta
            for eps in (0.05, 0.15, 0.4)
        ]
        assert etas[0] <= etas[1] + 1e-9 <= etas[2] + 2e-9

    def test_relaxing_reliability_never_hurts(self):
        etas = [
            optimize_single(ConstraintSet(0.15, d, 5.0), BASE).eta
            for d in (0.02, 0.1, 0.3)
        ]
        assert etas[0] <= etas[1] + 1e-9 <= etas[2] + 2e-9

    def test_relaxing_power_budget_never_hurts(self):
        # Covertness-limited here, so the cap is inert once large enough.
        etas = [
            optimize_single(ConstraintSet(0.15, 0.1, pm), BASE).eta
            for pm in (1e-4, 1.0, 5.0)
        ]
        assert etas[0] <= etas[1] + 1e-9 <= etas[2] + 2e-9

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError) as err:
            optimize_single(ConstraintSet(1e-6, 1e-9, 5.0), BASE)
        assert err.value.tightest_constraint in ("covertness", "reliability")

    @pytest.mark.parametrize("antennas", [AntennaConfig(2, 8, 2, 8), AntennaConfig(1, 1, 1, 2)])
    def test_rejects_multiple_antennas(self, antennas):
        params = dataclasses.replace(BASE, antennas=antennas)
        with pytest.raises(ValueError, match="optimize_multi"):
            optimize_single(BUDGETS, params)

    def test_default_solve_makes_few_scalar_calls(self, monkeypatch):
        # The frontier search steps by Newton and the secant inside its
        # brackets; bisecting at every level, it made 6255 of these calls.
        calls = []
        for name in ("min_dep_slot", "_dep_single", "_hop_single"):
            def counted(*args, kernel=getattr(optimize, name)):
                calls.append(kernel)
                return kernel(*args)

            monkeypatch.setattr(optimize, name, counted)
        assert optimize_single(BUDGETS, BASE).method == "kkt"
        assert len(calls) <= 1000

    def test_power_cap_returned_exactly(self):
        # Loose covertness: the optimum sits at the p_s cap, which must not
        # be overshot by rounding.
        opt = optimize_single(ConstraintSet(0.999, 0.5, 5.0), BASE)
        assert opt.p_s == 5.0
        assert opt.p_r < 5.0
        assert "power_s" in opt.active_constraints
        assert opt.method == "kkt"

    def test_rate_floor_bounds_the_search(self):
        # Covert powers this small put the peak of eta(t) below the 1e-3
        # rate domain, so the optimum sits on its floor.
        constraints = ConstraintSet(2.4e-6, 0.86, 12.5)
        params = SystemParams(1.0, 1.0, dbm_to_watts(-7.9), 1.54)
        opt = optimize_single(constraints, params)
        assert opt.t == 1e-3
        assert opt.method == "kkt"
        point = params.with_powers(opt.p_s, opt.p_r)
        assert throughput_single(point, RateParams(0.9e-3)).eta > opt.eta

    def test_beats_symmetric_covert_point(self):
        # The equal-power covertness limit at its largest reliable rate is
        # a feasible point with eta = 0.0415409; the optimum is no worse.
        constraints = ConstraintSet(0.24054067507978932, 0.06820260572459631, 5.0)
        params = SystemParams(1.0, 1.0, dbm_to_watts(2.019407782976227), 2.83239012351763)
        p_cov = covert_power_limit(constraints.epsilon, params, constraints.p_max)
        point = params.with_powers(p_cov, p_cov)
        lo, hi = 1e-3, 4.0
        assert throughput_single(point, RateParams(lo)).p_out <= constraints.delta
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if throughput_single(point, RateParams(mid)).p_out <= constraints.delta:
                lo = mid
            else:
                hi = mid
        symmetric_eta = throughput_single(point, RateParams(lo)).eta
        assert symmetric_eta == pytest.approx(0.0415409, rel=1e-5)
        opt = optimize_single(constraints, params)
        assert opt.method == "kkt"
        assert opt.eta >= symmetric_eta

    def test_certificate_rejects_a_non_stationary_point(self):
        # Halving p_r leaves the frontier: no nonnegative multipliers of the
        # optimum's active constraints make the gradient vanish there.
        opt = optimize_single(BUDGETS, BASE)
        args = (opt.t, opt.eta, opt.active_constraints, BASE)
        optimize._kkt_certificate(opt.p_s, opt.p_r, *args)
        # The message names each fitted multiplier by its constraint.
        with pytest.raises(NumericError, match=r"no KKT certificate .* \{'covertness': "):
            optimize._kkt_certificate(opt.p_s, 0.5 * opt.p_r, *args)

    def test_frontier_below_the_first_bracket(self):
        # The covert partner of p_s = P_max lies below 1e-12 P_max, the lower
        # end of the covertness search's first bracket.
        constraints = ConstraintSet(0.1380102046869699, 0.48927457470891794, 56.43519673744103)
        params = SystemParams(1.0, 1.0, 1.1584140488474021e-11, 10.863303672364719)
        opt = optimize_single(constraints, params)
        assert opt.method == "kkt"
        assert opt.p_s == constraints.p_max
        assert opt.eta == pytest.approx(0.41138924109499, rel=1e-9)

    def test_optimum_reports_p_out_within_delta(self):
        # The rate search reads the outage that throughput_single reports, so
        # the optimum's p_out is at most delta exactly; an outage spelled
        # differently in the search left it 1.85e-15 over here.
        constraints = ConstraintSet(0.1769865127428548, 0.015906942767481315,
                                    5.840148483024082e-05)
        params = SystemParams(1.0, 1.0, 7.811834269047716e-07, 1.2125381814042602)
        opt = optimize_single(constraints, params)
        assert opt.active_constraints == frozenset({"covertness", "reliability"})
        out = throughput_single(params.with_powers(opt.p_s, opt.p_r), RateParams(opt.t))
        assert out.p_out <= constraints.delta

    def test_outer_side_test_survives_underflowing_derivatives(self):
        # Near p = 1e206 W the power derivatives of eta and of covertness are
        # ~1e-207 and their products underflow to -0.0; the side test reads
        # elasticities, so a noise power of 1e200 W still reaches the eta of
        # the same problem at 1 W (a product test stopped 1.2e-4 short).
        constraints = ConstraintSet(0.999999, 0.5, 1e300)
        unit = optimize_single(constraints, SystemParams(1.0, 1.0, 1.0, 1.5))
        huge = optimize_single(constraints, SystemParams(1.0, 1.0, 1e200, 1.5))
        assert huge.method == "kkt"
        assert huge.eta == pytest.approx(unit.eta, rel=1e-8)

    @seed(20261018)
    @settings(deadline=None, max_examples=10)
    @given(
        epsilon=st.floats(0.05, 0.5, exclude_min=True, exclude_max=True),
        delta=st.floats(0.05, 0.3, exclude_min=True, exclude_max=True),
        rho=st.floats(1.01, 3.0),
        sigma_dbm=st.floats(-10.0, 3.0),
    )
    def test_scale_invariance(self, epsilon, delta, rho, sigma_dbm):
        # DEP and outage depend on the powers only through p / sigma^2, so
        # scaling sigma^2 by 2^-k scales the optimal powers by 2^-k and keeps
        # eta, wherever the power cap is inactive.  At k = 40 the optimum lies
        # below 1e-12 P_max.
        constraints = ConstraintSet(epsilon, delta, 5.0)
        sigma2 = dbm_to_watts(sigma_dbm)
        try:
            opt = optimize_single(constraints, SystemParams(1.0, 1.0, sigma2, rho))
        except InfeasibleError:
            return
        if opt.active_constraints & {"power_s", "power_r"}:
            return
        for k in (20, 40, 60):
            params = SystemParams(1.0, 1.0, math.ldexp(sigma2, -k), rho)
            scaled = optimize_single(constraints, params)
            assert scaled.method == "kkt"
            assert scaled.eta == pytest.approx(opt.eta, rel=1e-9, abs=0)
            assert scaled.p_s == pytest.approx(math.ldexp(opt.p_s, -k), rel=1e-8, abs=0)
            assert scaled.p_r == pytest.approx(math.ldexp(opt.p_r, -k), rel=1e-8, abs=0)

    @pytest.mark.parametrize("epsilon,delta,rho,sigma_dbm,p_s,p_r,t,eta", [
        (0.24201479093810513, 0.28389185662712596, 2.0345054994609564, -7.992942624372282,
         0.00019379671269292774, 0.00019379671269292774,
         0.12562421661313247, 0.08996052452150308),
        (0.17751848867263126, 0.21736482078390745, 1.2956318743261948, -0.9911782804653555,
         0.00022465914942584303, 0.00022465914942584303,
         0.024293732908561575, 0.019013130008720038),
        (0.11302218640715772, 0.15083778494068895, 2.5467582491914342, -6.989413936558423,
         0.00022316860623186876, 0.00022316860623186876,
         0.05556597119631391, 0.04718452318298407),
        (0.4985258841416842, 0.08431074909747034, 1.8078846240566735, 0.012350407348510117,
         0.0020648259092269257, 0.0020648259092269257,
         0.05937962766040414, 0.05437328677122686),
        (0.43402958187621027, 0.26778371325425193, 1.0690109989219123, -5.985885248744564,
         3.8278210940950635e-05, 3.827821094095087e-05,
         0.016865672756216397, 0.012349320279025786),
        (0.36953327961073634, 0.20125667741103354, 2.320137373787151, 1.0158790951623615,
         0.0028757524794275876, 0.0028757524794276053,
         0.14978955542734165, 0.11964340719116075),
        (0.30503697734526247, 0.13472964156781492, 1.5812637486523893, -4.982356560930711,
         0.00026796769003873983, 0.0002679676900387415,
         0.041438160174460864, 0.03585521170692606),
        (0.24054067507978932, 0.06820260572459631, 2.83239012351763, 2.019407782976227,
         0.0034011312397085303, 0.0034011312397085303,
         0.04458147173030867, 0.041540899191264205),
    ])
    def test_frozen_optima(self, epsilon, delta, rho, sigma_dbm, p_s, p_r, t, eta):
        # Eight problems spread over the figure ranges at P_max = 5 W.  The
        # tolerance is 1e-10 relative, not exact, so that a more accurate
        # special function or DEP derivative may move the last digits.
        params = SystemParams(1.0, 1.0, dbm_to_watts(sigma_dbm), rho)
        opt = optimize_single(ConstraintSet(epsilon, delta, 5.0), params)
        assert opt.method == "kkt"
        for got, want in zip((opt.p_s, opt.p_r, opt.t, opt.eta), (p_s, p_r, t, eta)):
            assert got == pytest.approx(want, rel=1e-10, abs=0)

    @settings(deadline=None, max_examples=20)
    @given(
        epsilon=st.floats(0.05, 0.5, exclude_min=True, exclude_max=True),
        delta=st.floats(0.05, 0.5, exclude_min=True, exclude_max=True),
        rho=st.floats(1.01, 3.0),
    )
    def test_result_is_feasible_and_certified(self, epsilon, delta, rho):
        constraints = ConstraintSet(epsilon, delta, 5.0)
        params = SystemParams(1.0, 1.0, SIGMA_N2, rho)
        try:
            opt = optimize_single(constraints, params)
        except InfeasibleError:
            return
        assert 0.0 < opt.p_s <= constraints.p_max and 0.0 < opt.p_r <= constraints.p_max
        point = params.with_powers(opt.p_s, opt.p_r)
        assert min_dep_two_hop(point) >= 1.0 - epsilon - 1e-9
        out = throughput_single(point, RateParams(opt.t))
        assert out.p_out <= delta
        assert opt.eta == out.eta
        assert opt.method == "kkt"


class TestOptimizeMulti:
    PARAMS = SystemParams(1.0, 1.0, SIGMA_N2, 1.5, AntennaConfig(2, 8, 2, 8))

    @pytest.mark.parametrize("antennas,budgets,options", [
        ((1, 1, 1, 1), BUDGETS, {}),
        ((2, 2, 2, 2), BUDGETS, {}),
        ((2, 8, 2, 8), BUDGETS, {}),
        ((4, 4, 4, 4), BUDGETS, {}),
        ((2, 8, 4, 4), BUDGETS, {}),
        ((1, 3, 2, 1), BUDGETS, {}),
        ((2, 8, 2, 8), ConstraintSet(0.15, 0.1, 1e-3), {"steps": (2e-5, 1e-5, 0.03)}),
        ((2, 8, 2, 8), BUDGETS, {"v_max": 1}),
        ((2, 8, 2, 8), BUDGETS, {"v_max": 500}),
        ((2, 8, 2, 8), BUDGETS, {"v_max": 777}),
        ((2, 8, 2, 8), BUDGETS, {"v_max": 8192}),
        ((2, 8, 2, 8), BUDGETS, {"v_max": 8193}),
        ((2, 2, 2, 2), BUDGETS, {"phi": 1e-2}),
        ((2, 8, 2, 8), ConstraintSet(1e-6, 0.1, 5.0), {}),
        ((1, 1, 1, 1), ConstraintSet(0.15, 1e-12, 5.0), {}),
    ], ids=["1x1", "2x2", "2x8", "4x4", "2-8-4-4", "1-3-2-1", "linear-steps", "v_max-1",
            "v_max-500", "v_max-777", "v_max-8192", "v_max-8193", "phi-1e-2",
            "covertness-infeasible", "reliability-infeasible"])
    def test_matches_the_per_point_scan(self, monkeypatch, antennas, budgets, options):
        # The pass scan against the earlier generator scan: an equal
        # optimum (or the same InfeasibleError), equal evaluations, and as
        # many kernel values computed.  Where v_max cuts the scan, loops past
        # the cut run until the counts rule them out: at least as many kernel
        # values as the point scan, and at most as many as without a cut.
        params = SystemParams(1.0, 1.0, SIGMA_N2, 1.5, AntennaConfig(*antennas))
        uncut = {k: v for k, v in options.items() if k != "v_max"}
        values = {}
        results = {}
        runs = [("rows", optimize, optimize_multi, options),
                ("points", oracles, oracle_optimize_multi, options)]
        if uncut != options:
            runs.append(("uncut", optimize, optimize_multi, uncut))
        for name, module, scan, kwargs in runs:
            def counted(n_t, n_r, y, params, name=name):
                values[name] = values.get(name, 0) + np.size(y)
                return _tas_mrc_outage(n_t, n_r, y, params)

            monkeypatch.setattr(module, "_tas_mrc_outage", counted)
            evals = []
            try:
                opt = scan(budgets, params, evaluations=evals, **kwargs)
            except InfeasibleError as err:
                opt = err.tightest_constraint
            results[name] = opt, evals
        assert results["rows"][0] == results["points"][0]
        assert results["rows"][1] == results["points"][1]
        if uncut == options:
            assert values.get("rows") == values.get("points")
        else:
            assert values["points"] <= values["rows"] <= values["uncut"]

    @seed(20261019)
    @settings(deadline=None, max_examples=100)
    @given(epsilon=st.floats(1e-3, 0.9, exclude_min=True, exclude_max=True),
           delta=st.floats(1e-3, 0.9, exclude_min=True, exclude_max=True),
           rho_excess=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
           sigma2=st.floats(-13.0, 0.0).map(lambda e: 10.0**e),
           antennas=st.tuples(*[st.integers(1, 4), st.integers(1, 16)] * 2),
           p_max_over_p_cov=st.floats(-0.5, 1.5).map(lambda e: 10.0**e),
           n_s=st.integers(1, 30), n_r=st.integers(1, 30),
           h3=st.floats(-2.0, -0.5).map(lambda e: 10.0**e),
           phi=st.floats(-8.0, 0.0).map(lambda e: 10.0**e),
           v_max=st.integers(1, 300) | st.integers(1, 10**6),
           cells=st.sampled_from([64, optimize._SCAN_CELLS]))
    def test_matches_the_per_point_scan_on_small_grids(self, epsilon, delta, rho_excess, sigma2,
                                                       antennas, p_max_over_p_cov, n_s, n_r,
                                                       h3, phi, v_max, cells):
        # Linear grids of up to 30 powers per axis up to a P_max near the
        # largest covert equal power, asymmetric relays included: the pass
        # scan, also with pass arrays of 64 cells and read-back windows of
        # 64 points, against the generator scan, compared as in
        # test_matches_the_per_point_scan.
        params = SystemParams(1.0, 1.0, sigma2, 1.0 + rho_excess, AntennaConfig(*antennas))
        p_max = covert_power_limit(epsilon, params, 1e3) * p_max_over_p_cov
        budgets = ConstraintSet(epsilon, delta, p_max)
        steps = (p_max / n_s, p_max / n_r, h3)

        def run(module, scan, v_max):
            values = []

            def counted(n_t, n_r, y, params):
                values.append(np.size(y))
                return _tas_mrc_outage(n_t, n_r, y, params)

            evals = []
            with (mock.patch.object(module, "_tas_mrc_outage", counted),
                  mock.patch.object(optimize, "_SCAN_CELLS", cells)):
                try:
                    opt = scan(budgets, params, steps, phi, v_max, evals)
                except InfeasibleError as err:
                    opt = err.tightest_constraint
            return opt, evals, sum(values)

        blocks = run(optimize, optimize_multi, v_max)
        points = run(oracles, oracle_optimize_multi, v_max)
        assert blocks[:2] == points[:2]
        if not isinstance(blocks[0], str):  # inside the power box, and covert
            assert 0.0 < blocks[0].p_s <= p_max and 0.0 < blocks[0].p_r <= p_max
            assert min_dep_two_hop(params.with_powers(blocks[0].p_s, blocks[0].p_r)) >= 1 - epsilon
        if len(points[1]) < v_max:
            assert blocks[2] == points[2]
        else:
            assert points[2] <= blocks[2] <= run(optimize, optimize_multi, 10**6)[2]

    def test_ties_across_blocks(self, monkeypatch):
        # With pass arrays of one loop and read-back windows of 16 points,
        # the mirrored pair (p_r, p_s), whose eta is equal bit for bit, lies
        # in a later window and does not win the tie.
        monkeypatch.setattr(optimize, "_SCAN_CELLS", optimize._FIRST_ROWS)
        opt = optimize_multi(BUDGETS, self.PARAMS)
        assert (opt.p_s, opt.p_r, opt.t) == (1.2385381779958556e-4, 1.4240179342179008e-4, 0.81)

    def test_peak_memory(self):
        # Each pass's arrays hold at most _SCAN_CELLS (loop, rate) cells,
        # also where the loops run 300 rates wide, as at (4, 16) with
        # epsilon = 0.9 and delta = 0.5 (736 038 points).
        for antennas, budgets, bound in (((2, 8), BUDGETS, 4e6),
                                         ((4, 16), ConstraintSet(0.9, 0.5, 5.0), 6e6)):
            params = SystemParams(1.0, 1.0, SIGMA_N2, 1.5, AntennaConfig(*antennas * 2))
            optimize_multi(budgets, params)  # builds the antenna pair's outage table
            tracemalloc.start()
            try:
                optimize_multi(budgets, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound

    @pytest.mark.parametrize("n_t,n_r", [(1, 1), (2, 2), (2, 8), (4, 4)])
    def test_table_scan_matches_the_gauss_legendre_scan(self, monkeypatch, n_t, n_r):
        # The paper's default grid read from the outage table and from the
        # Gauss-Legendre kernel: the same optimum and evaluated points, and
        # eta within the kernels' 1e-12.
        params = SystemParams(1.0, 1.0, SIGMA_N2, 1.5, AntennaConfig(n_t, n_r, n_t, n_r))
        table_evals, gl_evals = [], []
        table = optimize_multi(BUDGETS, params, evaluations=table_evals)
        monkeypatch.setattr(optimize, "_tas_mrc_outage", noise_expectation)
        gl = optimize_multi(BUDGETS, params, evaluations=gl_evals)
        assert (table.p_s, table.p_r, table.t) == (gl.p_s, gl.p_r, gl.t)
        assert table.eta == pytest.approx(gl.eta, rel=1e-12)
        assert [e[:3] for e in table_evals] == [e[:3] for e in gl_evals]
        assert max(abs(a[3] - b[3]) for a, b in zip(table_evals, gl_evals)) <= 1e-12

    def test_beats_every_evaluated_point(self):
        evals = []
        opt = optimize_multi(BUDGETS, self.PARAMS, evaluations=evals)
        assert evals, "scan should record feasible points"
        assert opt.eta >= max(e[3] for e in evals)
        assert opt.method == "grid"
        assert opt.t == round(opt.t / 0.01) * 0.01

    @pytest.mark.parametrize("n_t,n_r,t,eta,evaluated", [
        (2, 2, 0.21, 0.19093112390269013, 14186),
        (2, 8, 0.81, 0.7347114905359198, 68984),
        (4, 4, 0.6, 0.5411819345802916, 45574),
    ])
    def test_default_optima(self, n_t, n_r, t, eta, evaluated):
        # The paper's default grid at the CLI's operating point.
        evals = []
        params = SystemParams(1.0, 1.0, SIGMA_N2, 1.5, AntennaConfig(n_t, n_r, n_t, n_r))
        opt = optimize_multi(BUDGETS, params, evaluations=evals)
        assert (opt.p_s, opt.p_r, opt.t) == (1.2385381779958556e-4, 1.4240179342179008e-4, t)
        assert opt.eta == pytest.approx(eta, rel=1e-12, abs=0)
        assert len(evals) == evaluated

    def test_evaluations_match_throughput_multi(self):
        # The array read of the outage tables against the scalar read that
        # throughput_multi makes, bit for bit, on a 5 % sample.
        evals = []
        optimize_multi(BUDGETS, self.PARAMS, evaluations=evals)
        for p_s, p_r, t, eta in evals[::20]:
            out = throughput_multi(self.PARAMS.with_powers(p_s, p_r), RateParams(t))
            assert eta == out.eta, (p_s, p_r, t)

    def test_solve_loads_no_numpy_ma(self):
        # np.unique of integers imports numpy.ma, 15 ms or more of a cold solve.
        code = ("import sys; from covertrelay.model import ConstraintSet, SystemParams; "
                "from covertrelay.optimize import optimize_multi; "
                "optimize_multi(ConstraintSet(0.15, 0.1, 5.0), SystemParams(1.0, 1.0, 1e-3, 1.5)); "
                "print('numpy.ma' in sys.modules)")
        proc = run_child(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_linear_steps(self):
        # Linear power grids with steps h1 and h2 up to P_max = 1 mW.
        evals = []
        budgets = ConstraintSet(0.15, 0.1, 1e-3)
        opt = optimize_multi(budgets, self.PARAMS, steps=(1e-5, 2e-5, 0.02), evaluations=evals)
        assert (opt.p_s, opt.p_r, opt.t) == (0.00015000000000000001, 0.00012, 0.8)
        assert opt.eta == pytest.approx(0.7307596345415696, rel=1e-12, abs=0)
        assert len(evals) == 12124
        assert opt.eta >= max(e[3] for e in evals)

    def test_deterministic(self):
        a = optimize_multi(BUDGETS, self.PARAMS)
        b = optimize_multi(BUDGETS, self.PARAMS)
        assert a == b

    def test_single_antenna_consistency(self):
        # With (1,1) antennas the grid scan must land within one rate step
        # of the exact single-antenna optimum.
        single = optimize_single(BUDGETS, BASE)
        multi = optimize_multi(BUDGETS, BASE)
        assert abs(multi.eta - single.eta) <= 0.011 + 1e-6

    def test_evaluation_cap_respected(self):
        # The scan stops at the v_max-th feasible point, and the optimum is
        # the best of those under the tie-break: largest eta, then the
        # smallest p_s, p_r and t.
        evals = []
        opt = optimize_multi(BUDGETS, self.PARAMS, v_max=500, evaluations=evals)
        assert len(evals) == 500
        best = max(evals, key=lambda e: (e[3], -e[0], -e[1], -e[2]))
        assert (opt.p_s, opt.p_r, opt.t, opt.eta) == best

    def test_infeasible_covertness(self):
        # No grid power is small enough to stay this covert.
        with pytest.raises(InfeasibleError) as err:
            optimize_multi(ConstraintSet(1e-6, 0.1, 5.0), self.PARAMS)
        assert err.value.tightest_constraint == "covertness"

    def test_infeasible_reliability(self):
        # Single antennas: covert powers exist but every rate step busts
        # the (absurdly small) outage budget.
        with pytest.raises(InfeasibleError) as err:
            optimize_multi(ConstraintSet(0.15, 1e-12, 5.0), BASE)
        assert err.value.tightest_constraint == "reliability"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            optimize_multi(BUDGETS, self.PARAMS, phi=0.0)
        with pytest.raises(ValueError, match="phi must be > 0, got nan"):
            optimize_multi(BUDGETS, self.PARAMS, phi=math.nan)
        with pytest.raises(ValueError):
            optimize_multi(BUDGETS, self.PARAMS, v_max=0)
        with pytest.raises(ValueError):
            optimize_multi(BUDGETS, self.PARAMS, steps=(0.0, 0.1, 0.1))
        with pytest.raises(ValueError, match="<= P_max"):
            optimize_multi(BUDGETS, self.PARAMS, steps=(0.1, 6.0, 0.1))
        with pytest.raises(ValueError, match="<= P_max"):
            optimize_multi(BUDGETS, self.PARAMS, steps=(math.nan, 0.1, 0.1))
