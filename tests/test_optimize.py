"""Constrained throughput maximization: gradients, frontier search, grid scan."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertrelay.errors import InfeasibleError
from covertrelay.model import (
    AntennaConfig,
    ConstraintSet,
    RateParams,
    SystemParams,
    dbm_to_watts,
)
from covertrelay.detection import min_dep_two_hop
from covertrelay.optimize import (
    covert_power_limit,
    lagrangian_gradient,
    optimize_multi,
    optimize_single,
)
from covertrelay.throughput import throughput_multi, throughput_single

SIGMA_N2 = dbm_to_watts(-5.0)
BASE = SystemParams(1.0, 1.0, SIGMA_N2, 1.5)
BUDGETS = ConstraintSet(0.15, 0.1, 5.0)


class TestGradient:
    def test_analytic_matches_finite_difference(self):
        # debug=True raises if any partial is off by >1e-4 relative.
        rng = np.random.default_rng(7)
        for _ in range(30):
            p_s = float(np.exp(rng.uniform(math.log(1e-5), math.log(4.0))))
            p_r = float(np.exp(rng.uniform(math.log(1e-5), math.log(4.0))))
            t = float(np.exp(rng.uniform(math.log(0.05), math.log(2.5))))
            mult = tuple(float(m) for m in rng.uniform(0.0, 2.0, 4))
            lagrangian_gradient(p_s, p_r, t, mult, BUDGETS, BASE, debug=True)

    def test_certain_outage_leaves_covertness_and_power_terms(self):
        # At t = 600 kappa is inf: eta and p_out are flat, so dL/dt = 0 and
        # the power partials are those of the covertness and power terms.
        mult = (0.3, 0.2, 0.1, 0.4)
        d_ps, d_pr, d_t = lagrangian_gradient(1.0, 1.0, 600.0, mult, BUDGETS, BASE, debug=True)
        assert d_t == 0.0
        assert d_ps > mult[2] and d_pr > mult[3]
        assert lagrangian_gradient(1.0, 1.0, 600.0, (0, 0, 0, 0), BUDGETS, BASE) == (0, 0, 0)

    def test_rejects_boundary_point(self):
        with pytest.raises(ValueError):
            lagrangian_gradient(0.0, 1.0, 1.0, (0, 0, 0, 0), BUDGETS, BASE)
        with pytest.raises(ValueError):
            lagrangian_gradient(1.0, 1.0, 0.0, (0, 0, 0, 0), BUDGETS, BASE)


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

    def test_returns_p_max_when_unconstrained(self):
        # With epsilon near 1 the covertness budget never binds.
        assert covert_power_limit(0.99999, BASE, 5.0) == 5.0


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
        assert opt.p_s == pytest.approx(opt.p_r, rel=1e-6)

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
        assert out.p_out <= delta + 1e-9
        assert opt.eta == out.eta
        assert opt.method == "kkt"


class TestOptimizeMulti:
    PARAMS = SystemParams(1.0, 1.0, SIGMA_N2, 1.5, AntennaConfig(2, 8, 2, 8))

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
        # The outage tables against the scalar path, on a 5 % sample.
        evals = []
        optimize_multi(BUDGETS, self.PARAMS, evaluations=evals)
        for p_s, p_r, t, eta in evals[::20]:
            out = throughput_multi(self.PARAMS.with_powers(p_s, p_r), RateParams(t))
            assert abs(eta - out.eta) <= 1e-12

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
        evals = []
        optimize_multi(BUDGETS, self.PARAMS, v_max=500, evaluations=evals)
        assert len(evals) <= 500

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
        with pytest.raises(ValueError):
            optimize_multi(BUDGETS, self.PARAMS, v_max=0)
        with pytest.raises(ValueError):
            optimize_multi(BUDGETS, self.PARAMS, steps=(0.0, 0.1, 0.1))
