import math

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import poisson

from eolstop import (
    AssumptionViolated,
    CapSaturated,
    CostParameters,
    IntensityModel,
    LostSalesConvention,
    ModelSpec,
    NonFinite,
    NotFound,
    PolicyIncompatible,
    UnreachableState,
    brute_force_switch_argmin,
    build_kernel_table,
    build_named_intensity,
    constant_A,
    delta2_x_switch_cost,
    delta_x_switch_cost,
    extract_regions,
    kernels_with_K,
    order_up_to_of_tau,
    solve,
    static_switch_values,
    stopping_time_distribution,
    switch_cost,
    switch_cost_curve,
    switch_time_bounds,
    validate_assumptions,
)
from eolstop import _backends, analytics
from eolstop.demand import period_pmfs
from eolstop.solver import CONTINUE, ORDER, STOP, _backward_pass

from conftest import base_params, small_instance

ARR = LostSalesConvention.ARRIVAL


class TestValidateAssumptions:
    def test_base_case_all_pass(self, base_model):
        rep = validate_assumptions(base_params(), base_model)
        assert rep.ok and rep.lambda_non_increasing and not rep.failures

    def test_pos_fails_when_scrap_dominates_holding(self, base_model):
        # c1 - delta*c4 < 0 with c4 = 250, delta = 0.005, c1 = 1
        rep = validate_assumptions(base_params(c4=250.0), base_model)
        assert not rep.ok
        assert "holding_net_of_scrap_non_negative" in rep.failures

    def test_negative_scrap_fails_pos(self, base_model):
        rep = validate_assumptions(base_params(c4=-25.0), base_model)
        assert not rep.ok and "c4_non_negative" in rep.failures

    def test_increasing_outside_source_rejected_at_construction(self):
        # gamma < 0 would make c3 increasing; the parameter type forbids it
        with pytest.raises(ValueError):
            base_params(gamma=-0.01)

    def test_lambda_monotonicity_flagged(self):
        m = IntensityModel(horizon=3, rates=np.array([1.0, 2.0, 1.0]))
        rep = validate_assumptions(base_params(T=3), m)
        assert rep.ok  # POS/NON-INC untouched
        assert not rep.lambda_non_increasing


class TestSwitchCost:
    def test_tau_zero_is_scrap_plus_outside_stream(self, base_model):
        p = base_params()
        x = 40
        want = p.c4 * x + constant_A(p, base_model)
        assert switch_cost(p, base_model, x, 0.0) == pytest.approx(want, rel=1e-12)

    def test_zero_inventory_closed_form(self, base_model):
        # premium integral up to tau plus the full outside stream
        p = base_params()
        tau = 7.5
        prem = quad(
            lambda u: np.exp(-p.delta * u) * base_model.rates[min(int(u), 49)] * p.c2_bar,
            0, tau, points=list(range(8)), limit=200, epsabs=1e-11, epsrel=1e-12,
        )[0]
        want = prem + constant_A(p, base_model)
        assert switch_cost(p, base_model, 0, tau) == pytest.approx(want, rel=1e-9)

    def test_against_adaptive_quadrature(self, base_model):
        p = base_params()
        x, tau = 30, 12.25

        def integrand(u):
            lam = base_model.rates[min(int(u), 49)]
            mu = base_model.mean_value(float(u))
            c2 = p.c2_bar + p.c3_bar * np.exp(-p.gamma * u)
            surplus = sum(poisson.cdf(n, mu) for n in range(x))
            return np.exp(-p.delta * u) * (
                lam * (-p.c4 - c2) * poisson.cdf(x - 1, mu)
                + lam * p.c2_bar
                + (p.c1 - p.delta * p.c4) * surplus
            )

        body = quad(integrand, 0, tau, points=list(range(13)), limit=400,
                    epsabs=1e-10, epsrel=1e-12)[0]
        want = p.c4 * x + body + constant_A(p, base_model)
        assert switch_cost(p, base_model, x, tau) == pytest.approx(want, rel=1e-8)

    def test_requires_assumptions(self, base_model):
        with pytest.raises(AssumptionViolated):
            switch_cost(base_params(c4=-25.0), base_model, 10, 5.0)


class TestDifferences:
    def test_delta_at_tau_zero_is_scrap_unit(self, base_model):
        assert delta_x_switch_cost(base_params(), base_model, 17, 0.0) == 25.0

    def test_delta_matches_finite_difference(self, base_model):
        p = base_params()
        for x, tau in [(0, 3.0), (12, 7.25), (60, 25.0)]:
            fd = switch_cost(p, base_model, x + 1, tau) - switch_cost(p, base_model, x, tau)
            an = delta_x_switch_cost(p, base_model, x, tau)
            assert an == pytest.approx(fd, rel=1e-9, abs=1e-9)

    def test_delta2_matches_difference_of_deltas(self, base_model):
        p = base_params()
        for x, tau in [(0, 4.0), (20, 11.5)]:
            fd = delta_x_switch_cost(p, base_model, x + 1, tau) - delta_x_switch_cost(
                p, base_model, x, tau)
            an = delta2_x_switch_cost(p, base_model, x, tau)
            assert an == pytest.approx(fd, rel=1e-8, abs=1e-9)

    def test_discrete_convexity(self, base_model):
        # Delta^2 >= 0 across the grid under POS/NON-INC
        p = base_params()
        for x in (0, 5, 40, 90):
            for tau in (1.0, 10.0, 30.0, 50.0):
                assert delta2_x_switch_cost(p, base_model, x, tau) >= -1e-9


class TestCurve:
    def test_matches_pointwise_evaluation(self, base_model):
        p = base_params()
        for step in (0.01, 0.03, 0.07):  # 0.03 and 0.07 do not divide T
            curve = switch_cost_curve(p, base_model, 25, step=step)
            for tau in (0.0, 2.0, 17.0, 50.0):
                i = int(round(tau / curve.tau_grid[1]))  # the grid point nearest tau
                t = float(curve.tau_grid[i])
                assert curve.values[i] == pytest.approx(
                    switch_cost(p, base_model, 25, t), rel=1e-12), (step, t)
                assert curve.delta_x[i] == pytest.approx(
                    delta_x_switch_cost(p, base_model, 25, t), rel=1e-12, abs=1e-10), (step, t)

    def test_grid_and_shapes(self, base_model):
        curve = switch_cost_curve(base_params(), base_model, 3, step=0.5)
        assert np.all(np.diff(curve.tau_grid) > 0)
        assert np.all(np.isfinite(curve.values))
        assert len(curve.values) == len(curve.tau_grid) == len(curve.delta_x)

    @pytest.mark.parametrize("x", [0, 25, 100])
    def test_argmin_reads_the_curve(self, base_model, x):
        # brute_force_switch_argmin evaluates the values alone; it must pick
        # the curve's own grid point and value
        p = base_params()
        curve = switch_cost_curve(p, base_model, x)
        i = int(np.argmin(curve.values))
        got = brute_force_switch_argmin(p, base_model, x)
        assert got == (float(curve.tau_grid[i]), float(curve.values[i]))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("call", ["switch_cost_curve", "brute_force_switch_argmin"])
    def test_overflowing_values_raise(self, base_model, call):
        p = base_params(c2_bar=1e308, c3_bar=1e308)
        run = {"switch_cost_curve": switch_cost_curve,
               "brute_force_switch_argmin": brute_force_switch_argmin}[call]
        with pytest.raises(NonFinite, match="switch-cost curve"):
            run(p, base_model, 100)


class TestOrderUpToOfTau:
    def test_tau_zero_forces_zero(self, base_model):
        assert order_up_to_of_tau(base_params(), base_model, 0.0) == 0

    def test_matches_exhaustive_order_search(self, base_model):
        # with no setup cost the best time-zero order for a committed switch
        # is the first-order-condition level
        p = base_params(K=0.0)
        for tau in (5.0, 15.0):
            s_tau = order_up_to_of_tau(p, base_model, tau)
            costs = [p.c_bar * m + switch_cost(p, base_model, m, tau) for m in range(500)]
            assert int(np.argmin(costs)) == s_tau

    def test_not_found_when_capped(self, base_model):
        with pytest.raises(NotFound):
            order_up_to_of_tau(base_params(), base_model, 25.0, x_cap=0)

    def test_negative_cap_finds_nothing(self, base_model):
        with pytest.raises(NotFound):
            order_up_to_of_tau(base_params(), base_model, 25.0, x_cap=-1)

    @pytest.mark.parametrize("tau", [10.0, 25.0, 40.0])
    def test_first_difference_non_decreasing(self, base_model, tau):
        # the monotonicity that makes the bisection exact, checked directly
        p = base_params()
        nodes = analytics._point_nodes(p, base_model, tau)
        d = [analytics._delta_x(p, x, nodes) for x in range(1201)]
        assert np.all(np.diff(d) >= 0)

    @given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.0, 1.0))
    @hyp_settings(max_examples=40, deadline=None)
    def test_bisection_matches_linear_scan(self, seed, frac):
        params, model, _, _ = small_instance(seed)
        assume(validate_assumptions(params, model).ok)
        tau = frac * model.horizon
        scan = next((x for x in range(61)
                     if params.c_bar + delta_x_switch_cost(params, model, x, tau) >= 0), None)
        if scan is None:
            with pytest.raises(NotFound):
                order_up_to_of_tau(params, model, tau, x_cap=60)
        else:
            assert order_up_to_of_tau(params, model, tau, x_cap=60) == scan

    @pytest.mark.parametrize("tau", [0.0, 0.5, 10.0, 25.0, 40.0, 49.5, 50.0])
    def test_matches_linear_scan(self, base_model, tau):
        p = base_params()
        s_tau = next(x for x in range(1201)
                     if p.c_bar + delta_x_switch_cost(p, base_model, x, tau) >= 0)
        assert order_up_to_of_tau(p, base_model, tau) == s_tau
        # a cap at the answer still finds it; one below it finds nothing
        assert order_up_to_of_tau(p, base_model, tau, x_cap=s_tau) == s_tau
        if s_tau > 0:
            with pytest.raises(NotFound):
                order_up_to_of_tau(p, base_model, tau, x_cap=s_tau - 1)

    def test_monotone_step_under_stated_conditions(self):
        # a low critical ratio keeps the level far below expected demand, so
        # all four hypotheses can be machine-checked before the conclusion
        model = build_named_intensity("constant", 50, 500.0)
        p = base_params(gamma=0.0, c2_bar=5.0, c3_bar=100.0)
        tau1, tau2, eps = 6.0, 7.0, 5.0
        s1 = order_up_to_of_tau(p, model, tau1)
        s2 = order_up_to_of_tau(p, model, tau2)
        assert tau1 < tau2  # (i)
        assert s1 >= s2  # (ii)
        assert s1 <= model.mean_value(tau2)  # (iii)
        for u in np.linspace(tau2, tau2 + eps, 41):  # (iv)
            lam = model.rates[min(int(u), 49)]
            bound = (model.mean_value(float(u)) - s1) / model.mean_value(float(u))
            assert p.c1 <= bound * lam * (p.c3_bar * np.exp(-p.gamma * u))
        s2e = order_up_to_of_tau(p, model, tau2 + eps)
        assert s2 <= s2e


class TestTauChecks:
    POINT_FUNCTIONS = [switch_cost, delta_x_switch_cost, delta2_x_switch_cost,
                       lambda p, m, x, tau: order_up_to_of_tau(p, m, tau)]

    @pytest.mark.parametrize("fn", POINT_FUNCTIONS)
    @pytest.mark.parametrize("tau", [60.0, -1.0, math.nan])
    def test_tau_outside_horizon_rejected(self, base_model, fn, tau):
        with pytest.raises(ValueError, match="tau must lie in"):
            fn(base_params(), base_model, 10, tau)

    @pytest.mark.parametrize("fn", POINT_FUNCTIONS)
    def test_horizon_ends_accepted(self, base_model, fn):
        for tau in (0.0, 50.0):
            assert np.isfinite(fn(base_params(), base_model, 10, tau))


class TestBounds:
    def test_zero_inventory_degenerate(self, base_model):
        b = switch_time_bounds(base_params(), base_model, 0)
        assert b.ub == 0.0 and b.lb == 0.0

    def test_never_satisfied_upper_bound_falls_back_to_horizon(self, base_model):
        b = switch_time_bounds(base_params(), base_model, 1200)
        assert b.ub == 50.0

    def test_sandwich_on_base_case(self, base_model):
        p = base_params()
        for x in (60, 100, 150):
            b = switch_time_bounds(p, base_model, x)
            tau_star, _ = brute_force_switch_argmin(p, base_model, x)
            assert b.lb <= tau_star + 1e-9 <= b.ub + 1e-9
        assert switch_time_bounds(p, base_model, 100).ub < 50.0  # informative, not trivial

    @pytest.mark.parametrize("step", [0.01, 0.03, 0.07, 0.5, 60.0, 120.0])
    @pytest.mark.parametrize("x", [0, 25, 100, 250])
    def test_sandwich_on_the_curve_grid(self, base_model, step, x):
        # the bounds and the argmin read one grid, whether or not step divides
        # T; a step above T (60) or above 2T (120) still gives the grid {0, T}
        p = base_params()
        b = switch_time_bounds(p, base_model, x, step=step)
        tau_star, _ = brute_force_switch_argmin(p, base_model, x, step=step)
        grid = switch_cost_curve(p, base_model, x, step=step).tau_grid
        assert b.lb <= tau_star <= b.ub
        assert b.lb in grid and b.ub in grid
        if step > 50.0:
            assert list(grid) == [0.0, 50.0]

    def test_lower_bound_needs_monotone_intensity(self):
        m = IntensityModel(horizon=3, rates=np.array([1.0, 2.0, 1.0]))
        with pytest.raises(AssumptionViolated):
            switch_time_bounds(base_params(T=3), m, 5)


class TestSolverAgreesWithAnalytics:
    """The kernel tables (closed-form Poisson integrals) and the switching
    analytics (Gauss-Legendre quadrature of Poisson cdfs) share no code; on
    the base case under ARRIVAL they must give the same numbers."""

    NO_ORDER = 1e12  # a setup cost no order can pay back
    SPEC = ModelSpec.parse("S/1/Z")

    def test_no_order_pass_equals_switch_cost(self, base_model, base_kernels):
        # an S/1/Z pass committed to epoch k that never orders holds x until
        # k, then scraps it and outsources: C(x, k)
        epochs = [0, 1, 5, 10, 25, 40, 49, 50]
        xs = [0, 1, 5, 25, 100, 250, 600]
        (V0,), _ = _backward_pass(self.SPEC, [base_kernels], [self.NO_ORDER], epochs)
        got = V0[:, 0, xs] + base_kernels.A
        want = [[switch_cost(base_kernels.params, base_model, x, k) for x in xs] for k in epochs]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("k, level", [(5, 212), (10, 335), (25, 471), (40, 496), (50, 500)])
    def test_order_up_to_level_at_zero_setup_cost(self, base_model, base_kernels, k, level):
        # at K = 0 the epoch-k pass orders from x = 0 up to the level where the
        # first-order condition c_bar + Delta_x C(x, k) >= 0 first holds
        _, (_, action, target) = _backward_pass(self.SPEC, [base_kernels], [0.0], [k], grids=True)
        z0 = self.SPEC.layers - 1
        assert action[0, 0, z0] == ORDER
        assert target[0, 0, z0] == order_up_to_of_tau(base_kernels.params, base_model, k) == level

    def test_order_pass_equals_the_best_order_over_switch_costs(self, base_model, base_kernels):
        # at K = 1000 the epoch-k pass either keeps x or orders up to some
        # y > x at time zero, paying K + c_bar (y - x), and then holds y until
        # k: V(0, x) + A = min(C(x, k), min_y K + c_bar (y - x) + C(y, k)).
        # The orders reach about 500 here, so y <= 700 covers them.
        K, x, epochs = 1000.0, 100, [20, 30, 40]
        p = kernels_with_K(base_kernels, K).params
        (V0,), _ = _backward_pass(self.SPEC, [base_kernels], [K], epochs)
        ys = np.arange(x + 1, 701)
        for i, k in enumerate(epochs):
            nodes = analytics._point_nodes(p, base_model, k)  # switch_cost's nodes, built once
            cost = [float(analytics._cost(p, y, nodes)) + base_kernels.A for y in ys]
            want = min(switch_cost(p, base_model, x, k),
                       min(K + p.c_bar * (ys - x) + cost))
            assert V0[i, 0, x] + base_kernels.A == pytest.approx(want, rel=1e-9, abs=0), k

    @given(seed=st.integers(0, 2**32 - 1))
    @hyp_settings(max_examples=30, deadline=None)
    def test_no_order_identity_on_random_instances(self, seed):
        # the no-order identity of the base case, on random models that meet
        # the checks switch_cost runs (c4 >= 0, c1 >= delta c4); k = T is T/1/Z
        params, model, _, x_max = small_instance(seed)
        assume(validate_assumptions(params, model).ok)
        kt = build_kernel_table(params, model, ARR, x_max=x_max)
        epochs = np.arange(model.horizon + 1)
        (V0,), _ = _backward_pass(self.SPEC, [kt], [self.NO_ORDER], epochs)
        xs = [0, 1, 3, 8, 20, x_max]
        want = [[switch_cost(params, model, x, k) for x in xs] for k in epochs]
        np.testing.assert_allclose(V0[:, 0, xs] + kt.A, want, rtol=1e-9, atol=0)

    @given(seed=st.integers(0, 2**32 - 1))
    @hyp_settings(max_examples=30, deadline=None)
    def test_order_up_to_level_on_random_instances(self, seed):
        # the K = 0 order-up-to identity of the base case on random models
        # that meet the checks: at x = 0 the epoch-k pass orders up to the
        # first-order level, or keeps 0 when that level is 0, and a level at
        # or past x_max is a cap hit
        params, model, _, x_max = small_instance(seed)
        assume(validate_assumptions(params, model).ok)
        kt = build_kernel_table(params, model, ARR, x_max=x_max)
        z0 = self.SPEC.layers - 1
        for k in range(1, model.horizon + 1):
            level = order_up_to_of_tau(params, model, k)
            if level >= x_max:
                with pytest.raises(CapSaturated):
                    _backward_pass(self.SPEC, [kt], [0.0], [k], grids=True)
                continue
            _, (_, action, target) = _backward_pass(self.SPEC, [kt], [0.0], [k], grids=True)
            ordered = action[0, 0, z0] == ORDER
            assert (target[0, 0, z0] if ordered else 0) == level, (k, action[0, 0, z0])

    def test_best_no_order_epoch_lies_within_the_bounds(self, base_model, base_kernels):
        kt = kernels_with_K(base_kernels, self.NO_ORDER)
        _, best_k = static_switch_values(self.SPEC, kt)
        for x in range(0, 401, 25):
            b = switch_time_bounds(kt.params, base_model, x)
            assert math.floor(b.lb) <= best_k[x] <= math.ceil(b.ub), (x, b, best_k[x])


class TestStoppingTimeDistribution:
    @given(seed=st.integers(0, 2**32 - 1), conv=st.sampled_from(LostSalesConvention))
    @hyp_settings(max_examples=25, deadline=None)
    def test_law_mass_and_region_partition_on_random_instances(self, seed, conv):
        # every D policy's stopping-time law has mass 1, and its regions
        # split 0..x_max at every epoch and budget layer
        params, model, x0, x_max = small_instance(seed)
        kt = build_kernel_table(params, model, conv, x_max=x_max)
        for label in ("D/inf/F", "D/1/F", "D/1/Z", "D/2/F"):
            res = solve(ModelSpec.parse(label), kt, x0)
            mass = stopping_time_distribution(res.policy, model, x0).mass
            assert abs(mass.sum() - 1.0) <= 1e-12, label
            for t in range(model.horizon + 1):
                for z in range(res.policy.action.shape[2]):
                    regions = np.concatenate(extract_regions(res.policy, t, z))
                    assert np.array_equal(np.sort(regions), np.arange(x_max + 1)), (label, t, z)

    def test_immediate_stop(self):
        # huge scrap revenue pull: stopping at t=0 optimal for x0 = 0
        model = IntensityModel(horizon=3, rates=np.array([0.5, 0.5, 0.5]))
        p = base_params(T=3, c2_bar=0.0, c3_bar=0.0)
        kt = build_kernel_table(p, model, ARR, x_max=10)
        res = solve(ModelSpec.parse("D/inf/F"), kt, 0)
        dist = stopping_time_distribution(res.policy, model, 0)
        assert dist.mass[0] == 1.0 and dist.mass[1:].sum() == 0.0

    def test_single_period_mass_splits(self):
        model = IntensityModel(horizon=1, rates=np.array([1.0]))
        kt = build_kernel_table(base_params(T=1), model, ARR, x_max=10)
        res = solve(ModelSpec.parse("D/inf/F"), kt, 3)
        dist = stopping_time_distribution(res.policy, model, 3)
        assert dist.mass.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("label", ["D/inf/F", "D/1/F", "D/1/Z"])
    def test_mass_sums_to_one(self, label):
        model = build_named_intensity("convex", 12, 40.0)
        kt = build_kernel_table(base_params(K=200.0, T=12), model, ARR, x_max=90)
        res = solve(ModelSpec.parse(label), kt, 5)
        dist = stopping_time_distribution(res.policy, model, 5)
        assert np.all(dist.mass >= -1e-15)
        assert dist.mass.sum() == pytest.approx(1.0, abs=1e-9)

    def test_requires_dynamic_stopping(self, base_kernels):
        res = solve(ModelSpec.parse("T/inf/F"), base_kernels, 0)
        with pytest.raises(PolicyIncompatible):
            stopping_time_distribution(res.policy, base_kernels.model, 0)

    @pytest.mark.parametrize("horizon", [40, 60])
    def test_rejects_model_of_another_horizon(self, base_kernels, horizon):
        # a longer model would run the T=50 policy on the wrong rates, a
        # shorter one would index past its own periods
        res = solve(ModelSpec.parse("D/inf/F"), base_kernels, 100)
        with pytest.raises(UnreachableState, match="horizon"):
            stopping_time_distribution(res.policy, build_named_intensity("convex", horizon, 500.0),
                                       100)

    @pytest.mark.parametrize("conv", list(LostSalesConvention))
    @pytest.mark.parametrize("label", ["D/inf/F", "D/1/F", "D/1/Z", "D/2/F"])
    def test_forward_law_matches_backward_oracle(self, label, conv):
        seen = set()
        for seed in range(8):
            params, model, _, x_max = small_instance(seed)
            kt = build_kernel_table(params, model, conv, x_max=x_max)
            res = solve(ModelSpec.parse(label), kt, 0)
            act = res.policy.action[0, :, res.policy.z0]
            for a in (STOP, ORDER, CONTINUE):  # one x0 per region at t=0
                xs = np.flatnonzero(act == a)
                if len(xs):
                    seen.add(a)
                    x0 = int(xs[len(xs) // 2])
                    got = stopping_time_distribution(res.policy, model, x0).mass
                    want = _backward_law(res.policy, model, x0)
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        assert seen == {STOP, ORDER, CONTINUE}

    @pytest.mark.parametrize("label", ["D/inf/F", "D/2/F"])
    def test_one_push_per_layer_and_period(self, label, monkeypatch):
        evs, pushes = [], []
        real_ev, real_push = _backends.ev_clamped, _backends.push_clamped
        monkeypatch.setattr(_backends, "ev_clamped", lambda *a: evs.append(1) or real_ev(*a))
        monkeypatch.setattr(_backends, "push_clamped",
                            lambda *a: pushes.append(1) or real_push(*a))
        model = build_named_intensity("convex", 12, 40.0)
        kt = build_kernel_table(base_params(K=200.0, T=12), model, ARR, x_max=90)
        res = solve(ModelSpec.parse(label), kt, 5)
        evs.clear()
        dist = stopping_time_distribution(res.policy, model, 5)
        assert dist.mass[-1] > 0  # mass reaches T, so no epoch is skipped
        assert not evs
        assert len(pushes) == 12  # one per period, every budget layer at once


def _backward_law(policy, model, x0):
    """P{tau* = m} by one backward pass per target epoch: the probability,
    per post-action state, that the first entry into the stopping region
    happens exactly at m; ordering states hand off to the order-up-to level
    one budget layer down."""
    T, X, Z = policy.horizon, policy.x_max, policy.action.shape[2]
    pmfs, tails = period_pmfs(model.rates)
    mass = np.zeros(T + 1)
    a0 = policy.action[0, x0, policy.z0]
    if a0 == STOP:
        mass[0] = 1.0
        return mass
    for m in range(1, T + 1):
        h = (policy.action[m] == STOP).astype(float)
        for t in range(m - 1, -1, -1):
            P = np.stack([_backends.ev_clamped(h[:, z], pmfs[t], tails[t]) for z in range(Z)],
                         axis=1)
            if t == 0:
                break
            h = np.zeros((X + 1, Z))
            for z in range(Z):
                act = policy.action[t, :, z]
                cont = act == CONTINUE
                h[cont, z] = P[cont, z]
                orde = np.flatnonzero(act == ORDER)
                src = z if policy.spec.order_budget is None else z - 1
                h[orde, z] = P[policy.target[t, orde, z], src]
        if a0 == ORDER:
            src = policy.z0 if policy.spec.order_budget is None else policy.z0 - 1
            mass[m] = P[policy.target[0, x0, policy.z0], src]
        else:
            mass[m] = P[x0, policy.z0]
    return mass
