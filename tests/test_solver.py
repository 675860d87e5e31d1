import dataclasses
import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from scipy.stats import poisson

from eolstop import (
    BudgetMisuse,
    CapSaturated,
    CostParameters,
    IntensityModel,
    LostSalesConvention,
    ModelSpec,
    build_kernel_table,
    build_named_intensity,
    extract_regions,
    solve,
    kernels_with_K,
    solve_values,
    static_switch_values,
)
from eolstop import _backends
from eolstop.solver import (CONTINUE, ORDER, STOP, FirstOrder, StopMode, _backward_pass,
                            _best_epoch, _check_cap, solve_policies)

from conftest import base_params, small_instance
from original_form import original_rows, solve_original_form
from scalar_kernels import _ev_clamped_loop, _ev_clamped_rows, _suffix_min_loop

ARR = LostSalesConvention.ARRIVAL

ALL_SPECS = ["D/inf/F", "D/1/F", "D/1/Z", "D/2/F", "S/inf/F", "S/1/F", "S/1/Z",
             "S/2/F", "T/inf/F", "T/1/F", "T/1/Z"]


# ---------------------------------------------------------------------------
# oracle 1: plain recursive enumeration over actions and truncated demand
# ---------------------------------------------------------------------------

def oracle_value(label, kernels, x0):
    """Scalar recursive solver: explicit loop over order quantities, explicit
    demand expectation, no vectorized machinery shared with the solver."""
    spec = ModelSpec.parse(label)
    T, X = kernels.horizon, kernels.x_max
    p = kernels.params
    disc = np.exp(-p.delta)
    pmfs, tails = kernels.pmfs, kernels.pmf_tails

    def order_ok(t, z):
        if spec.order_budget is not None and z == 0:
            return False
        return spec.first_order is FirstOrder.FREE or t == 0

    def run(stop_at):
        @lru_cache(maxsize=None)
        def V(t, x, z):
            if t >= stop_at if stop_at is not None else t == T:
                return p.c4 * x
            if t == T:
                return p.c4 * x

            def ev(y, zz):
                pmf, tail = pmfs[t], tails[t]
                total = sum(pmf[n] * V(t + 1, max(y - n, 0), zz) for n in range(len(pmf)))
                return total + tail[-1] * V(t + 1, 0, zz)

            opts = []
            if stop_at is None:
                opts.append(p.c4 * x)
            opts.append(kernels.C_tilde[t, x] + disc * ev(x, z))
            if order_ok(t, z):
                zz = z if spec.order_budget is None else z - 1
                for y in range(x + 1, X + 1):
                    opts.append(p.K + p.c_bar * (y - x)
                                + kernels.C_tilde[t, y] + disc * ev(y, zz))
            return min(opts)

        z0 = 0 if spec.order_budget is None else spec.order_budget
        return V(0, x0, z0)

    if spec.stop_mode is StopMode.DYNAMIC:
        return run(None) + kernels.A
    if spec.stop_mode is StopMode.NEVER:
        return run(T) + kernels.A
    return min(run(k) for k in range(T + 1)) + kernels.A


def tiny_kernels(seed=0, T=3, x_max=10, **overrides):
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.3, 2.5, size=T)
    model = IntensityModel(horizon=T, rates=rates)
    kw = dict(K=float(rng.choice([0.0, 30.0])), T=T)
    kw.update(overrides)
    params = base_params(**kw)
    return build_kernel_table(params, model, ARR, x_max=x_max)


class TestOracleEquivalence:
    @pytest.mark.parametrize("label", ALL_SPECS)
    def test_recursive_enumeration_matches(self, label):
        for seed in (0, 1, 2):
            kt = tiny_kernels(seed=seed)
            for x0 in (0, 2, 7):
                got = solve(ModelSpec.parse(label), kt, x0).total_cost
                want = oracle_value(label, kt, x0)
                assert got == pytest.approx(want, rel=1e-9), (label, seed, x0)

    def test_literal_policy_enumeration(self):
        # T = 2, x_max = 3: every deterministic Markov policy, expected cost
        # by explicit demand-path expansion
        X = 3
        model = IntensityModel(horizon=2, rates=np.array([0.5, 0.3]))
        params = base_params(K=0.0, T=2, c2_bar=700.0, c3_bar=100.0)
        kt = build_kernel_table(params, model, ARR, x_max=X)
        p = kt.params
        disc = np.exp(-p.delta)
        actions_per_x = {x: [("stop",), ("cont",)]
                         + [("order", y) for y in range(x + 1, X + 1)] for x in range(X + 1)}
        states = [(t, x) for t in range(2) for x in range(X + 1)]

        def policy_cost(assign, x0):
            def go(t, x):
                if t == 2:
                    return p.c4 * x
                act = assign[(t, x)]
                if act[0] == "stop":
                    return p.c4 * x
                y = x if act[0] == "cont" else act[1]
                pay = 0.0 if act[0] == "cont" else p.K + p.c_bar * (y - x)
                pmf, tail = kt.pmfs[t], kt.pmf_tails[t]
                ev = sum(pmf[n] * go(t + 1, max(y - n, 0)) for n in range(len(pmf)))
                ev += tail[-1] * go(t + 1, 0)
                return pay + kt.C_tilde[t, y] + disc * ev

            return go(0, x0)

        best = {x0: np.inf for x0 in range(X + 1)}
        for choice in itertools.product(*[actions_per_x[x] for (_, x) in states]):
            assign = dict(zip(states, choice))
            for x0 in range(X + 1):
                best[x0] = min(best[x0], policy_cost(assign, x0))
        res = solve(ModelSpec.parse("D/inf/F"), kt, 0)
        for x0 in range(X + 1):
            assert res.values_at_zero[x0] == pytest.approx(best[x0] + kt.A, rel=1e-9)


class TestReformulationEquivalence:
    def test_random_small_instances(self):
        for seed in range(12):
            params, model, x0, x_max = small_instance(seed)
            kt = build_kernel_table(params, model, ARR, x_max=x_max)
            for label in ("D/inf/F", "D/1/Z", "T/inf/F"):
                tilde = solve(ModelSpec.parse(label), kt, x0).total_cost
                orig = solve_original_form(ModelSpec.parse(label), kt, x0)
                assert orig == pytest.approx(tilde, rel=1e-6), (seed, label)

    @given(seed=st.integers(0, 2**32 - 1),
           label=st.sampled_from(["D/inf/F", "D/1/Z", "D/2/F", "T/inf/F", "T/1/Z", "S/1/Z"]))
    @hyp_settings(max_examples=40, deadline=None)
    def test_identity_holds_under_arrival(self, seed, label):
        # V = V~ + A is the arrival convention's identity; under PAPER the
        # x = 0 kernels break it (see original_form.solve_original_form)
        params, model, x0, x_max = small_instance(seed)
        kt = build_kernel_table(params, model, ARR, x_max=x_max)
        spec = ModelSpec.parse(label)
        assert solve_original_form(spec, kt, x0) == pytest.approx(
            solve(spec, kt, x0).total_cost, rel=1e-6), (seed, label)

    def test_no_outside_source_means_identical(self):
        params, model, x0, x_max = small_instance(3)
        params = CostParameters(**{**params.__dict__, "c3_bar": 0.0})
        kt = build_kernel_table(params, model, ARR, x_max=x_max)
        assert kt.A == 0.0
        spec = ModelSpec.parse("D/inf/F")
        assert solve_original_form(spec, kt, x0) == pytest.approx(
            solve(spec, kt, x0).total_cost, rel=1e-12)

    def test_one_period_hand_rolled(self):
        # T = 1: V(0,0) = min{S(0,0), min_m c(m) + C(0,m) + e^-d * c4 E[(m-D)+]}
        kt = tiny_kernels(seed=9, T=1, x_max=10)
        p = kt.params
        pmf, tail = kt.pmfs[0], kt.pmf_tails[0]
        C = original_rows(kt)[2]
        S00 = p.c4 * 0 + kt.stop_tail[0]
        best = S00
        for m in range(0, 11):
            surplus = sum(pmf[n] * max(m - n, 0) for n in range(len(pmf)))
            cost = (0.0 if m == 0 else p.K + p.c_bar * m)
            cost += C[0, m] + np.exp(-p.delta) * p.c4 * surplus
            best = min(best, cost)
        assert solve_original_form(ModelSpec.parse("D/inf/F"), kt, 0) == pytest.approx(
            best, rel=1e-12)


def _runs(where):
    """The runs of consecutive indices where ``where`` holds."""
    idx = np.flatnonzero(where)
    return np.split(idx, np.flatnonzero(np.diff(idx) != 1) + 1) if len(idx) else []


def _assert_one_order_level(policy, t, z, where):
    """At (t, z) the order set is one run with one order-up-to level."""
    order = policy.action[t, :, z] == ORDER
    assert len(_runs(order)) <= 1, where
    assert len(np.unique(policy.target[t, order, z])) <= 1, where


class TestStructure:
    KS = [0.0, 1000.0, 5000.0]

    def test_terminal_condition(self, base_kernels):
        res = solve(ModelSpec.parse("D/inf/F"), base_kernels, 0)
        x = np.arange(base_kernels.x_max + 1)
        assert np.allclose(res.value_grid.V[-1, :, 0], 25.0 * x)

    def test_zero_cost_when_nothing_to_pay(self, base_model):
        # never stop, positive setup cost, no penalties: never order, pay nothing
        p = base_params(K=1000.0, c2_bar=0.0, c3_bar=0.0)
        kt = build_kernel_table(p, base_model, ARR, x_max=50)
        assert solve(ModelSpec.parse("T/inf/F"), kt, 0).total_cost == pytest.approx(0.0, abs=1e-9)

    def test_value_never_exceeds_stopping(self, base_kernels):
        res = solve(ModelSpec.parse("D/inf/F"), base_kernels, 0)
        x = np.arange(base_kernels.x_max + 1)
        assert np.all(res.value_grid.V[:, :, 0] <= 25.0 * x[None, :] + 1e-9)

    def test_flexibility_dominance(self, base_kernels):
        from eolstop.config import kernels_with_K

        kt = kernels_with_K(base_kernels, 1000.0)
        vals = {}
        for label in ("D/inf/F", "D/2/F", "D/1/F", "D/1/Z", "S/1/Z", "T/1/Z", "T/inf/F"):
            spec = ModelSpec.parse(label)
            if spec.stop_mode is StopMode.STATIC:
                v, _ = static_switch_values(spec, kt)
            else:
                v = solve(spec, kt, 250).values_at_zero
            vals[label] = v[[0, 100, 250]]
        eps = 1e-7
        assert np.all(vals["D/inf/F"] <= vals["D/2/F"] + eps)
        assert np.all(vals["D/2/F"] <= vals["D/1/F"] + eps)
        assert np.all(vals["D/1/F"] <= vals["D/1/Z"] + eps)
        assert np.all(vals["D/1/Z"] <= vals["S/1/Z"] + eps)
        assert np.all(vals["S/1/Z"] <= vals["T/1/Z"] + eps)
        assert np.all(vals["D/inf/F"] <= vals["T/inf/F"] + eps)

    @given(seed=st.integers(0, 2**32 - 1), conv=st.sampled_from(list(LostSalesConvention)))
    @hyp_settings(max_examples=100, deadline=None)
    def test_flexibility_dominance_on_random_instances(self, seed, conv):
        # each chain adds a restriction, so no starting inventory can gain by it
        params, model, _, x_max = small_instance(seed)
        kt = build_kernel_table(params, model, conv, x_max=x_max)
        chains = [("D/inf/F", "D/2/F", "D/1/F", "D/1/Z", "S/1/Z", "T/1/Z"),
                  ("D/inf/F", "T/inf/F", "T/1/Z")]
        vals = {label: solve_values(ModelSpec.parse(label), kt, [params.K])[0]
                for label in {label for chain in chains for label in chain}}
        for chain in chains:
            for a, b in itertools.pairwise(chain):
                slack = 1e-9 * np.maximum(1.0, np.abs(vals[b]))
                assert np.all(vals[a] <= vals[b] + slack), (seed, conv, a, b)

    def test_region_partition(self, base_kernels):
        res = solve(ModelSpec.parse("D/inf/F"), base_kernels, 0)
        X = base_kernels.x_max
        for t in range(base_kernels.horizon + 1):
            stop, order, cont = extract_regions(res.policy, t)
            all_x = np.concatenate([stop, order, cont])
            assert len(all_x) == X + 1
            assert len(np.unique(all_x)) == X + 1

    @pytest.mark.parametrize("z", [-1, 3])
    def test_layer_outside_the_table_is_rejected(self, z):
        # D/2/F has layers 0..2; a negative z must not wrap to the last one
        res = solve(ModelSpec.parse("D/2/F"), tiny_kernels(seed=2, T=3, x_max=10), 0)
        with pytest.raises(ValueError, match="z must lie in 0..2"):
            extract_regions(res.policy, 0, z)

    def test_regions_match_value_comparisons(self):
        # recompute each epoch's continuation G and best order J from V at
        # t+1, one scalar at a time, and check the choice in every region
        kt = tiny_kernels(seed=11, T=4, x_max=12)
        res = solve(ModelSpec.parse("D/inf/F"), kt, 0)
        V, p, X = res.value_grid.V[:, :, 0], kt.params, kt.x_max
        scrap = p.c4 * np.arange(X + 1)
        for t in range(kt.horizon):
            G = (np.exp(-p.delta) * _ev_clamped_loop(V[t + 1], kt.pmfs[t], kt.pmf_tails[t])
                 + kt.C_tilde[t])
            J = np.array([min((p.K + p.c_bar * (y - x) + G[y] for y in range(x + 1, X + 1)),
                              default=np.inf) for x in range(X + 1)])
            tol = 1e-9 * np.abs(G).max()
            stop, order, cont = extract_regions(res.policy, t)
            assert np.all(scrap[stop] <= np.minimum(G, J)[stop] + tol)
            assert np.all(J[order] < np.minimum(scrap, G)[order] + tol)
            assert np.all(G[cont] < np.minimum(scrap, J + tol)[cont] + tol)
            np.testing.assert_allclose(V[t], np.minimum(np.minimum(G, J), scrap), rtol=0, atol=tol)

    def test_order_targets_exceed_state(self, base_kernels):
        from eolstop.config import kernels_with_K

        res = solve(ModelSpec.parse("D/inf/F"), kernels_with_K(base_kernels, 1000.0), 0)
        pol = res.policy
        t, x = np.nonzero(pol.action[:, :, pol.z0] == ORDER)
        assert len(t)
        assert np.all(pol.target[t, x, pol.z0] > x)

    def test_never_stop_sS_structure(self):
        # K > 0, no stopping: per period the order set is a down-closed
        # interval with one order-up-to level
        model = build_named_intensity("constant", 10, 30.0)
        params = base_params(K=50.0, T=10)
        kt = build_kernel_table(params, model, ARR, x_max=60)
        res = solve(ModelSpec.parse("T/inf/F"), kt, 0)
        for t in range(10):
            _, order, _ = extract_regions(res.policy, t)
            if len(order) == 0:
                continue
            assert order[0] == 0 and np.array_equal(order, np.arange(len(order)))
            levels = {res.policy.target[t, x, 0] for x in order}
            assert len(levels) == 1

    def test_base_stock_when_no_setup_cost(self):
        model = build_named_intensity("constant", 10, 30.0)
        params = base_params(K=0.0, T=10)
        kt = build_kernel_table(params, model, ARR, x_max=60)
        res = solve(ModelSpec.parse("T/inf/F"), kt, 0)
        for t in range(10):
            _, order, _ = extract_regions(res.policy, t)
            if len(order) == 0:
                continue
            levels = {int(res.policy.target[t, x, 0]) for x in order}
            assert len(levels) == 1
            s = levels.pop()
            assert np.array_equal(order, np.arange(s))  # order iff x < base stock

    @pytest.mark.parametrize("sid", [1, 9, 64, 113, 125, 128])
    def test_policy_shape_on_paper_settings(self, sid):
        # after Scarf (1960): at every (t, z) the order set is one run with one
        # order-up-to level, and the stop set one run at an end of the grid
        # or two, [0, b] and [a, x_max]
        kt = _setting_kernels(sid)
        X = kt.x_max
        for label in ("D/inf/F", "T/inf/F", "D/2/F"):
            for K, (res,) in zip(self.KS, solve_policies(ModelSpec.parse(label), kt, self.KS, [0])):
                action = res.policy.action
                for t, z in itertools.product(range(kt.horizon + 1), range(action.shape[2])):
                    where = (label, K, t, z)
                    _assert_one_order_level(res.policy, t, z, where)
                    stop = _runs(action[t, :, z] == STOP)
                    assert (len(stop) == 0
                            or len(stop) == 1 and (stop[0][0] == 0 or stop[0][-1] == X)
                            or len(stop) == 2 and stop[0][0] == 0 and stop[1][-1] == X), where

    @pytest.mark.parametrize("conv", list(LostSalesConvention))
    def test_one_order_level_on_random_instances(self, conv):
        # unlimited orders keep the one-level form on random instances: at
        # every (t, z) the order set is one run with one order-up-to level
        for seed, label in itertools.product(range(100), ("T/inf/F", "D/inf/F")):
            params, model, x0, x_max = small_instance(seed)
            kt = build_kernel_table(params, model, conv, x_max=x_max)
            pol = solve(ModelSpec.parse(label), kt, x0).policy
            for t in range(pol.horizon + 1):
                _assert_one_order_level(pol, t, 0, (seed, label, t))

    @pytest.mark.parametrize("label", ["T/inf/F", "D/inf/F"])
    def test_order_ties_continue(self, label):
        # no demand, K = 0, delta = 0 and a last cost row of -(c_bar + c4) x
        # make V(t, x) = -c_bar x for t < T, so every order from x costs
        # exactly what continuing does; ties continue, so nothing is ordered
        T, X = 3, 10
        model = IntensityModel(horizon=T, rates=np.zeros(T))
        kt = build_kernel_table(base_params(T=T, delta=0.0), model, ARR, x_max=X)
        C = np.zeros((T, X + 1))
        C[-1] = -(kt.params.c_bar + kt.params.c4) * np.arange(X + 1)
        pol = solve(ModelSpec.parse(label), dataclasses.replace(kt, C_tilde=C), 0).policy
        assert not (pol.action == ORDER).any()

    def test_stopping_can_break_the_sS_form(self):
        # a counterexample to the one-level form above once stopping is
        # allowed: at t = 0 with its one order left, seed 253's D/1/Z policy
        # orders from 2-4 up to 5 and from 6-8 up to 9, and continues at 5
        params, model, x0, x_max = small_instance(253)
        kt = build_kernel_table(params, model, ARR, x_max=x_max)
        pol = solve(ModelSpec.parse("D/1/Z"), kt, x0).policy
        act, tgt = pol.action[0, :10, pol.z0], pol.target[0, :10, pol.z0]
        assert act.tolist() == [STOP] * 2 + [ORDER] * 3 + [CONTINUE] + [ORDER] * 3 + [CONTINUE]
        assert tgt[act == ORDER].tolist() == [5, 5, 5, 9, 9, 9]


class TestSpecValidation:
    def test_unlimited_zero_only_rejected(self):
        with pytest.raises(BudgetMisuse):
            ModelSpec.parse("D/inf/Z")

    def test_parse_round_trip(self):
        for label in ALL_SPECS:
            assert ModelSpec.parse(label).label == label.replace("inf", "inf")

    def test_bad_labels(self):
        for bad in ("X/1/F", "D/0/F", "D/one/F", "D/1", "D/1/Q"):
            with pytest.raises(BudgetMisuse):
                ModelSpec.parse(bad)

    def test_budget_monotone(self):
        kt = tiny_kernels(seed=6, T=4, x_max=12, K=30.0)
        v1 = solve(ModelSpec.parse("D/1/F"), kt, 2).total_cost
        v2 = solve(ModelSpec.parse("D/2/F"), kt, 2).total_cost
        v3 = solve(ModelSpec.parse("D/3/F"), kt, 2).total_cost
        assert v3 <= v2 + 1e-9 and v2 <= v1 + 1e-9

    @given(seed=st.integers(0, 2**32 - 1), X=st.integers(1, 8), rows=st.integers(1, 4),
           stops=st.booleans())
    @hyp_settings(max_examples=200, deadline=None)
    def test_cap_check_matches_the_argmin(self, seed, X, rows, stops):
        # small integers make ties in f, J, G and the stop vector common; the
        # check must flag a row exactly when one of its taken orders has the
        # smallest-index argmin (the scalar scan) X
        rng = np.random.default_rng(seed)
        f = rng.integers(0, 4, size=(rows, X + 1)).astype(float)
        cy = rng.integers(0, 2) * np.arange(X + 1.0)
        J = rng.integers(0, 3) + _backends.suffix_min(f)[:, 1:] - cy[:-1]
        G = rng.integers(0, 8, size=(rows, X + 1)).astype(float)
        stop = rng.integers(0, 8, size=X + 1).astype(float) if stops else None
        want = np.zeros(rows, dtype=bool)
        for r, (fr, Jr, Gr) in enumerate(zip(f, J, G)):
            args = _suffix_min_loop(fr)[1]
            for x in range(X):
                taken = Jr[x] < Gr[x] and (stop is None or Jr[x] < stop[x])
                want[r] |= taken and args[x + 1] == X
        assert np.array_equal(_check_cap(f, J, G, stop), want)

    @given(seed=st.integers(0, 2**32 - 1), x_max=st.integers(1, 6),
           idle=st.lists(st.booleans(), min_size=6, max_size=6))
    @hyp_settings(max_examples=25, deadline=None)
    def test_cap_saturated_exactly_when_an_order_targets_the_cap(self, seed, x_max, idle):
        params, model, _, _ = small_instance(seed, T_max=6)
        params = dataclasses.replace(params, **{f: float(round(getattr(params, f))) for f in
                                                ("c_bar", "K", "c1", "c2_bar", "c3_bar", "c4")})
        rates = np.where(idle[:model.horizon], 0.0, np.round(model.rates))
        kt = build_kernel_table(params, IntensityModel(horizon=model.horizon, rates=rates), ARR,
                                x_max=x_max)
        for label in ("D/inf/F", "D/2/F", "D/1/Z", "S/1/Z", "T/inf/F"):
            spec = ModelSpec.parse(label)
            want = _order_reaches_cap(spec, kt)
            for run in (lambda: solve(spec, kt, 0), lambda: solve_values(spec, kt, [params.K])):
                try:
                    run()
                    got = False
                except CapSaturated:
                    got = True
                assert got == want, label

    def test_cap_saturated(self):
        # strong penalty, demand far above the cap: optimum wants the cap
        model = IntensityModel(horizon=3, rates=np.array([6.0, 6.0, 6.0]))
        params = base_params(K=0.0, T=3, c2_bar=5000.0)
        kt = build_kernel_table(params, model, ARR, x_max=8)
        with pytest.raises(CapSaturated):
            solve(ModelSpec.parse("T/inf/F"), kt, 0)
        with pytest.raises(CapSaturated):  # the value-only pass checks the cap too
            solve_values(ModelSpec.parse("T/inf/F"), kt, [0.0, 1000.0])


def _order_reaches_cap(spec, kt):
    """Reference for CapSaturated: run the recursion of ``solve`` one layer
    and one inventory level at a time (every switch epoch of an S model) and
    report whether some taken order goes up to x_max, its target the
    smallest-index argmin of ``_suffix_min_loop``."""
    p, T, X = kt.params, kt.horizon, kt.x_max
    y = np.arange(X + 1.0)
    scrap, cy = p.c4 * y, p.c_bar * y
    Z, lo = spec.layers, (0 if spec.order_budget is None else 1)
    stops = spec.stop_mode is StopMode.DYNAMIC
    for k in (range(T + 1) if spec.stop_mode is StopMode.STATIC else [T]):
        V = np.tile(scrap, (Z, 1))
        for t in range(k - 1, -1, -1):
            G = kt.C_tilde[t] + np.exp(-p.delta) * np.array(
                [_ev_clamped_loop(v, kt.pmfs[t], kt.pmf_tails[t]) for v in V])
            V = G.copy()
            for z in range(lo, Z if t == 0 or spec.first_order is FirstOrder.FREE else lo):
                mins, args = _suffix_min_loop(cy + G[z - lo])
                for x in range(X):
                    J = p.K + mins[x + 1] - cy[x]
                    if J < G[z, x] and not (stops and scrap[x] <= J):
                        if args[x + 1] == X:
                            return True
                        V[z, x] = J
            if stops:
                V = np.minimum(V, scrap)
    return False


class TestStaticModels:
    def test_single_order_at_zero_matches_two_stage(self):
        # D/1/Z == outer minimization over the time-zero order on the
        # no-ordering chain
        kt = tiny_kernels(seed=13, T=5, x_max=15)
        p = kt.params
        spec_noorder = ModelSpec.parse("D/1/Z")
        chain = solve(ModelSpec.parse("D/1/F"), kt, 0)  # for z=0 no-order values
        v_chain = chain.value_grid.V[0, :, 0]  # z = 0: can never order
        best = np.inf
        for m in range(kt.x_max + 1):
            pay = 0.0 if m == 0 else p.K + p.c_bar * m
            best = min(best, pay + v_chain[m])
        got = solve(spec_noorder, kt, 0).total_cost
        assert got == pytest.approx(best + kt.A, rel=1e-12)

    def test_switch_epoch_recorded_and_consistent(self, base_kernels):
        res = solve(ModelSpec.parse("S/1/Z"), base_kernels, 100)
        assert res.policy.switch_epoch is not None
        vals, ks = static_switch_values(ModelSpec.parse("S/1/Z"), base_kernels)
        assert res.total_cost == pytest.approx(vals[100], rel=1e-12)
        assert ks[100] == res.policy.switch_epoch

    @pytest.mark.parametrize("label", ["S/1/Z", "S/2/F", "S/inf/F"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, "tied"])
    def test_switch_epoch_batch_equals_single_epoch_passes(self, label, seed):
        # one pass over every switch epoch gives what one pass per epoch
        # gives, the earliest epoch winning ties
        if seed == "tied":  # demand-free periods: at x=0 several epochs cost the same
            model = IntensityModel(horizon=5, rates=np.array([0.0, 2.0, 0.0, 0.0, 1.0]))
            params, x_max = base_params(K=50.0, T=5), 12
        else:
            params, model, _, x_max = small_instance(seed)
        kt = build_kernel_table(params, model, ARR, x_max=x_max)
        spec, T = ModelSpec.parse(label), kt.horizon
        best = np.full(x_max + 1, np.inf)
        best_k = np.zeros(x_max + 1, dtype=np.int64)
        for k in range(T + 1):
            (V0,), _ = _backward_pass(spec, [kt], [params.K], [k])
            v = V0[0, 0]
            better = v < best
            best[better], best_k[better] = v[better], k
        got, got_k = _best_epoch(spec, kt, [params.K])
        assert np.array_equal(got[0], best) and np.array_equal(got_k[0], best_k)
        vals, epochs = static_switch_values(spec, kt)
        assert np.array_equal(vals, best + kt.A) and np.array_equal(epochs, best_k)

    def test_static_between_dynamic_and_never(self, base_kernels):
        d = solve(ModelSpec.parse("D/inf/F"), base_kernels, 0).total_cost
        s = solve(ModelSpec.parse("S/inf/F"), base_kernels, 0).total_cost
        t = solve(ModelSpec.parse("T/inf/F"), base_kernels, 0).total_cost
        assert d <= s + 1e-9 <= t + 2e-9

    def test_switch_vs_stop_reference_cells(self):
        # S/1/Z vs D/1/Z at (x=0, K=0): the sweep's extreme settings
        from eolstop.settings import setting_cost_params, setting_from_id, setting_intensity

        want = {24: 8.9, 111: 2.1}
        for sid, ref in want.items():
            s = setting_from_id(sid)
            kt = build_kernel_table(setting_cost_params(s, K=0.0), setting_intensity(s),
                                    ARR, x_max=1200)
            sv, _ = static_switch_values(ModelSpec.parse("S/1/Z"), kt)
            d1 = solve(ModelSpec.parse("D/1/Z"), kt, 0).total_cost
            assert 100 * (sv[0] - d1) / d1 == pytest.approx(ref, abs=0.3)


class TestSolveValues:
    KS = [0.0, 20.0, 200.0, 20.0]

    @pytest.mark.parametrize("label", ["D/1/Z", "D/2/Z", "T/1/Z", "D/inf/F", "D/3/F", "S/1/Z"])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_per_K_solves(self, label, seed):
        params, model, _, x_max = small_instance(seed)
        kt = build_kernel_table(params, model, ARR, x_max=x_max)
        spec = ModelSpec.parse(label)
        got = solve_values(spec, kt, self.KS)
        assert got.shape == (len(self.KS), x_max + 1)
        for K, row in zip(self.KS, got):
            k = kernels_with_K(kt, K)
            res = solve(spec, k, 0)
            if spec.stop_mode is StopMode.STATIC:
                want, epochs = static_switch_values(spec, k)
                assert np.array_equal(res.switch_values, want)
                assert res.policy.switch_epoch == epochs[0]
            else:
                want = res.values_at_zero
                assert res.switch_values is None
            assert np.array_equal(row, want)

    def test_layers_that_cannot_order_hold_the_no_order_chain(self):
        # at t >= 1 no layer of D/2/Z may order, so each holds the chain that
        # the never-ordering layer z=0 of D/1/F holds, with the same actions
        kt = tiny_kernels(seed=5, T=5, x_max=15)
        zero_only = solve(ModelSpec.parse("D/2/Z"), kt, 0)
        chain = solve(ModelSpec.parse("D/1/F"), kt, 0)
        for z in range(3):
            assert np.array_equal(zero_only.value_grid.V[1:, :, z], chain.value_grid.V[1:, :, 0])
            assert np.array_equal(zero_only.policy.action[1:, :, z], chain.policy.action[1:, :, 0])

    @pytest.mark.parametrize("label, steps", [("D/1/Z", lambda T: T),
                                              ("D/inf/F", lambda T: 3 * T - 2),
                                              ("D/1/F", lambda T: 4 * T - 3),
                                              ("D/2/F", lambda T: 7 * T - 6)])
    def test_no_order_chain_computed_once(self, label, steps, monkeypatch):
        # layers that cannot order yet share one column for every K; the
        # first step of an .../F model is still shared, as all layers hold
        # the seed.  After it a finite budget's last layer is one K-free
        # column: 1 + 3 b columns at 3 K.  One expectation call per epoch,
        # on all its rows.
        rows = []
        real = _backends.ev_clamped
        monkeypatch.setattr(_backends, "ev_clamped",
                            lambda V, *a: rows.append(V.size // V.shape[-1]) or real(V, *a))
        kt = tiny_kernels(seed=3, T=6, x_max=20)
        solve_values(ModelSpec.parse(label), kt, [0.0, 20.0, 200.0])
        assert len(rows) == 6
        assert sum(rows) == steps(6)

    # "<setting id>/<label>" -> sha256 of the solve_values array at K {0,
    # 1000, 5000} and x_max 1200, as float64 bytes; the same with
    # OPENBLAS_NUM_THREADS 1 and 2
    PINNED_VALUES = {
        "1/D/1/Z": "fa4472623a32aee934d9ecfb77567f93a85ae2f80d466d48870414a35839b162",
        "1/D/inf/F": "cd53f8e207a58d4a3897da2537fccdd27bb6dce43f4e7f4fe8d5f602e34b50de",
        "1/D/2/F": "8bcafdb3bcb58495ad238359d8828a47ce2e73e9f8904f4ad3859393b087cf4e",
        "1/S/1/Z": "d74c7b83a0248405a311ea41c6ffc6c7f8b29e868789fa18002b7a130874ce72",
        "1/T/inf/F": "fced83410750b7c62bfba0637255bc87f1b4a7bf31e546ea9005979e6df960c1",
        "62/D/1/Z": "b5a9bcbfe556168470796a05f48c62c31a1d18341bf9c264e610539b60348577",
        "62/D/inf/F": "2766a067234b60f58eb0d8d31be64d21f14af14079388e213b4a6cde40046310",
        "62/D/2/F": "e6196bc0a61d8e63a45d24e5869c28e3cf1808d2501ac837c87fb1eddecf8157",
        "62/S/1/Z": "bc3ec6f41bb78dd6ba4986317be7469969edf094caaa4107d1e8d2db2795dee2",
        "62/T/inf/F": "98e00cb2c0aea14014eb59bef54c7f528f4bae5d043eb57c4016d95cafd0fcd6",
        "125/D/1/Z": "0f6bbab72eec881f45a8d9e9c1ecb74def6ca706ff247d25de0ba644a36dbc86",
        "125/D/inf/F": "20dcdda61f7922a1bd8bc8e3fcfc2f52130dc588f27e8e3513de759a40eafbff",
        "125/D/2/F": "b9302ea1ee53faa53029a54818d0f8a8f558ff3e738e543b365d6fe9a81f78d0",
        "125/S/1/Z": "9ffff4becef4103b85d910ebb2fea16e6fd0c010056c7f9a00bf7170f25593d3",
        "125/T/inf/F": "8133ce098c3f2050ef6193cbb54815a53ac9a2d0bc2afbfac286dc6e8c26e5d1",
    }

    @pytest.mark.parametrize("case", sorted(PINNED_VALUES))
    def test_values_are_pinned(self, case, monkeypatch):
        import hashlib

        sid, label = case.split("/", 1)
        spec, kt, Ks = ModelSpec.parse(label), _setting_kernels(int(sid)), [0.0, 1000.0, 5000.0]
        got = solve_values(spec, kt, Ks)
        assert hashlib.sha256(got.tobytes()).hexdigest() == self.PINNED_VALUES[case]
        # the pinned bits are the blocked product's; the loop oracle's sums agree
        monkeypatch.setattr(_backends, "ev_clamped", _ev_clamped_rows)
        np.testing.assert_allclose(got, solve_values(spec, kt, Ks), rtol=1e-12, atol=0)


def _assert_same_result(got, want):
    """Every array bit for bit, every scalar with ==."""
    for a, b in [(got.value_grid.V, want.value_grid.V), (got.policy.action, want.policy.action),
                 (got.policy.target, want.policy.target)]:
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.total_cost == want.total_cost and got.value_grid.A == want.value_grid.A
    assert (got.policy.switch_epoch, got.policy.z0) == (want.policy.switch_epoch, want.policy.z0)
    if want.switch_values is None:
        assert got.switch_values is None
    else:
        assert np.array_equal(got.switch_values, want.switch_values)


class TestSolvePolicies:
    """One policy pass serves every K and x0: each (K, x0)'s result is its own
    solve's."""

    LABELS = ["D/inf/F", "D/2/F", "D/1/Z", "T/1/Z", "S/1/Z", "S/2/F"]

    @staticmethod
    def _check(spec, kt, Ks, x0s):
        got = solve_policies(spec, kt, Ks, x0s)
        assert [len(row) for row in got] == [len(x0s)] * len(Ks)
        for K, row in zip(Ks, got):
            for x0, res in zip(x0s, row):
                _assert_same_result(res, solve(spec, kernels_with_K(kt, K), x0))
        # results that share a (K, epoch) share their grids
        for row in got:
            for a, b in itertools.combinations(row, 2):
                same = a.policy.switch_epoch == b.policy.switch_epoch
                assert all(np.shares_memory(g, h) == same for g, h in zip(
                    (a.value_grid.V, a.policy.action, a.policy.target),
                    (b.value_grid.V, b.policy.action, b.policy.target)))
        return got

    @pytest.mark.parametrize("label", LABELS)
    @pytest.mark.parametrize("seed", range(4))
    def test_small_instances(self, label, seed):
        params, model, _, x_max = small_instance(seed)
        kt = build_kernel_table(params, model, ARR, x_max=x_max)
        self._check(ModelSpec.parse(label), kt, [0.0, 20.0, 200.0],
                    [seed * x_max // 4, 0, x_max])

    @pytest.mark.parametrize("label", LABELS)
    def test_base_case(self, label, base_kernels):
        self._check(ModelSpec.parse(label), base_kernels, [0.0, 1000.0, 5000.0], [100, 0, 250])

    def test_static_K_choose_different_epochs(self, monkeypatch):
        # the CLI tests' T = 8 model: at K = 2000 the x0 9, 0 and 20 commit to
        # epochs 1, 0 and 3, and at x0 = 20 the two K to different epochs;
        # the one grids pass has a row per epoch chosen
        from eolstop import solver

        rows, real = [], solver._backward_pass

        def counted(spec, tables, Ks, epochs, **kw):
            if kw.get("grids"):
                rows.append(list(epochs))
            return real(spec, tables, Ks, epochs, **kw)

        model = build_named_intensity("convex", 8, 24.0)
        kt = build_kernel_table(base_params(T=8), model, ARR, x_max=60)
        spec, Ks, x0s = ModelSpec.parse("S/1/Z"), [200.0, 2000.0], [9, 0, 20]
        monkeypatch.setattr(solver, "_backward_pass", counted)
        got = solve_policies(spec, kt, Ks, x0s)
        monkeypatch.undo()
        self._check(spec, kt, Ks, x0s)
        assert [res.policy.switch_epoch for res in got[1]] == [1, 0, 3]
        assert got[0][2].policy.switch_epoch != got[1][2].policy.switch_epoch
        assert rows == [sorted({res.policy.switch_epoch for row in got for res in row})]

    @pytest.mark.parametrize("label", ["D/2/F", "S/1/Z", "D/inf/F"])
    def test_repeated_K(self, label):
        params, model, _, x_max = small_instance(1)
        kt = build_kernel_table(params, model, ARR, x_max=x_max)
        got = self._check(ModelSpec.parse(label), kt, [200.0, 0.0, 200.0], [3])
        _assert_same_result(got[0][0], got[2][0])

    @pytest.mark.parametrize("label", ["D/2/F", "S/1/Z"])
    def test_one_K_grids_are_views_of_the_pass(self, label, monkeypatch):
        from eolstop import solver

        passes = []
        real = solver._backward_pass
        monkeypatch.setattr(solver, "_backward_pass",
                            lambda *a, **kw: passes.append(real(*a, **kw)) or passes[-1])
        params, model, _, x_max = small_instance(2)
        kt = build_kernel_table(params, model, ARR, x_max=x_max)
        res = solve(ModelSpec.parse(label), kt, 3)
        grids = passes[-1][1]  # the grids pass comes after an S model's sweep
        assert all(np.shares_memory(g, r) for g, r in zip(
            grids, (res.value_grid.V, res.policy.action, res.policy.target)))

    def test_one_K_at_the_cap_raises(self):
        # demand far above the cap: at K = 0 the optimum orders up to x_max,
        # while a setup cost that dwarfs every other cost never orders
        model = IntensityModel(horizon=3, rates=np.array([6.0, 6.0, 6.0]))
        kt = build_kernel_table(base_params(K=0.0, T=3, c2_bar=5000.0), model, ARR, x_max=8)
        spec = ModelSpec.parse("T/inf/F")
        solve(spec, kernels_with_K(kt, 1e12), 0)
        with pytest.raises(CapSaturated):
            solve(spec, kt, 0)
        with pytest.raises(CapSaturated):
            solve_policies(spec, kt, [1e12, 0.0], [0])

    @pytest.mark.parametrize("x0s", [[], [0, 61], [-1]])
    def test_bad_starts_raise(self, x0s):
        kt = tiny_kernels(seed=1, T=3, x_max=60)
        with pytest.raises(ValueError, match="x0s must list starts in 0..60"):
            solve_policies(ModelSpec.parse("S/1/Z"), kt, [0.0], x0s)


def _shared_intensity_tables(ids, x_max=1200):
    """Kernel tables of the given settings, all on the first one's intensity
    (setting ids that share kind and horizon share it)."""
    from eolstop.settings import setting_cost_params, setting_from_id, setting_intensity

    model = setting_intensity(setting_from_id(ids[0]))
    return [build_kernel_table(setting_cost_params(setting_from_id(sid), 0.0), model, ARR,
                               x_max=x_max) for sid in ids]


class TestTableBatch:
    """Tables that share an intensity go through one backward pass."""

    KS = [0.0, 1000.0, 5000.0]

    @pytest.mark.parametrize("label", ["D/1/Z", "D/inf/F", "D/2/F", "T/1/Z", "S/1/Z"])
    @pytest.mark.parametrize("first", [1, 113])
    def test_batch_equals_per_table(self, first, label):
        # settings first..first+15 share kind and horizon: solve_values at
        # three K, and for S models, which solve_values runs one table at a
        # time, the pass itself at one K, the switch-epoch axis riding along
        # as two epochs
        tables = _shared_intensity_tables(range(first, first + 16))
        spec, T = ModelSpec.parse(label), tables[0].horizon
        if spec.stop_mode is not StopMode.STATIC:
            got = solve_values(spec, tables, self.KS)
            assert got.shape == (16, 3, 1201)
            for kt, rows in zip(tables, got):
                assert np.array_equal(rows, solve_values(spec, kt, self.KS))
            return
        V0, _ = _backward_pass(spec, tables, [1000.0], [T // 2, T])
        for kt, v in zip(tables, V0):
            (want,), _ = _backward_pass(spec, [kt], [1000.0], [T // 2, T])
            assert np.array_equal(v, want)

    @pytest.mark.parametrize("label", ["S/1/Z", "S/2/F", "D/2/F"])
    def test_list_of_small_tables(self, label):
        params, model, _, x_max = small_instance(7)
        tables = [build_kernel_table(dataclasses.replace(params, c4=c4, c_bar=c_bar, delta=d),
                                     model, conv, x_max=x_max)
                  for c4, c_bar, d, conv in [(25.0, 80.0, 0.0, ARR), (-25.0, 120.0, 0.02, ARR),
                                             (0.0, 100.0, 0.005, LostSalesConvention.PAPER)]]
        spec = ModelSpec.parse(label)
        got = solve_values(spec, tables, self.KS)
        assert got.shape == (3, len(self.KS), x_max + 1)
        for kt, rows in zip(tables, got):
            assert np.array_equal(rows, solve_values(spec, kt, self.KS))

    @pytest.mark.parametrize("ids, x_maxes", [([1, 17], [300, 300]), ([1, 1], [300, 200]),
                                              ([1, 33], [300, 300])],
                             ids=["horizon", "x_max", "rates"])  # 33: concave, 1: convex
    def test_tables_must_share_the_intensity_and_grid(self, ids, x_maxes):
        tables = [_shared_intensity_tables([sid], x_max=x)[0] for sid, x in zip(ids, x_maxes)]
        with pytest.raises(ValueError, match="share"):
            solve_values(ModelSpec.parse("D/inf/F"), tables, self.KS)
        with pytest.raises(ValueError):
            solve_values(ModelSpec.parse("D/inf/F"), [], self.KS)

    def test_cap_checked_on_every_table(self):
        # D/1/Z orders up to 470 on setting 1 and up to 490 on setting 8 at t = 0
        fits, capped = _shared_intensity_tables([1, 8], x_max=480)
        spec = ModelSpec.parse("D/1/Z")
        solve_values(spec, [fits], self.KS)
        with pytest.raises(CapSaturated, match="epoch 0"):
            solve_values(spec, [fits, capped], self.KS)

    @pytest.mark.parametrize("label, x_max", [("D/1/Z", 480), ("S/1/Z", 520)])
    def test_cap_error_lists_the_tables_that_hit_it(self, label, x_max):
        # setting 1 fits at this x_max and setting 8 does not; S specs run one
        # pass per table, and either way every table that hits is named by its
        # place in the list
        fits, capped = _shared_intensity_tables([1, 8], x_max=x_max)
        spec = ModelSpec.parse(label)
        solve_values(spec, [fits], self.KS)
        for tables, hit in [([fits, capped], (1,)), ([capped, fits, capped], (0, 2))]:
            with pytest.raises(CapSaturated) as info:
                solve_values(spec, tables, self.KS)
            assert info.value.tables == hit


@lru_cache(maxsize=None)
def _setting_kernels(sid):
    from eolstop.settings import setting_cost_params, setting_from_id, setting_intensity

    s = setting_from_id(sid)
    return build_kernel_table(setting_cost_params(s, 0.0), setting_intensity(s), ARR, x_max=1200)


def test_table11_diagnosis_is_pinned():
    # scripts/diagnose_table11.py reaches into ``_backward_pass`` and runs
    # the original-form oracle; its whole report (every candidate row and
    # the implied gaps) must not move
    import hashlib
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run([sys.executable, str(root / "scripts" / "diagnose_table11.py")],
                         env=env, capture_output=True, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == (
        "ebca2f4014c47ef137c624b2931f3dc03ed395d3b03e4ce5f4bfe5bc12cd5ce0")
