import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betaln, xlog1py, xlogy

from eolstop import (
    IntensityModel,
    LostSalesConvention,
    ModelSpec,
    NonFinite,
    UnreachableState,
    build_kernel_table,
    build_named_intensity,
    constant_A,
    evaluate_policy,
    kernels_with_K,
    martingale_check,
    solve,
    stopping_time_distribution,
    switch_cost,
)
from eolstop import _backends, sim
from eolstop.sim import _sorted_period_arrivals, sample_stopping_times
from eolstop.solver import CONTINUE, ORDER, STOP, PolicyTable

from conftest import base_params, small_instance
from scalar_kernels import (
    _sim_period_exact,
    _sim_period_loop,
    evaluate_policy_reference,
    exact_accrual,
    sim_period_rows,
    stopping_times_reference,
)

ARR = LostSalesConvention.ARRIVAL


def manual_policy(spec_label, horizon, x_max, stop_epoch=None):
    """Hand-built policy: continue everywhere, stop from ``stop_epoch`` on."""
    spec = ModelSpec.parse(spec_label)
    Z = spec.layers
    action = np.full((horizon + 1, x_max + 1, Z), CONTINUE, dtype=np.int8)
    target = np.full((horizon + 1, x_max + 1, Z), -1, dtype=np.int32)
    cut = horizon if stop_epoch is None else stop_epoch
    action[cut:] = STOP
    return PolicyTable(spec=spec, x_max=x_max, horizon=horizon, action=action,
                       target=target, z0=Z - 1, switch_epoch=stop_epoch)


class TestDeterministicCases:
    def test_no_demand_pure_holding(self):
        # zero intensity: cost is the closed-form holding integral plus the
        # terminal scrap, with zero variance
        T, x0 = 8, 5
        model = IntensityModel(horizon=T, rates=np.zeros(T))
        p = base_params(T=T)
        pol = manual_policy("T/inf/F", T, 20)
        est = evaluate_policy(pol, p, model, x0, paths=50, seed=1)
        hold = p.c1 * x0 * quad(lambda u: np.exp(-p.delta * u), 0, T)[0]
        want = hold + np.exp(-p.delta * T) * p.c4 * x0
        assert est.mean == pytest.approx(want, rel=1e-10)
        assert est.std_error < 1e-12

    def test_stop_immediately_without_outside_cost(self, base_model):
        p = base_params(c3_bar=0.0)
        pol = manual_policy("D/inf/F", 50, 10, stop_epoch=0)
        est = evaluate_policy(pol, p, base_model, 7, paths=100, seed=2)
        assert est.mean == pytest.approx(25.0 * 7, rel=1e-12)
        assert est.std_error < 1e-12


class TestStatisticalAgreement:
    def test_stop_at_zero_matches_scrap_plus_constant(self, base_model):
        p = base_params()
        pol = manual_policy("D/inf/F", 50, 300, stop_epoch=0)
        est = evaluate_policy(pol, p, base_model, 200, paths=20_000, seed=3)
        want = 25.0 * 200 + constant_A(p, base_model)
        assert abs(est.mean - want) < 3 * est.std_error

    def test_forced_switch_matches_switch_cost(self, base_model):
        # no orders, committed stop at an integer epoch: the simulated cost
        # estimates the switch-cost curve at that epoch
        p = base_params()
        x0, k_star = 120, 14
        pol = manual_policy("T/inf/F", 50, 300, stop_epoch=k_star)
        est = evaluate_policy(pol, p, base_model, x0, paths=20_000, seed=4)
        want = switch_cost(p, base_model, x0, float(k_star))
        assert abs(est.mean - want) < 3 * est.std_error

    @pytest.mark.parametrize("label", ["D/inf/F", "D/1/F", "D/1/Z", "T/inf/F", "T/1/Z"])
    def test_dp_value_within_three_se(self, label):
        model = build_named_intensity("convex", 10, 60.0)
        p = base_params(K=200.0, T=10)
        kt = build_kernel_table(p, model, ARR, x_max=120)
        res = solve(ModelSpec.parse(label), kt, 5)
        est = evaluate_policy(res.policy, p, model, 5, paths=20_000, seed=11)
        assert abs(est.mean - res.total_cost) < 3 * est.std_error, label

    def test_stopping_time_histogram_matches_distribution(self):
        model = build_named_intensity("convex", 12, 40.0)
        p = base_params(K=200.0, T=12)
        kt = build_kernel_table(p, model, ARR, x_max=90)
        res = solve(ModelSpec.parse("D/inf/F"), kt, 0)
        dist = stopping_time_distribution(res.policy, model, 0)
        n = 30_000
        taus = sample_stopping_times(res.policy, model, 0, paths=n, seed=5)
        emp = np.bincount(taus, minlength=13) / n
        se = np.sqrt(dist.mass * (1 - dist.mass) / n)
        assert np.all(np.abs(emp - dist.mass) <= 3 * se + 1e-7)


class TestDeterminism:
    def test_same_seed_same_estimate(self, base_kernels):
        res = solve(ModelSpec.parse("D/inf/F"), base_kernels, 0)
        a = evaluate_policy(res.policy, base_kernels.params, base_kernels.model, 0,
                            paths=500, seed=9)
        b = evaluate_policy(res.policy, base_kernels.params, base_kernels.model, 0,
                            paths=500, seed=9)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_backends_agree(self, base_kernels, monkeypatch):
        # the two exact-accrual oracles, vectorised and scalar, on the same arrivals
        res = solve(ModelSpec.parse("D/inf/F"), base_kernels, 0)
        args = (res.policy, base_kernels.params, base_kernels.model, 0)
        exact, loop = exact_accrual(_sim_period_exact, 13), exact_accrual(_sim_period_loop, 13)
        monkeypatch.setattr(_backends, "sim_period", exact)
        a = evaluate_policy(*args, paths=2_000, seed=13)
        monkeypatch.setattr(_backends, "sim_period", loop)
        b = evaluate_policy(*args, paths=2_000, seed=13)
        assert exact.calls == loop.calls == base_kernels.model.horizon
        assert a.mean == pytest.approx(b.mean, rel=1e-10)

    def test_conditional_tracks_exact_accrual(self, base_kernels, monkeypatch):
        # same counts: the conditional estimate differs from exact accrual only
        # by the arrival-time noise, far below the count noise in the SE
        res = solve(ModelSpec.parse("D/inf/F"), base_kernels, 100)
        args = (res.policy, base_kernels.params, base_kernels.model, 100)
        a = evaluate_policy(*args, paths=2_000, seed=13)
        exact = exact_accrual(_sim_period_exact, 13)
        monkeypatch.setattr(_backends, "sim_period", exact)
        b = evaluate_policy(*args, paths=2_000, seed=13)
        assert exact.calls == base_kernels.model.horizon
        assert abs(a.mean - b.mean) < 0.1 * b.std_error
        assert a.std_error == pytest.approx(b.std_error, rel=1e-2)

    # sha256 of the stopping epochs drawn before the simulator shared one path
    # stepper, on the instances of the histogram and zero-arrival tests; they
    # were drawn with numpy's Poisson sampler, which the test feeds back in
    TAU_SHA256 = {
        ("convex", 5): "21c163f19312c9336c8c2727f62362f90f78479876eb5d85761cf35c2dae5d16",
        ("convex", 17): "f559321768a062df32a7c9b799009be03a348ab6f734a624ba75379743542959",
        ("zero", 5): "162e234e3449fd503ae34675cf41694d170bdd10ce24b2d26e93b4797c44c475",
        ("zero", 17): "74443db5b5a2ccb0fd7c0dafa9269835c52053fffc8479798d4a598239d3f0cb",
    }
    # sha256 of the (paths, T) int64 counts that ``_draw_counts`` draws by
    # inversion on the same instances
    COUNTS_SHA256 = {
        ("convex", 5): "df04d4055be74359c6cc56270e80797417805f6d1323107ed446855e8e18a7fa",
        ("convex", 17): "68cec97514ad738a9933ccd42ade0f7c66bce5e3e2edb10d5aa5d21232ab70c6",
        ("zero", 5): "66fe10ea629718572daa4ca6869df907ec5149f7a2998eac5cc174cea8215b0e",
        ("zero", 17): "8455527cbc7c303076f2e7dd07d2d36bd52c5b274977500685c966aec860f643",
    }

    @staticmethod
    def pinned_instances():
        """(policy, model, x0, paths) of the convex and zero-arrival cases."""
        model = build_named_intensity("convex", 12, 40.0)
        kt = build_kernel_table(base_params(K=200.0, T=12), model, ARR, x_max=90)
        res = solve(ModelSpec.parse("D/inf/F"), kt, 0)
        return {"convex": (res.policy, model, 0, 30_000),
                "zero": (TestZeroArrivalPeriod.policy(), TestZeroArrivalPeriod.MODEL, 3, 400)}

    @pytest.mark.parametrize("seed", [5, 17])
    def test_stopping_times_are_pinned(self, seed, monkeypatch):
        monkeypatch.setattr(sim, "_poisson_counts",
                            lambda rng, rates, paths: rng.poisson(rates, size=(paths, len(rates))))
        for name, (policy, model, x0, paths) in self.pinned_instances().items():
            tau = sample_stopping_times(policy, model, x0, paths=paths, seed=seed)
            assert hashlib.sha256(tau.tobytes()).hexdigest() == self.TAU_SHA256[name, seed]

    @pytest.mark.parametrize("seed", [5, 17])
    def test_counts_are_pinned(self, seed):
        for name, (policy, model, x0, paths) in self.pinned_instances().items():
            counts = sim._draw_counts(policy, model, x0, paths, seed)
            assert counts.shape == (paths, model.horizon) and counts.dtype == np.int64
            assert hashlib.sha256(counts.tobytes()).hexdigest() == self.COUNTS_SHA256[name, seed]


STEPPER_SPECS = ["D/inf/F", "D/1/Z", "D/2/F", "D/3/F", "T/1/Z", "T/inf/F", "S/1/Z", "S/2/F"]


class TestTableStepper:
    """``evaluate_policy`` and ``sample_stopping_times`` step paths through
    state tables; on the same counts they must give what the stepper's direct
    form (``scalar_kernels.walk_reference``) gives, bit for bit."""

    @staticmethod
    def assert_matches_reference(policy, params, model, x0, paths, seed):
        est = evaluate_policy(policy, params, model, x0, paths=paths, seed=seed)
        want = evaluate_policy_reference(policy, params, model, x0, paths, seed)
        assert (est.mean, est.std_error) == want
        tau = sample_stopping_times(policy, model, x0, paths=paths, seed=seed)
        assert np.array_equal(tau, stopping_times_reference(policy, model, x0, paths, seed))

    @pytest.mark.parametrize("K", [0.0, 1000.0, 5000.0])
    @pytest.mark.parametrize("label", STEPPER_SPECS)
    def test_base_case(self, base_kernels, label, K):
        kt = kernels_with_K(base_kernels, K)
        for x0 in (0, 100, 250, 700):
            res = solve(ModelSpec.parse(label), kt, x0)
            self.assert_matches_reference(res.policy, kt.params, kt.model, x0, 2_000, x0 + 7)

    @pytest.mark.parametrize("seed", range(10))
    def test_small_instances(self, seed):
        params, model, x0, x_max = small_instance(seed)
        kt = build_kernel_table(params, model, ARR, x_max=x_max)
        for label in STEPPER_SPECS:
            res = solve(ModelSpec.parse(label), kt, x0)
            self.assert_matches_reference(res.policy, params, model, x0, 500, seed)


class TestUnreachableOrder:
    """An ORDER cell whose target does not exceed the stock raises
    UnreachableState once a path reaches it, and only then.  Without demand
    every path keeps its stock x0 = 5."""

    MODEL = IntensityModel(horizon=3, rates=np.zeros(3))

    @staticmethod
    def policy(label, cells):
        """Continue until the stop at T, except an ORDER up to ``target`` at
        each (epoch, stock, target) of ``cells``."""
        pol = manual_policy(label, 3, 10)
        for k, x, target in cells:
            pol.action[k, x, pol.z0] = ORDER
            pol.target[k, x, pol.z0] = target
        return pol

    @pytest.mark.parametrize("target", [5, 2], ids=["at-stock", "below-stock"])
    @pytest.mark.parametrize("label", ["D/inf/F", "D/1/Z"])
    def test_reached_cell_raises(self, label, target):
        pol = self.policy(label, [(2, 5, target)])
        with pytest.raises(UnreachableState, match="does not exceed current stock"):
            evaluate_policy(pol, base_params(T=3), self.MODEL, 5, paths=10, seed=0)
        with pytest.raises(UnreachableState, match="does not exceed current stock"):
            sample_stopping_times(pol, self.MODEL, 5, paths=10, seed=0)

    @pytest.mark.parametrize("label", ["D/inf/F", "D/1/Z"])
    def test_unreached_cell_is_ignored(self, label):
        # stock 3 at epoch 1 lies inside the state tables, stock 8 at epoch 0
        # beyond them; no path holds either
        pol = self.policy(label, [(1, 3, 2), (0, 8, 1)])
        TestTableStepper.assert_matches_reference(pol, base_params(T=3), self.MODEL, 5, 10, 0)
        assert sample_stopping_times(pol, self.MODEL, 5, paths=10, seed=0).tolist() == [3] * 10


class TestPeakMemory:
    # tracemalloc peak, in bytes, of a second evaluate_policy call (the first
    # fills caches) on one base-case cell, K 1000, x0 100, 15,000 paths, seed
    # 1, as measured before the simulator stepped paths through state tables;
    # the (15,000, 50) int64 counts take 6.0e6 of it
    PEAK = {"D/inf/F": 7_674_425, "D/1/Z": 7_674_071}

    @pytest.mark.parametrize("label", sorted(PEAK))
    def test_peak_does_not_grow(self, base_kernels, label):
        kt = kernels_with_K(base_kernels, 1000.0)
        res = solve(ModelSpec.parse(label), kt, 100)

        def run():
            return evaluate_policy(res.policy, kt.params, kt.model, 100, paths=15_000, seed=1)

        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK[label]


class TestMartingale:
    def test_zero_outside_source(self, base_model):
        rep = martingale_check(base_params(c3_bar=0.0), base_model, paths=200, seed=1)
        assert rep.analytic == 0.0 and rep.mc_mean == 0.0

    def test_base_case_z_score(self, base_model):
        rep = martingale_check(base_params(), base_model, paths=30_000, seed=21)
        assert abs(rep.z_score) <= 3

    def test_undiscounted_constant_rate(self):
        model = build_named_intensity("constant", 10, 50.0)
        p = base_params(T=10, delta=0.0, gamma=0.0)
        rep = martingale_check(p, model, paths=30_000, seed=22)
        assert rep.analytic == pytest.approx(200.0 * 50.0, rel=1e-12)
        assert abs(rep.z_score) <= 3


class TestErrors:
    def test_x0_outside_grid(self, base_kernels):
        res = solve(ModelSpec.parse("D/inf/F"), base_kernels, 0)
        with pytest.raises(UnreachableState):
            evaluate_policy(res.policy, base_kernels.params, base_kernels.model,
                            base_kernels.x_max + 1, paths=10, seed=0)

    def test_horizon_mismatch(self, base_kernels):
        res = solve(ModelSpec.parse("D/inf/F"), base_kernels, 0)
        other = build_named_intensity("constant", 10, 10.0)
        with pytest.raises(UnreachableState):
            evaluate_policy(res.policy, base_kernels.params, other, 0, paths=10, seed=0)

    @pytest.mark.parametrize("call, paths", [
        ("evaluate_policy", 1), ("martingale_check", 1), ("martingale_check", 0),
        ("sample_stopping_times", 0), ("sample_stopping_times", -1),
    ])
    def test_too_few_paths(self, base_model, call, paths):
        # two paths for a standard error, one for a stopping time
        pol, p = manual_policy("D/inf/F", 50, 10), base_params()
        run = {"evaluate_policy": lambda: evaluate_policy(pol, p, base_model, 0, paths=paths),
               "martingale_check": lambda: martingale_check(p, base_model, paths=paths),
               "sample_stopping_times":
                   lambda: sample_stopping_times(pol, base_model, 0, paths=paths)}[call]
        with pytest.raises(ValueError, match=f"paths={paths}"):
            run()

    def test_one_path_has_a_stopping_time(self, base_model):
        tau = sample_stopping_times(manual_policy("D/inf/F", 50, 10, stop_epoch=7), base_model, 0,
                                    paths=1)
        assert tau.tolist() == [7]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_costs_raise(self, base_kernels):
        # the policy is finite; costs that overflow float64 make the mean inf
        res = solve(ModelSpec.parse("D/inf/F"), base_kernels, 0)
        huge = base_params(c_bar=1e306, c1=1e306, c2_bar=1e307, c3_bar=1e307, c4=1e305)
        with pytest.raises(NonFinite):
            evaluate_policy(res.policy, huge, base_kernels.model, 50, paths=10, seed=0)


class TestZeroArrivalPeriod:
    """Intensity [3, 0, 2]: no path sees an arrival in period 1, where some
    paths have stopped and some still hold stock."""

    MODEL = IntensityModel(horizon=3, rates=np.array([3.0, 0.0, 2.0]))

    @staticmethod
    def policy():
        pol = manual_policy("D/inf/F", 3, 10)
        pol.action[1, :2] = STOP  # stop at epoch 1 with fewer than two units left
        return pol

    def test_mix_of_stopped_and_holding_paths(self):
        taus = sample_stopping_times(self.policy(), self.MODEL, 3, paths=400, seed=17)
        assert set(taus.tolist()) == {1, 3}

    def test_matches_scalar_oracle(self, monkeypatch):
        p = base_params(T=3, c1=1.7)
        args = (self.policy(), p, self.MODEL, 3)
        exact, loop = exact_accrual(_sim_period_exact, 17), exact_accrual(_sim_period_loop, 17)
        monkeypatch.setattr(_backends, "sim_period", exact)
        a = evaluate_policy(*args, paths=400, seed=17)
        monkeypatch.setattr(_backends, "sim_period", loop)
        b = evaluate_policy(*args, paths=400, seed=17)
        assert exact.calls == loop.calls == self.MODEL.horizon
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.std_error == pytest.approx(b.std_error, rel=1e-12)

    def test_martingale_check(self):
        p = base_params(T=3)
        rep = martingale_check(p, self.MODEL, paths=20_000, seed=18)
        assert rep.analytic == constant_A(p, self.MODEL)
        assert abs(rep.z_score) <= 3

    def test_martingale_check_without_arrivals(self):
        model = IntensityModel(horizon=2, rates=np.zeros(2))
        rep = martingale_check(base_params(T=2), model, paths=50, seed=1)
        assert (rep.analytic, rep.mc_mean, rep.std_error, rep.z_score) == (0.0, 0.0, 0.0, 0.0)


def _beta_moment(j, n, a):
    """E[e^{-a B}] for B ~ Beta(j, n - j + 1), by adaptive quadrature."""
    def pdf(s):
        return np.exp(xlogy(j - 1, s) + xlog1py(n - j, -s) - betaln(j, n - j + 1) - a * s)

    mode = (j - 1) / (n - 1) if n > 1 else 0.5
    return quad(pdf, 0.0, 1.0, points=[mode], epsabs=0.0, epsrel=1e-13, limit=200)[0]


class TestConditionalPeriod:
    """``_backends.period_tables`` and ``sim_period``: a period's expected
    cost given its arrival count, against Beta integrals and exact accrual."""

    @pytest.mark.parametrize("a", [0.0, 0.005, 0.015, 0.02])
    def test_tables_match_beta_integrals(self, a):
        ns = np.array([0, 1, 2, 5, 17, 60, 160])
        got, hold, hold_j, lost, lost_g = _backends.period_tables(ns, 200, a, 0.0)
        assert np.array_equal(got, ns)
        np.testing.assert_array_equal(lost, lost_g)
        for r, n in enumerate(ns):
            seg = np.diff(hold[r, :n + 1], prepend=0.0)  # E[seg_j], j = 0..n
            arr = -np.diff(lost[r, :n + 1])  # E[e^{-a U_j}], j = 1..n
            assert hold[r, n:] == pytest.approx(hold[r, n], rel=1e-15)
            np.testing.assert_allclose(np.diff(hold_j[r, :n + 1], prepend=0.0),
                                       np.arange(n + 1) * seg, rtol=1e-12, atol=1e-15)
            js = range(1, n + 1) if n <= 17 else (1, 2, n // 3, n // 2, n - 1, n)
            for j in js:
                assert arr[j - 1] == pytest.approx(_beta_moment(j, n, a), rel=1e-12), (n, j)
            # E[seg_j] = int e^{-as} P{U_j <= s < U_j+1} ds = E[e^{-aB}] / (n+1),
            # B ~ Beta(j+1, n-j+1)
            for j in [0, *js]:
                want = _beta_moment(j + 1, n + 1, a) / (n + 1)
                assert seg[j] == pytest.approx(want, rel=1e-12), (n, j)
            assert lost[r, 0] == pytest.approx(n * _beta_moment(1, 1, a), rel=1e-13)
            assert lost[r, n] == pytest.approx(0.0, abs=1e-12 * max(n, 1))

    # columns: stock after the decisions, stopped, arrivals
    PATHS = {
        "mixed": ([0, 3, 5, 5, 12, 0, 0, 40], [0, 0, 0, 0, 0, 1, 1, 0], [4, 0, 5, 9, 6, 8, 0, 30]),
        "all-stopped": ([0, 0, 0], [1, 1, 1], [0, 3, 11]),
        "zero-arrival": ([0, 4, 0, 9], [0, 0, 1, 0], [0, 0, 0, 0]),
    }

    @pytest.mark.parametrize("paths, costs", [
        ("mixed", {}),
        ("mixed", {"delta": 0.0}),
        ("mixed", {"gamma": 0.0}),
        ("mixed", {"c1": 1.7}),
        ("all-stopped", {}),
        ("zero-arrival", {"c1": 2.5}),
    ], ids=["base", "delta-0", "gamma-0", "c1-1.7", "all-stopped", "zero-arrival"])
    def test_matches_exact_accrual_on_fixed_counts(self, paths, costs):
        # many uniform draws per fixed (stock, stopped, counts) path; k = 30
        # makes e^{-delta k} and e^{-(delta+gamma) k} differ by 26%
        stock, stopped, counts = (np.array(v) for v in self.PATHS[paths])
        stopped = stopped.astype(bool)
        p, k, reps = base_params(**costs), 30, 4_000
        tables = _backends.period_lookups(_backends.period_tables(counts, 40, p.delta, p.gamma),
                                          40, p)
        cond = np.zeros(len(stock))
        _backends.sim_period(cond, np.where(stopped, -1, stock), counts, tables, k, p)

        rep = np.repeat(counts, reps)
        u = _sorted_period_arrivals(np.random.default_rng(3), k, rep)
        exact = np.zeros(len(rep))
        _sim_period_exact(np.repeat(stock, reps), np.repeat(stopped, reps), exact, u, rep, k,
                          p.c1, p.c2_bar, p.c3_bar, p.gamma, p.delta)
        exact = exact.reshape(len(stock), reps)
        mean, se = exact.mean(axis=1), exact.std(axis=1, ddof=1) / np.sqrt(reps)
        # a path without arrivals has no randomness left: exact agreement
        assert np.all(np.abs(cond - mean) <= 4 * se + 1e-12 * np.abs(mean)), (cond, mean, se)

    def test_high_rate_tables_stay_small(self, monkeypatch):
        # 3,000 expected arrivals against x_max 200: one row per distinct
        # count and at most x_max + 2 columns, not one per arrival
        model = IntensityModel(horizon=1, rates=np.array([3000.0]))
        p = base_params(T=1)
        pol = manual_policy("T/inf/F", 1, 200)
        seen = []
        real = _backends.period_tables

        def spy(counts, *args):
            seen.append((counts, real(counts, *args)))
            return seen[-1][1]

        monkeypatch.setattr(_backends, "period_tables", spy)
        est = evaluate_policy(pol, p, model, 200, paths=200, seed=3)
        (counts, (ns, *tables)), = seen
        assert np.array_equal(ns, np.unique(counts))
        for t in tables:
            assert t.shape[0] == len(ns) and t.shape[1] <= 202
        stand_in = exact_accrual(_sim_period_exact, 3)
        monkeypatch.setattr(_backends, "sim_period", stand_in)
        exact = evaluate_policy(pol, p, model, 200, paths=200, seed=3)
        assert stand_in.calls == model.horizon
        assert abs(est.mean - exact.mean) < 0.1 * exact.std_error

    # period rates per case; "one-count" draws no randomness, every count is 7
    LOOKUP_RATES = {
        "random": [3.0, 12.0, 0.5, 40.0],
        "zero-period": [0.0, 6.0, 0.0],
        "all-zero": [0.0, 0.0],
        "one-count": None,
        "rate-3000": [3000.0, 2900.0],
    }

    @pytest.mark.parametrize("case", sorted(LOOKUP_RATES))
    def test_flat_lookup_is_bit_identical(self, case):
        # sim_period finds each path's cell of the ``period_lookups`` through
        # a count lookup and one flat index, and reads costs folded over the
        # post-decision stock; they must equal, bit for bit, those of rows
        # found by np.searchsorted and cells read as table[row, m]
        # (``sim_period_rows``)
        rng = np.random.default_rng(5)
        paths, x_max, p = 3_000, 120, base_params()
        rates = self.LOOKUP_RATES[case]
        counts = (np.full((paths, 3), 7) if rates is None
                  else rng.poisson(rates, size=(paths, len(rates))))
        tables = _backends.period_tables(counts, x_max, p.delta, p.gamma)
        assert np.array_equal(tables[0], np.unique(counts))
        lookups = _backends.period_lookups(tables, x_max, p)
        for k in range(counts.shape[1]):
            stopped = rng.uniform(size=paths) < 0.2
            # stock runs past the count on most low-rate paths, never at rate 3000
            stock = np.where(stopped, 0, rng.integers(0, x_max + 1, size=paths))
            got, want = (np.full(paths, 10.0) for _ in range(2))
            _backends.sim_period(got, np.where(stopped, -1, stock), counts[:, k], lookups,
                                 3 * k, p)
            sim_period_rows(want, stock, stopped, counts[:, k], tables, 3 * k, p)
            assert np.array_equal(got, want), (case, k)
