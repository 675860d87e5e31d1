import numpy as np
import pytest
from scipy.integrate import quad

from eolstop import (
    IntensityModel,
    LostSalesConvention,
    ModelSpec,
    UnreachableState,
    build_kernel_table,
    build_named_intensity,
    constant_A,
    evaluate_policy,
    martingale_check,
    solve,
    stopping_time_distribution,
    switch_cost,
)
from eolstop import _backends
from eolstop.solver import CONTINUE, STOP, PolicyTable

from conftest import base_params
from scalar_kernels import _sim_period_loop

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
        from eolstop.sim import sample_stopping_times

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
        res = solve(ModelSpec.parse("D/inf/F"), base_kernels, 0)
        args = (res.policy, base_kernels.params, base_kernels.model, 0)
        a = evaluate_policy(*args, paths=2_000, seed=13)
        monkeypatch.setattr(_backends, "sim_period", _sim_period_loop)
        b = evaluate_policy(*args, paths=2_000, seed=13)
        assert a.mean == pytest.approx(b.mean, rel=1e-10)


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
        from eolstop.sim import sample_stopping_times

        taus = sample_stopping_times(self.policy(), self.MODEL, 3, paths=400, seed=17)
        assert set(taus.tolist()) == {1, 3}

    def test_matches_scalar_oracle(self, monkeypatch):
        p = base_params(T=3, c1=1.7)
        args = (self.policy(), p, self.MODEL, 3)
        a = evaluate_policy(*args, paths=400, seed=17)
        monkeypatch.setattr(_backends, "sim_period", _sim_period_loop)
        b = evaluate_policy(*args, paths=400, seed=17)
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
