"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  All
reference grids are laid out rows = K in (0, 1000, 5000), columns = initial
inventory in (0, 100, 250).
"""

import time

import numpy as np
import pytest

from eolstop import (
    LostSalesConvention,
    ModelSpec,
    build_kernel_table,
    build_named_intensity,
    evaluate_policy,
    extract_regions,
    martingale_check,
    solve,
    static_switch_values,
    stopping_time_distribution,
    switch_cost_curve,
    switch_time_bounds,
    validate_assumptions,
)
from eolstop.config import kernels_with_K
from eolstop.kernels import unit_poisson_integrals, unit_poisson_integrals_quadrature
from eolstop.settings import setting_cost_params, setting_from_id, setting_intensity
from eolstop.sim import sample_stopping_times

from conftest import base_params, small_instance
from original_form import solve_original_form
from test_solver import ALL_SPECS, oracle_value, tiny_kernels

ARR = LostSalesConvention.ARRIVAL
PAP = LostSalesConvention.PAPER
KS = (0.0, 1000.0, 5000.0)
XS = (0, 100, 250)

TABLE9 = [[12.1, 15.1, 21.1], [2.8, 4.4, 8.9], [0.0, 1.9, 7.2]]    # D/1/Z vs D/inf/F
TABLE5 = [[17.2, 21.4, 31.1], [6.3, 8.6, 15.3], [0.5, 2.6, 9.3]]   # T/1/Z vs T/inf/F
TABLE11 = [[0.4, 0.5, 0.7], [1.4, 1.8, 2.7], [3.9, 4.6, 5.6]]      # T/inf/F vs D/inf/F
TABLE7 = [[0.0, 2.3, 10.1], [0.0, 2.3, 9.9], [0.0, 2.2, 9.1]]      # T/1/Z vs T/1/F
TABLE7P = [[0.0, 2.0, 7.9], [0.0, 2.0, 7.8], [0.0, 1.9, 7.2]]      # D/1/Z vs D/1/F


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    return line


def grid(values, a, b):
    return [
        [100.0 * (values[(a, K, x)] - values[(b, K, x)]) / values[(b, K, x)] for x in XS]
        for K in KS
    ]


def max_abs_diff(got, want):
    return max(abs(g - w) for gr, wr in zip(got, want) for g, w in zip(gr, wr))


def fmt(cells):
    return "; ".join(" ".join(f"{v:.2f}" for v in row) for row in cells)


@pytest.fixture(scope="module")
def base_grid_timed():
    """Base-case totals per (model, K, x0) plus the criterion-1 wall time."""
    model = build_named_intensity("convex", 50, 500.0)
    out = {}
    t0 = time.perf_counter()
    base = build_kernel_table(base_params(), model, ARR, x_max=1200)
    kt0 = kernels_with_K(base, 0.0)
    solve(ModelSpec.parse("D/inf/F"), kt0, 250)
    solve(ModelSpec.parse("D/1/Z"), kt0, 250)
    crit1_time = time.perf_counter() - t0
    for K in KS:
        kt = kernels_with_K(base, K)
        for label in ("D/inf/F", "D/1/Z", "D/1/F", "T/inf/F", "T/1/Z", "T/1/F"):
            vals = solve(ModelSpec.parse(label), kt, 250).values_at_zero
            for x in XS:
                out[(label, K, x)] = float(vals[x])
    return out, crit1_time, base


def test_criterion_01_table9_single_order_vs_full_flexibility(base_grid_timed):
    values, crit1_time, _ = base_grid_timed
    got = grid(values, "D/1/Z", "D/inf/F")
    diff = max_abs_diff(got, TABLE9)
    ok = diff <= 0.3 and crit1_time <= 120.0
    report(1, ok, f"Table 9 max |diff| {diff:.3f}pp (tol 0.3); "
                  f"kernel+2 solves {crit1_time:.1f}s (budget 120s); got [{fmt(got)}]")
    assert diff <= 0.3
    assert crit1_time <= 120.0


def test_criterion_02_table5_no_stopping_chain(base_grid_timed):
    values, _, _ = base_grid_timed
    got = grid(values, "T/1/Z", "T/inf/F")
    diff = max_abs_diff(got, TABLE5)
    report(2, diff <= 0.3, f"Table 5 max |diff| {diff:.3f}pp (tol 0.3); got [{fmt(got)}]")
    assert diff <= 0.3


def test_criterion_03_table11_value_of_stopping(base_grid_timed):
    values, _, base = base_grid_timed
    got = grid(values, "T/inf/F", "D/inf/F")
    diff = max_abs_diff(got, TABLE11)

    # convention-sensitive report: recompute the grid under the printed form
    paper = build_kernel_table(base.params, base.model, PAP, x_max=1200)
    pvalues = {}
    for K in KS:
        kt = kernels_with_K(paper, K)
        for label in ("T/inf/F", "D/inf/F"):
            vals = solve(ModelSpec.parse(label), kt, 250).values_at_zero
            for x in XS:
                pvalues[(label, K, x)] = float(vals[x])
    got_paper = grid(pvalues, "T/inf/F", "D/inf/F")
    diff_paper = max_abs_diff(got_paper, TABLE11)

    ok = diff <= 0.2
    report(3, ok,
           f"Table 11 max |diff| arrival {diff:.3f}pp / paper-printed {diff_paper:.3f}pp "
           f"(tol 0.2); arrival [{fmt(got)}]; paper [{fmt(got_paper)}]; expected [{fmt(TABLE11)}]. "
           "Known gap: the reference T-chain values sit 61-180 cost units above the printed "
           "never-stop recursion, and the per-cell +-0.05pp rounding intervals of that gap "
           "(61-121 at K=5000 x0=0, 131-180 at K=5000 x0=100) admit no single constant; "
           "see the Table 11 diagnosis in CHANGES.md.")
    assert diff <= 0.2, (
        "Table 11 cannot be reproduced from the printed recursions: "
        f"arrival-consistent max diff {diff:.3f}pp, paper-printed {diff_paper:.3f}pp. "
        "The same solver is off Table 9 by 0.037pp, but off the never-stop Tables 5 and 7 "
        "by 0.192pp and 0.154pp, and the +-0.05pp intervals of Table 11 admit no single "
        "constant offset of the never-stop chain. Documented in CHANGES.md (Table 11 "
        "diagnosis)."
    )


def test_criterion_04_table7_delayed_single_order(base_grid_timed):
    values, _, _ = base_grid_timed
    got_t = grid(values, "T/1/Z", "T/1/F")
    got_d = grid(values, "D/1/Z", "D/1/F")
    diff_t = max_abs_diff(got_t, TABLE7)
    diff_d = max_abs_diff(got_d, TABLE7P)
    ok = diff_t <= 0.3 and diff_d <= 0.3
    report(4, ok, f"Table 7 max |diff| {diff_t:.3f}pp, parenthesized {diff_d:.3f}pp (tol 0.3)")
    assert diff_t <= 0.3 and diff_d <= 0.3


def test_criterion_05_sweep_maximum_setting():
    t0 = time.perf_counter()
    pcts = {}
    for sid in range(1, 129):
        s = setting_from_id(sid)
        model = setting_intensity(s)
        kt = build_kernel_table(setting_cost_params(s, K=0.0), model, ARR, x_max=1200)
        d8 = solve(ModelSpec.parse("D/inf/F"), kt, 0).total_cost
        d1 = solve(ModelSpec.parse("D/1/Z"), kt, 0).total_cost
        pcts[sid] = 100.0 * (d1 - d8) / d8
    arg = max(pcts, key=pcts.get)
    val = pcts[arg]

    s125 = setting_from_id(125)
    kt_p = build_kernel_table(setting_cost_params(s125, K=0.0), setting_intensity(s125),
                              PAP, x_max=1200)
    v_paper = 100.0 * (solve(ModelSpec.parse("D/1/Z"), kt_p, 0).total_cost
                       / solve(ModelSpec.parse("D/inf/F"), kt_p, 0).total_cost - 1.0)

    ok = arg == 125 and abs(val - 60.4) <= 1.0
    report(5, ok,
           f"full 128-setting sweep (x=0, K=0): max {val:.2f}% at setting {arg} "
           f"(expected 60.4 at 125, tol 1.0); setting-125 cell per convention: "
           f"arrival {pcts[125]:.2f}%, paper-printed {v_paper:.2f}%; "
           f"{time.perf_counter() - t0:.1f}s")
    assert arg == 125
    assert abs(val - 60.4) <= 1.0


def test_criterion_06_reformulation_equivalence():
    worst = 0.0
    for seed in range(20):
        params, model, x0, x_max = small_instance(seed)
        kt = build_kernel_table(params, model, ARR, x_max=x_max)
        spec = ModelSpec.parse(("D/inf/F", "D/1/Z", "T/inf/F")[seed % 3])
        tilde = solve(spec, kt, x0).total_cost
        orig = solve_original_form(spec, kt, x0)
        worst = max(worst, abs(orig - tilde) / max(abs(tilde), 1e-12))
    report(6, worst <= 1e-6, f"20 instances, max relative gap {worst:.2e} (tol 1e-6)")
    assert worst <= 1e-6


def test_criterion_07_oracle_and_monte_carlo():
    worst = 0.0
    for label in ALL_SPECS:
        for seed in (0, 2):
            kt = tiny_kernels(seed=seed)
            for x0 in (0, 4):
                got = solve(ModelSpec.parse(label), kt, x0).total_cost
                want = oracle_value(label, kt, x0)
                worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    enum_ok = worst <= 1e-9

    model = build_named_intensity("convex", 10, 60.0)
    p = base_params(K=200.0, T=10)
    kt = build_kernel_table(p, model, ARR, x_max=150)
    zs = {}
    for label in ("D/inf/F", "D/1/Z", "T/inf/F"):
        res = solve(ModelSpec.parse(label), kt, 5)
        est = evaluate_policy(res.policy, p, model, 5, paths=100_000, seed=31)
        zs[label] = (est.mean - res.total_cost) / est.std_error
    mc_ok = all(abs(z) <= 3 for z in zs.values())

    ok = enum_ok and mc_ok
    report(7, ok, f"enumeration max rel diff {worst:.2e} (tol 1e-9); "
                  f"MC z-scores {({k: round(v, 2) for k, v in zs.items()})}")
    assert enum_ok and mc_ok


def test_criterion_08_stopping_time_distribution(base_grid_timed):
    _, _, base = base_grid_timed
    kt = kernels_with_K(base, 1000.0)
    res = solve(ModelSpec.parse("D/inf/F"), kt, 0)
    dist = stopping_time_distribution(res.policy, kt.model, 0)
    sum_ok = abs(dist.mass.sum() - 1.0) <= 1e-9

    n = 100_000
    taus = sample_stopping_times(res.policy, kt.model, 0, paths=n, seed=17)
    emp = np.bincount(taus, minlength=51) / n
    se = np.sqrt(dist.mass * (1.0 - dist.mass) / n)
    hist_ok = bool(np.all(np.abs(emp - dist.mass) <= 3 * se + 1e-7))
    worst_pt = float(np.max(np.abs(emp - dist.mass) - 3 * se))

    ok = sum_ok and hist_ok
    report(8, ok, f"mass sum {dist.mass.sum():.12f}; histogram vs exact within 3 SE "
                  f"(worst margin {worst_pt:.2e})")
    assert sum_ok and hist_ok


def test_criterion_09_switch_time_bounds_sandwich():
    ids = (1, 3, 5, 7, 33, 35, 65, 67, 97, 99)  # the c4 = 25 settings: POS holds
    x = 100
    checked = 0
    for sid in ids:
        s = setting_from_id(sid)
        p = setting_cost_params(s, K=0.0)
        model = setting_intensity(s)
        rep = validate_assumptions(p, model)
        assert rep.ok and rep.lambda_non_increasing, sid
        b = switch_time_bounds(p, model, x, step=0.01)
        curve = switch_cost_curve(p, model, x, step=0.01)
        i_star = int(np.argmin(curve.values))
        tau_star = float(curve.tau_grid[i_star])
        assert b.lb - 1e-9 <= tau_star <= b.ub + 1e-9, (sid, b, tau_star)

        tol = 1e-7 * float(np.max(np.abs(curve.values)))
        dv = np.diff(curve.values)
        above = curve.tau_grid[:-1] >= b.ub
        below = curve.tau_grid[1:] <= b.lb
        assert np.all(dv[above] >= -tol), sid  # nondecreasing past the upper bound
        assert np.all(dv[below] <= tol), sid   # nonincreasing before the lower bound
        checked += 1
    report(9, checked == len(ids),
           f"{checked}/{len(ids)} instances: lb <= grid argmin <= ub and "
           "finite-difference signs hold beyond each bound")
    assert checked == len(ids)


def test_criterion_10_property_suite(base_grid_timed):
    values, _, base = base_grid_timed
    msgs = []

    res = solve(ModelSpec.parse("D/inf/F"), kernels_with_K(base, 1000.0), 0)
    for t in range(base.horizon + 1):
        stop, order, cont = extract_regions(res.policy, t)
        assert len(stop) + len(order) + len(cont) == base.x_max + 1
        assert len(np.intersect1d(stop, order)) == 0
        assert len(np.intersect1d(stop, cont)) == 0
    msgs.append("region partition")

    eps = 1e-7
    for K in KS:
        for x in XS:
            assert values[("D/inf/F", K, x)] <= values[("D/1/F", K, x)] + eps
            assert values[("D/1/F", K, x)] <= values[("D/1/Z", K, x)] + eps
            assert values[("D/inf/F", K, x)] <= values[("T/inf/F", K, x)] + eps
            assert values[("D/1/Z", K, x)] <= values[("T/1/Z", K, x)] + eps
    s_vals, _ = static_switch_values(ModelSpec.parse("S/1/Z"), kernels_with_K(base, 1000.0))
    for x in XS:
        assert values[("D/1/Z", 1000.0, x)] <= s_vals[x] + eps <= values[("T/1/Z", 1000.0, x)] + 2 * eps
    msgs.append("flexibility dominance")

    p = base_params()
    curve = switch_cost_curve(p, base.model, 60, step=0.05)
    assert np.all(curve.delta2_x >= -1e-9)
    msgs.append("discrete convexity in inventory")

    for lam in (0.0, 1.7, 26.0, 50.26):
        closed = unit_poisson_integrals(lam, 0.015, 30)
        gl = unit_poisson_integrals_quadrature(lam, 0.015, 30)
        assert np.allclose(closed, gl, rtol=1e-9, atol=1e-15)
    msgs.append("closed form vs quadrature at 1e-9")

    rep = martingale_check(p, base.model, paths=30_000, seed=41)
    assert abs(rep.z_score) <= 3
    msgs.append(f"martingale z = {rep.z_score:.2f}")

    report(10, True, "; ".join(msgs))
