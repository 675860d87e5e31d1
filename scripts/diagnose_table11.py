"""Diagnose the Table 11 gap (acceptance criterion 3) by trying candidate
conventions for the never-stop (T) chain.

Each candidate changes how the T-chain values are computed; the D chain is
left as built unless a row says otherwise.  For every candidate the script
prints the max |diff| in percentage points against the reference Tables 11,
5, 7 (T chain) and 9, 7-parenthesized (D chain), base case, x_max = 1200.

Run with:  PYTHONPATH=src python scripts/diagnose_table11.py

The script reaches into solver and kernel internals (``_backward_pass``,
``_period_integrals``) to build the candidates, and takes the original-form
chains from the test suite's oracle, ``tests/original_form.py``; it is a
record of one diagnosis, not library code.
"""

import dataclasses
import sys
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import base_params  # noqa: E402
from original_form import original_form_values, original_rows  # noqa: E402
from test_acceptance import (  # noqa: E402
    KS, TABLE5, TABLE7, TABLE7P, TABLE9, TABLE11, XS, grid, max_abs_diff,
)

from eolstop import (  # noqa: E402
    LostSalesConvention, ModelSpec, build_kernel_table, build_named_intensity, solve,
)
from eolstop import kernels as kernel_module  # noqa: E402
from eolstop.config import kernels_with_K  # noqa: E402
from eolstop.solver import _backward_pass  # noqa: E402

T, X = 50, 1200
D_LABELS = ("D/inf/F", "D/1/Z", "D/1/F")
T_LABELS = ("T/inf/F", "T/1/Z", "T/1/F")
PARAMS = base_params()
MODEL = build_named_intensity("convex", T, 500.0)


def solved(kt, label):
    return solve(ModelSpec.parse(label), kt, XS[-1]).values_at_zero


def table_values(kt, labels, values_at_zero=solved):
    """{(label, K, x0): total cost} for the reference grid."""
    out = {}
    for K in KS:
        k = kernels_with_K(kt, K)
        for label in labels:
            v = values_at_zero(k, label)
            out.update({(label, K, x): float(v[x]) for x in XS})
    return out


def diffs(values):
    return (
        max_abs_diff(grid(values, "T/inf/F", "D/inf/F"), TABLE11),
        max_abs_diff(grid(values, "T/1/Z", "T/inf/F"), TABLE5),
        max_abs_diff(grid(values, "T/1/Z", "T/1/F"), TABLE7),
        max_abs_diff(grid(values, "D/1/Z", "D/inf/F"), TABLE9),
        max_abs_diff(grid(values, "D/1/Z", "D/1/F"), TABLE7P),
    )


def scrap_scaled(factor):
    """T chain whose terminal scrap is charged at c4 * factor (stopping is
    only admissible at T, so c4 enters the T chain nowhere else)."""
    def run(kt, label):
        p = dataclasses.replace(kt.params, c4=kt.params.c4 * factor)
        return solved(dataclasses.replace(kt, params=p), label)
    return run


def switch_at(k_star):
    """Chain forced to stop at k_star < T instead of at the horizon."""
    def run(kt, label):
        spec = ModelSpec.parse(label)
        (V0,), _ = _backward_pass(spec, [kt], [kt.params.K], [k_star])
        return V0[0, 0] + kt.A
    return run


def original_form(C):
    """T chain in original form (one-period cost rows C, no A)."""
    def run(kt, label):
        return original_form_values(ModelSpec.parse(label), kt, C)
    return run


def c3_held_rows():
    """One-period cost rows C whose lost-sales cost uses c3 at the
    period-start epoch."""
    real = kernel_module._period_integrals

    def held(params, rates, periods, rows):
        P0, _, _, prem_full = real(params, rates, periods, rows)
        d = params.delta
        B0 = rates * ((1.0 - np.exp(-d)) / d if d > 0 else 1.0)
        c2k = params.c2(periods)
        return P0, (c2k * rates)[:, None] * P0, c2k * B0, prem_full

    kt = build_kernel_table(PARAMS, MODEL, LostSalesConvention.ARRIVAL, x_max=X)
    with mock.patch.object(kernel_module, "_period_integrals", held):
        return original_rows(kt)[2]


def a_variant(disc_start, disc_in_period, gamma_in_period):
    """A with each factor either continuous in the period or held at its
    period-start value; the result shifts every T-chain value by A' - A."""
    k = np.arange(T)
    d, g = PARAMS.delta, PARAMS.gamma
    a = d * disc_in_period + g * gamma_in_period
    unit = (1.0 - np.exp(-a)) / a if a > 0 else 1.0
    return float(np.sum(np.exp(-d * disc_start) * PARAMS.c3_bar * np.exp(-g * k) * MODEL.rates * unit))


def main():
    arr = build_kernel_table(PARAMS, MODEL, LostSalesConvention.ARRIVAL, x_max=X)
    pap = build_kernel_table(PARAMS, MODEL, LostSalesConvention.PAPER, x_max=X)
    D = table_values(arr, D_LABELS)
    Tv = table_values(arr, T_LABELS)

    def shifted(c):
        return {key: v + c for key, v in Tv.items()}

    k = np.arange(T)
    A = arr.A
    last = float(np.exp(-PARAMS.delta * (T - 1)) * arr.c3_period[T - 1])
    rows = [
        ("as built (arrival convention)", D, Tv),
        ("paper-printed convention, both chains", table_values(pap, D_LABELS), table_values(pap, T_LABELS)),
        ("paper-printed convention, T chain only", D, table_values(pap, T_LABELS)),
        ("T chain in original form (identity check)", D, table_values(arr, T_LABELS, original_form(original_rows(arr)[2]))),
        ("terminal scrap undiscounted (c4 at T, not e^-dT c4)", D,
         table_values(arr, T_LABELS, scrap_scaled(np.exp(PARAMS.delta * T)))),
        ("terminal scrap discounted to T-1", D, table_values(arr, T_LABELS, scrap_scaled(np.exp(PARAMS.delta)))),
        ("T chain stops at T-1 (last period outside source)", D, table_values(arr, T_LABELS, switch_at(T - 1))),
        (f"last period's outside-source term added (+{last:.1f})", D, shifted(last)),
        (f"last period's outside-source term dropped (-{last:.1f})", D, shifted(-last)),
        ("c3 at period start in the T-chain lost-sales kernel", D,
         table_values(arr, T_LABELS, original_form(c3_held_rows()))),
    ]
    for name, (start, dis, gam) in {
        "A: discount held at period start": (k, 0, 1),
        "A: discount held at period end": (k + 1, 0, 1),
        "A: c3 held at period start": (k, 1, 0),
        "A: undiscounted": (0 * k, 0, 1),
    }.items():
        c = a_variant(start, dis, gam) - A
        rows.append((f"{name} ({c:+.1f})", D, shifted(c)))
    best = min(np.arange(0.0, 400.0), key=lambda c: diffs({**D, **shifted(c)})[0])
    rows.append((f"best single constant on the T chain (+{best:.0f})", D, shifted(best)))

    print("| candidate | T11 | T5 | T7 | T9 | T7p |\n|---|---|---|---|---|---|")
    for name, dv, tv in rows:
        print(f"| {name} | " + " | ".join(f"{v:.3f}" for v in diffs({**dv, **tv})) + " |")

    print("\nreference-minus-ours T/inf/F gap implied by the +-0.05pp rounding of Table 11:")
    for i, K in enumerate(KS):
        cells = []
        for j, x in enumerate(XS):
            d, t = D[("D/inf/F", K, x)], Tv[("T/inf/F", K, x)]
            lo, hi = ((TABLE11[i][j] + s) * d / 100.0 + d - t for s in (-0.05, 0.05))
            cells.append(f"x0={x}: {lo:.0f}..{hi:.0f}")
        print(f"  K={K:.0f}: " + ", ".join(cells))


if __name__ == "__main__":
    main()
