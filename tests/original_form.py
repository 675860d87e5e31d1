"""The original (un-reformulated) form of the model: the oracle of V = Ṽ + A.

The library solves in reformulated units: one-period cost C_tilde, stopping
cost c4*x, and the outside-source constant A added back at the end.  Here
the recursion runs on the paper's original costs instead: the one-period
cost C = H + L and the stopping cost c4*x + stop_tail[t], which still
carries the outside-source integral from epoch t to T.  Its value at time
zero equals the library's V(0, x) + A under the arrival convention.

``original_rows`` builds H, L and C from ``kernels._period_integrals``, read
as a module attribute at call time, so a caller may patch that function.
The recursion is plain code that shares no step with the library's backward
pass: the expectation is a sum over demand values with the stock clamped at
0, and the best order a running minimum in a Python loop.
"""

import math

import numpy as np

from eolstop import kernels
from eolstop.costs import LostSalesConvention
from eolstop.solver import FirstOrder, StopMode


def original_rows(kt):
    """H, L and C = H + L of ``kt`` at x = 0..x_max, one row per period.

    H[k, x] = c1 * sum_{n<x} sum_{i<=n} P0[k, i], the discounted holding of x
    units; L[k, x] is the plain c2 arrival integral less the satisfied
    demand, arrivals i <= x-1 under ARRIVAL and i <= x under PAPER, floored
    at 0 since the exact tail cancels to rounding noise."""
    n, width = kt.horizon, kt.x_max + 1
    rates = kt.model.rates
    P0, R_c2, c2_full, _ = kernels._period_integrals(
        kt.params, rates, np.arange(n), kernels._SharedRows(rates, width))
    # the integral rows are zero past each period's support cap
    P0 = np.pad(P0, ((0, 0), (0, width - P0.shape[1])))
    R_c2 = np.pad(R_c2, ((0, 0), (0, width - R_c2.shape[1])))
    H = np.zeros((n, width))
    H[:, 1:] = np.cumsum(np.cumsum(P0, axis=1), axis=1)[:, :-1] * kt.params.c1
    served = np.cumsum(R_c2, axis=1)
    if kt.convention is LostSalesConvention.ARRIVAL:
        served = np.concatenate((np.zeros((n, 1)), served[:, :-1]), axis=1)
    L = np.maximum(c2_full[:, None] - served, 0.0)
    return H, L, H + L


def _expect(W, pmf, residual):
    """E[W((y - D)^+)] for y = 0..len(W)-1, D ~ pmf on 0..len(pmf)-1 with the
    rest of its mass, ``residual``, beyond the support (stock then runs out)."""
    y = np.arange(len(W))
    out = np.full(len(W), residual * W[0])
    for d, p in enumerate(pmf):
        out += p * W[np.maximum(y - d, 0)]
    return out


def _best_order(G, K, c_bar):
    """min over y > x of K + c_bar (y - x) + G[y] for every x (inf at x_max)."""
    g = G.tolist()
    out = [math.inf] * len(g)
    best = math.inf
    for x in range(len(g) - 2, -1, -1):
        best = min(best, c_bar * (x + 1) + g[x + 1])
        out[x] = K + best - c_bar * x
    return np.array(out)


def _chain(spec, kt, C, stop_at, may_stop):
    """V(0, x) at the full budget for every x, stopping forced at ``stop_at``
    and, when ``may_stop``, admissible at every earlier epoch too."""
    p = kt.params
    x = np.arange(kt.x_max + 1)

    def stop(t):
        return p.c4 * x + kt.stop_tail[t]

    # remaining orders: None for an unlimited budget, else 0..budget
    budgets = [None] if spec.order_budget is None else list(range(spec.order_budget + 1))
    W = {z: stop(stop_at) for z in budgets}
    for t in range(stop_at - 1, -1, -1):
        pmf, tail = kt.pmfs[t], kt.pmf_tails[t]
        G = {z: C[t] + math.exp(-p.delta) * _expect(W[z], pmf, tail[-1]) for z in budgets}
        may_order = t == 0 or spec.first_order is FirstOrder.FREE
        for z in budgets:
            value = G[z]
            if may_order and z != 0:
                value = np.minimum(value, _best_order(G[z if z is None else z - 1], p.K, p.c_bar))
            if may_stop:
                value = np.minimum(value, stop(t))
            W[z] = value
    return W[budgets[-1]]


def original_form_values(spec, kt, C=None):
    """The original form's optimal total cost for every starting inventory,
    on the one-period cost rows ``C`` (by default ``original_rows(kt)``).  A
    STATIC spec takes, per x, its best forced-stop epoch."""
    if C is None:
        C = original_rows(kt)[2]
    T = kt.horizon
    if spec.stop_mode is StopMode.STATIC:
        return np.min([_chain(spec, kt, C, k, False) for k in range(T + 1)], axis=0)
    return _chain(spec, kt, C, T, spec.stop_mode is StopMode.DYNAMIC)


def solve_original_form(spec, kt, x0):
    """The original form's total cost from x0.

    It equals ``solve``'s V + A (the identity V = V~ + A) under
    ``LostSalesConvention.ARRIVAL`` only.  Under PAPER the reformulated cost
    C~ at x = 0 keeps the arrival accounting while C follows the printed sum,
    so the two disagree: on the base case at K=1000, x0=0 this form is lower
    by 134 for D/inf/F, 37 for D/1/Z and 788 for T/inf/F (1.4%)."""
    if not 0 <= x0 <= kt.x_max:
        raise ValueError(f"x0 must lie in 0..{kt.x_max}")
    return float(original_form_values(spec, kt)[x0])
