"""Reference kernels: the oracles the numpy inner loops are tested against.

``_ev_clamped_loop`` and ``_suffix_min_loop`` take the same arguments as
their namesakes in ``eolstop._backends`` and return the same result one
scalar at a time.  Plain Python, so slow; keep the instances small.

The simulator adds each period's expected cost given its arrival count
(``_backends.sim_period``).  Its oracle is exact accrual over sampled
arrivals: ``_sim_period_exact`` (vectorised) and ``_sim_period_loop``
(scalar) accrue one period on the same sorted arrival times, and
``exact_accrual`` fits either into ``evaluate_policy`` in place of
``_backends.sim_period``, counting its calls.

``walk_reference``, ``sim_period_rows``, ``evaluate_policy_reference`` and
``stopping_times_reference`` are the simulator's stepper in its direct form:
per epoch, masks of the paths that stop and order, and each period's costs
read from the rows of ``_backends.period_tables`` that ``np.searchsorted``
finds.  The table-driven stepper of ``eolstop.sim`` must give the same
numbers, bit for bit.

``period_c3_term`` is one period's outside-source integral, the oracle of
the kernel table's ``c3_period`` row.
"""

import math

import numpy as np

from eolstop import _backends, sim
from eolstop.errors import UnreachableState
from eolstop.sim import _sorted_period_arrivals
from eolstop.solver import ORDER, STOP


def _ev_clamped_loop(V, pmf, tail):
    n = len(V)
    s = len(pmf) - 1
    out = np.empty(n)
    for y in range(n):
        m = min(y, s)
        acc = V[0] * tail[m]
        for d in range(m + 1):
            acc += pmf[d] * V[y - d]
        out[y] = acc
    return out


def period_c3_term(params, model, k):
    """int_k^{k+1} e^{-delta(u-k)} c3(u) lam(u) du
    = c3(k) lam_k int_0^1 e^{-(delta+gamma) s} ds, one scalar at a time."""
    a = params.delta + params.gamma
    unit = (1.0 - math.exp(-a)) / a if a > 0 else 1.0
    return float(params.c3_bar * math.exp(-params.gamma * k) * model.rates[k] * unit)


def _suffix_min_loop(W):
    n = len(W)
    vals = np.empty(n)
    args = np.empty(n, dtype=np.int64)
    best = np.inf
    barg = n - 1
    for y in range(n - 1, -1, -1):
        if W[y] <= best:
            best = W[y]
            barg = y
        vals[y] = best
        args[y] = barg
    return vals, args


def _sim_period_loop(stock, stopped, cost, u, counts, k, c1, c2b, c3b, gamma, delta):
    P = stock.shape[0]
    for p in range(P):
        n = counts[p]
        if stopped[p]:
            for j in range(n):
                uj = u[p, j]
                cost[p] += math.exp(-delta * uj) * c3b * math.exp(-gamma * uj)
            continue
        s = stock[p]
        t_prev = float(k)
        acc = 0.0
        for j in range(n):
            uj = u[p, j]
            if s > 0:
                if delta > 0:
                    acc += s * (math.exp(-delta * t_prev) - math.exp(-delta * uj)) / delta
                else:
                    acc += s * (uj - t_prev)
                s -= 1
            else:
                cost[p] += math.exp(-delta * uj) * (c2b + c3b * math.exp(-gamma * uj))
            t_prev = uj
        if s > 0:
            if delta > 0:
                acc += s * (math.exp(-delta * t_prev) - math.exp(-delta * (k + 1.0))) / delta
            else:
                acc += s * (k + 1.0 - t_prev)
        cost[p] += c1 * acc
        stock[p] = s


def _sim_period_exact(stock, stopped, cost, u, counts, k, c1, c2b, c3b, gamma, delta):
    """Exact accrual over [k, k+1) across all paths, vectorised; mutates
    stock and cost in place.

    u is (paths, nmax) with row p holding counts[p] sorted arrival times and
    k+1 in the padding slots.  Holding integrates over each constant segment,
    and each lost or post-stop arrival pays its cost at its arrival instant.
    """
    nmax = u.shape[1]
    j = np.arange(nmax)
    real = j[None, :] < counts[:, None]
    disc_u = np.exp(-delta * u)
    c2_u = c2b + c3b * np.exp(-gamma * u)
    c3_u = c3b * np.exp(-gamma * u)

    stopped_paths = stopped & (counts > 0)
    if stopped_paths.any():
        cost[stopped_paths] += np.sum(
            np.where(real[stopped_paths], disc_u[stopped_paths] * c3_u[stopped_paths], 0.0),
            axis=1,
        )

    act = ~stopped
    if not act.any():
        return
    y = stock[act]
    ua = u[act]
    na = counts[act]
    # event grid k = e_0 < arrivals < e_{nmax+1} = k+1; padding collapses to
    # zero-length segments at k+1
    events = np.concatenate(
        (np.full((ua.shape[0], 1), float(k)), ua, np.full((ua.shape[0], 1), k + 1.0)), axis=1
    )
    if delta > 0:
        d = np.exp(-delta * events)
        seg = (d[:, :-1] - d[:, 1:]) / delta
    else:
        seg = events[:, 1:] - events[:, :-1]
    lvl = np.maximum(y[:, None] - np.arange(nmax + 1)[None, :], 0)  # stock during segment j
    cost[act] += c1 * np.sum(lvl * seg, axis=1)

    lost = (j[None, :] >= y[:, None]) & (j[None, :] < na[:, None])
    cost[act] += np.sum(np.where(lost, disc_u[act] * c2_u[act], 0.0), axis=1)
    stock[act] = np.maximum(y - na, 0)


def exact_accrual(period, seed):
    """A stand-in for ``_backends.sim_period``: it draws the sorted arrival
    times of every path from a generator of its own, seeded by ``seed``, and
    accrues them with ``period`` (``_sim_period_exact`` or
    ``_sim_period_loop``).  Its ``calls`` attribute counts the periods it
    accrued, so that a test can tell that the simulator called it."""
    rng = np.random.default_rng(seed)

    def sim_period(cost, post, counts, tables, k, params):
        sim_period.calls += 1
        u = _sorted_period_arrivals(rng, k, counts)
        period(np.maximum(post, 0), post < 0, cost, u, counts, k,
               params.c1, params.c2_bar, params.c3_bar, params.gamma, params.delta)

    sim_period.calls = 0
    return sim_period


def walk_reference(policy, x0, counts):
    """Step every path through ``policy`` from stock x0, period k taking
    ``counts[:, k]`` units of demand (lost once stock runs out).

    At each epoch k = 0..T, after the epoch's decisions and before its
    period's demand, yields ``(k, stop_now, scrap, qty, stock, stopped)``:
    the paths stopping at k and the stock they scrap, each path's order
    quantity (0 for no order), and the state after the decisions.
    """
    paths, T = counts.shape
    # epoch k's (x, z) table as one row, cell z * (X+1) + x
    width = policy.action.shape[1]
    actions, targets = (np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(T + 1, -1)
                        for g in (policy.action, policy.target))
    stock = np.full(paths, x0, dtype=np.int64)
    zvec = np.full(paths, policy.z0, dtype=np.int64)
    stopped = np.zeros(paths, dtype=bool)
    for k in range(T + 1):
        cell = zvec * width + stock
        act = actions[k][cell]
        tgt = targets[k][cell]
        stop_now = ~stopped & (act == STOP)
        scrap = np.where(stop_now, stock, 0)
        stopped = stopped | stop_now
        order_now = ~stopped & (act == ORDER)
        qty = np.where(order_now, tgt - stock, 0)
        if np.any(qty[order_now] <= 0):
            raise UnreachableState("policy order target does not exceed current stock")
        stock = np.where(stopped, 0, stock + qty)
        if policy.spec.order_budget is not None:
            zvec -= order_now
        yield k, stop_now, scrap, qty, stock, stopped
        if k < T:
            stock = np.maximum(stock - counts[:, k], 0)


def sim_period_rows(cost, stock, stopped, counts, tables, k, params):
    """One period's expected costs from the raw ``period_tables``: the row
    of each count by ``np.searchsorted`` and cells read as table[row, m],
    m = min(stock, count); ``stock`` is 0 on stopped paths."""
    ns, hold, hold_j, lost_d, lost_dg = tables
    row = np.searchsorted(ns, counts)
    m = np.minimum(stock, counts)
    cost += np.exp(-params.delta * k) * (
        params.c1 * (stock * hold[row, m] - hold_j[row, m])
        + params.c2_bar * np.where(stopped, 0.0, lost_d[row, m]))
    cost += np.exp(-(params.delta + params.gamma) * k) * params.c3_bar * lost_dg[row, m]


def evaluate_policy_reference(policy, params, model, x0, paths, seed):
    """(mean, standard error) of ``sim.evaluate_policy`` on the same counts,
    by ``walk_reference`` and ``sim_period_rows``."""
    counts = sim._draw_counts(policy, model, x0, paths, seed)
    tables = _backends.period_tables(counts, policy.x_max, params.delta, params.gamma)
    cost = np.zeros(paths)
    for k, _, scrap, qty, stock, stopped in walk_reference(policy, x0, counts):
        cost += np.exp(-params.delta * k) * (
            params.c4 * scrap + np.where(qty > 0, params.K + params.c_bar * qty, 0.0))
        if k < model.horizon:
            sim_period_rows(cost, stock, stopped, counts[:, k], tables, k, params)
    return float(cost.mean()), float(cost.std(ddof=1) / np.sqrt(paths))


def stopping_times_reference(policy, model, x0, paths, seed):
    """``sim.sample_stopping_times`` by ``walk_reference``."""
    counts = sim._draw_counts(policy, model, x0, paths, seed)
    tau = np.full(paths, model.horizon, dtype=np.int64)
    for k, stop_now, *_ in walk_reference(policy, x0, counts):
        tau[stop_now] = k
    return tau
