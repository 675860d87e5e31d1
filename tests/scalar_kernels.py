"""Reference kernels: the oracles the numpy inner loops are tested against.

``_ev_clamped_loop`` and ``_suffix_min_loop`` take the same arguments as
their namesakes in ``eolstop._backends`` and return the same result one
scalar at a time.  Plain Python, so slow; keep the instances small.

The simulator adds each period's expected cost given its arrival count
(``_backends.sim_period``).  Its oracle is exact accrual over sampled
arrivals: ``_sim_period_exact`` (vectorised) and ``_sim_period_loop``
(scalar) accrue one period on the same sorted arrival times, and
``exact_accrual`` fits either into ``evaluate_policy`` in place of
``_backends.sim_period``.

``period_c3_term`` is one period's outside-source integral, the oracle of
the kernel table's ``c3_period`` row.
"""

import math

import numpy as np

from eolstop.sim import _sorted_period_arrivals


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
    ``_sim_period_loop``)."""
    rng = np.random.default_rng(seed)

    def sim_period(cost, stock, stopped, counts, tables, k, params):
        u = _sorted_period_arrivals(rng, k, counts)
        period(stock.copy(), stopped, cost, u, counts, k,
               params.c1, params.c2_bar, params.c3_bar, params.gamma, params.delta)

    return sim_period
