"""Scalar reference kernels: the oracles the numpy inner loops are tested against.

Each function takes the same arguments as its namesake in
``eolstop._backends`` (without the ``_loop`` suffix) and returns, or
accumulates in place, the same result one scalar at a time.  Plain Python,
so slow; keep the instances small.
"""

import math

import numpy as np


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
