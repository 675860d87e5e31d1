"""Inner loops of the solver and the simulator, vectorised with numpy.

  * ev_clamped - clamped one-period expectation  EV[y] = E[V((y - D)^+)]
  * push_clamped - its transpose, the law of (y - D)^+ for y drawn from q
  * suffix_min - suffix minimum along the last axis with smallest-index argmin
                 (order-up-to search)
  * sim_period - one period of the Monte Carlo sweep across all paths

Callers reach these by module attribute (``_backends.ev_clamped``), so a test
can swap in the scalar oracles of ``tests/scalar_kernels.py``.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the numeric path; numpy is the only one."""
    return "numpy"


def _clamped_tail(pmf, tail, n):
    """tail[min(y, s)] for y = 0..n-1, s the pmf support: the chance that
    demand reaches past y, truncated residual included, so stock hits 0."""
    return tail[np.minimum(np.arange(n), len(pmf) - 1)]


def ev_clamped(V, pmf, tail):
    # tail[j] = 1 - sum_{n<=j} pmf[n]; demand beyond y (and truncated residual
    # mass) lands on inventory 0.
    n = len(V)
    return np.convolve(V, pmf)[:n] + V[0] * _clamped_tail(pmf, tail, n)


def push_clamped(q, pmf, tail):
    """Law of (y - D)^+ for y ~ q, the transpose of ``ev_clamped``: mass at y
    moves to y - d with pmf[d], and demand beyond y (with the truncated
    residual) lands on 0."""
    n, s = len(q), len(pmf) - 1
    out = np.correlate(q, pmf, "full")[s:s + n]
    out[0] += np.dot(q, _clamped_tail(pmf, tail, n))
    return out


def suffix_min(W):
    """Suffix minimum along the last axis and, on ties, the smallest index
    attaining it."""
    n = W.shape[-1]
    rev = W[..., ::-1]
    run = np.minimum.accumulate(rev, axis=-1)
    prev = np.concatenate((np.full(W.shape[:-1] + (1,), np.inf), run[..., :-1]), axis=-1)
    upd = rev <= prev  # ties update, so the scan prefers smaller y
    pos = np.where(upd, np.arange(n), 0)
    last = np.maximum.accumulate(pos, axis=-1)
    args = (n - 1) - last
    return run[..., ::-1].copy(), args[..., ::-1].copy()


def sim_period(stock, stopped, cost, u, counts, k, c1, c2b, c3b, gamma, delta):
    """Advance all paths through [k, k+1); mutates stock and cost in place.

    u is (paths, nmax) with row p holding counts[p] sorted arrival times and
    k+1 in the padding slots.
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
