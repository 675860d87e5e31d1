"""Inner loops of the solver and the simulator, vectorised with numpy.

  * toeplitz_block - the banded Toeplitz block of a demand pmf, which lowers
                     its convolution to one matrix product
  * ev_clamped - clamped one-period expectation  EV[y] = E[V((y - D)^+)],
                 for every row of V at once
  * push_clamped - its transpose, the law of (y - D)^+ for y drawn from each
                   row of q
  * suffix_min - suffix minimum along the last axis (order-up-to search)
  * suffix_argmin - the smallest index attaining it (the order-up-to level)
  * period_tables - conditional expected period costs given the arrival count
  * period_lookups - the same folded into flat lookups over (count, stock)
  * sim_period - one period of the Monte Carlo sweep across all paths, two
                 gathers per path

Callers reach these by module attribute (``_backends.ev_clamped``), so a test
can swap in the scalar oracles of ``tests/scalar_kernels.py``.
"""

from __future__ import annotations

import numpy as np

from ._poisson import hyp1f1_neg

B = 32  # cells per output block of the blocked Toeplitz product


def active_backend() -> str:
    """Name of the numeric path; numpy is the only one."""
    return "numpy"


def _clamped_tail(pmf, tail, n):
    """tail[min(y, s)] for y = 0..n-1, s the pmf support: the chance that
    demand reaches past y, truncated residual included, so stock hits 0."""
    return tail[np.minimum(np.arange(n), len(pmf) - 1)]


def _window(a, shape, strides, offset=0):
    """A read-only view of the contiguous array a, strides and offset in
    cells.  ``np.ndarray`` over a read-only buffer of a checks that the view
    stays inside it; ``as_strided`` checks nothing and builds each view
    through ``__array_interface__``, which at a backward pass's thousands of
    calls held sweep384's peak RSS about 3 MB higher."""
    return np.ndarray(shape, a.dtype, memoryview(a).toreadonly(), offset * a.itemsize,
                      tuple(c * a.itemsize for c in strides))


def toeplitz_block(pmf):
    """The (B + m - 1) x B block T[i, j] = pmf[j + m - 1 - i] (0 outside the
    pmf), m = len(pmf), as a C-contiguous array: B outputs of the
    convolution with pmf are one block of B + m - 1 inputs times T.  T's
    rows are the B-cell windows over the pmf, padded with B - 1 zeros on
    each side, last window first."""
    m = len(pmf)
    w = np.zeros(m + 2 * B - 2)
    w[B - 1:B - 1 + m] = pmf
    return _window(w, (B + m - 1, B), (-1, 1), offset=B + m - 2).copy()


def _convolve_rows(V, T):
    """np.convolve(v, pmf)[:n] for every row v of V, T = the pmf's
    ``toeplitz_block``: each row, padded with m - 1 leading zeros, is
    read as overlapping blocks of B + m - 1 cells at stride B, and all the
    blocks of all the rows are multiplied by T in one ``matmul``.  The
    result is a view of the product's rows of ceil(n / B) B cells."""
    n, k = V.shape[-1], len(T) - B  # k = m - 1
    nb = -(-n // B)
    P = np.zeros(V.shape[:-1] + (nb * B + k,))
    P[..., k:k + n] = V
    P = P.reshape(-1, P.shape[-1])
    blocks = _window(P, (len(P), nb, B + k), (P.shape[1], B, 1))
    return np.matmul(blocks, T).reshape(V.shape[:-1] + (nb * B,))[..., :n]


def ev_clamped(V, pmf, tail, T):
    """E[V((y - D)^+)] for every row of V (the last axis; a 1-D V is one row),
    T = ``toeplitz_block(pmf)``.

    tail[j] = 1 - sum_{n<=j} pmf[n]; demand beyond y (and the truncated
    residual mass) lands on inventory 0.  One blocked Toeplitz product for
    all rows, and the tail term added to it in place for all rows at once."""
    out, s = _convolve_rows(V, T), len(pmf) - 1
    v0 = V[..., :1]  # the tail term is v0 tail[min(y, s)]: one number past s
    out[..., :s] += v0 * tail[:min(s, V.shape[-1])]
    out[..., s:] += v0 * tail[s]
    return out


def push_clamped(q, pmf, tail, T):
    """Law of (y - D)^+ for y ~ q, for every row of q (the last axis; a 1-D q
    is one row), the transpose of ``ev_clamped``: mass at y moves to y - d
    with pmf[d], and demand beyond y (with the truncated residual) lands on 0.
    The correlation is the blocked convolution of the reversed rows, and the
    result a reversed view of it."""
    out = _convolve_rows(q[..., ::-1], T)[..., ::-1]
    out[..., 0] += q @ _clamped_tail(pmf, tail, q.shape[-1])
    return out


def suffix_min(W):
    """Suffix minimum along the last axis: out[..., y] = min(W[..., y:]), as
    a C-contiguous array (the scan writes the reversed view of its output)."""
    out = np.empty(W.shape, W.dtype)
    np.minimum.accumulate(W[..., ::-1], axis=-1, out=out[..., ::-1])
    return out


def suffix_argmin(W, mins):
    """The smallest index y' >= y with W[..., y'] = mins[..., y], for
    ``mins = suffix_min(W)``: the first y' >= y where W meets its own suffix
    minimum."""
    n = W.shape[-1]
    first = np.where(W == mins, np.arange(n), n)
    return np.minimum.accumulate(first[..., ::-1], axis=-1)[..., ::-1]


def period_tables(counts, x_max, delta, gamma):
    """Expected discounted costs of one unit period given its arrival count.

    Given n arrivals in [0, 1), they are uniform order statistics and the
    j-th is U_j ~ Beta(j, n - j + 1), so E[e^{-a U_j}] = 1F1(j; n+1; -a)
    (``_poisson.hyp1f1_neg``, a Poisson(a) mixture of positive terms).
    The segment from arrival j to arrival j+1 (arrival 0 at 0, arrival n+1
    at 1) has expected discounted length 1F1(j+1; n+2; -delta) / (n+1).
    Returns ``(ns, hold, hold_j, lost_d, lost_dg)``: row r is for the r-th
    distinct value n = ns[r] of ``counts`` (ascending; marked one period
    column of ``counts`` at a time on flags from the smallest count to the
    largest, so a high rate allocates no flag from 0 and ``counts`` is not
    copied whole), and for m = min(stock, n) in
    0..min(max n, x_max)
      hold[r, m], hold_j[r, m]  sum over segments j <= m of E[seg_j], j E[seg_j]
      lost_a[r, m]  sum over arrivals j = m+1..n of E[e^{-a U_j}], for
                    a = delta and a = delta + gamma
    The lost sums are the row total n 1F1(1; 2; -a) minus a prefix, so
    columns past min(n, x_max) are never needed.
    """
    lo = counts.min()
    seen = np.zeros(counts.max() - lo + 1, dtype=bool)
    for row in counts.T:  # the simulator's counts are a transposed view: rows are contiguous
        seen[row - lo] = True
    ns = np.flatnonzero(seen) + lo
    n = ns[:, None].astype(float)
    j = np.arange(min(int(ns[-1]), x_max) + 1)
    # 1F1 runs only on the cells read: j <= n, and j >= 1 for the arrivals
    r, c = np.nonzero(j <= n)
    nr, jc = n[r, 0], j[c]
    seg = np.zeros((len(ns), len(j)))
    seg[r, c] = hyp1f1_neg(jc + 1, nr + 2, delta) / (nr + 1)
    arr = jc >= 1

    def lost(a):
        arrivals = np.zeros(seg.shape)
        arrivals[r[arr], c[arr]] = hyp1f1_neg(jc[arr], nr[arr] + 1, a)
        return n * hyp1f1_neg(1, 2, a) - np.cumsum(arrivals, axis=1)

    return (ns, np.cumsum(seg, axis=1), np.cumsum(j * seg, axis=1),
            lost(delta), lost(delta + gamma))


def period_lookups(tables, top, params):
    """Flat per-path lookups of one period's expected costs, from the
    ``period_tables`` of the counts and for post-decision stocks up to
    ``top``.

    Returns ``(row_start, hold_cost, lost_dg)``.  Cell ``row_start[n] + p``
    is for count n and post-decision stock p, or p = -1 on stopped paths
    (stock 0):
      hold_cost  c1 (stock hold - hold_j) + c2_bar lost_d, undiscounted,
                 without the lost-sales term on stopped paths
      lost_dg    lost_dg itself, the arrivals that pay c3
    with every table read at column min(stock, n).  A table's columns past
    n repeat column n, so column min(stock, width - 1) holds the same value.
    """
    ns, hold, hold_j, lost_d, lost_dg = tables
    post = np.arange(-1, top + 1)
    stock = np.maximum(post, 0)
    col = np.minimum(stock, hold.shape[1] - 1)
    hold_cost = hold.take(col, axis=1)
    hold_cost *= stock
    hold_cost -= hold_j.take(col, axis=1)
    hold_cost *= params.c1
    lost = lost_d.take(col, axis=1)
    lost[:, 0] = 0.0
    lost *= params.c2_bar
    hold_cost += lost
    del lost
    row_start = np.zeros(ns[-1] + 1, dtype=np.intp)
    row_start[ns] = np.arange(len(ns)) * len(post) + 1
    return row_start, hold_cost.ravel(), lost_dg.take(col, axis=1).ravel()


def sim_period(cost, post, counts, tables, k, params):
    """Add each path's expected cost over [k, k+1) given its arrival count.

    ``post`` is the stock after epoch k's decisions, -1 on stopped paths, and
    ``tables`` come from ``period_lookups`` over counts that include these.
    Holding costs c1 per unit and time, a lost arrival at u costs c2(u), and
    a stopped path pays c3(u) for every arrival.  Period k enters only
    through e^{-delta k} and e^{-(delta+gamma) k}: two gathers on one flat
    index per path.
    """
    row_start, hold_cost, lost_dg = tables
    cell = row_start.take(counts)
    cell += post
    term = hold_cost.take(cell)
    term *= np.exp(-params.delta * k)
    cost += term
    lost_dg.take(cell, out=term)
    term *= np.exp(-(params.delta + params.gamma) * k) * params.c3_bar
    cost += term
