"""Exact expected discounted cost primitives.

With the intensity constant on each unit interval, every kernel reduces to
integrals of the form

    int_0^1 e^{-a s} e^{-lam s} (lam s)^i / i! ds
        = (lam / b)^i * gammainc(i+1, b) / b,      b = a + lam,

where gammainc is the regularized lower incomplete gamma function.  Closed
form is the production path; fixed-order Gauss-Legendre quadrature of the
same integrand is kept alongside as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainc

from . import _poisson as poisson
from .costs import CostParameters, LostSalesConvention
from .demand import IntensityModel
from .errors import OutOfGrid

PMF_TAIL_EPS = 1e-12  # one-period demand support truncated at this tail mass


def unit_poisson_integrals(lam: float, decay: float, imax: int) -> np.ndarray:
    """P_i = int_0^1 e^{-decay*s} * Poisson_i(lam*s) ds for i = 0..imax."""
    if lam < 0 or decay < 0:
        raise ValueError("lam and decay must be non-negative")
    return _unit_poisson_rows(np.array([float(lam)]), decay, np.array([imax]))[0]


def _unit_poisson_rows(rates: np.ndarray, decay: float, imax: np.ndarray) -> np.ndarray:
    """Row k holds unit_poisson_integrals(rates[k], decay, imax[k]), zero past
    imax[k]; one gammainc evaluation for every row."""
    i = np.arange(imax.max() + 1)
    out = np.zeros((len(rates), len(i)))
    pos = rates > 0
    lam = rates[pos, None]
    b = decay + lam
    # (lam/b)^i in log space; gammainc underflows cleanly to 0 in the far tail
    ratio = np.exp(i * (np.log(lam) - np.log(b)))
    out[pos] = np.where(i <= imax[pos, None], ratio * gammainc(i + 1, b) / b, 0.0)
    out[~pos, 0] = (1.0 - np.exp(-decay)) / decay if decay > 0 else 1.0
    return out


def unit_poisson_integrals_quadrature(
    lam: float, decay: float, imax: int, order: int = 64
) -> np.ndarray:
    """Same integrals by fixed-order Gauss-Legendre; the self-check route."""
    nodes, weights = leggauss(order)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    vals = poisson.pmf(np.arange(imax + 1)[:, None], lam * s[None, :])
    return vals @ (w * np.exp(-decay * s))


def _support_caps(rates: np.ndarray) -> np.ndarray:
    """Per-period cap on the kernel sums: the 1 - 1e-15 demand quantile + 10."""
    caps = np.ones(len(rates), dtype=np.int64)
    pos = rates > 0
    caps[pos] = poisson.ppf(1.0 - 1e-15, rates[pos]).astype(np.int64) + 10
    return caps


def _support_cap(lam: float) -> int:
    return int(_support_caps(np.array([lam]))[0])


def period_pmfs(rates) -> tuple[list, list]:
    """Per-period demand pmfs on 0..n_k and tails P{N > n}, truncated at
    PMF_TAIL_EPS tail mass; one pmf and one sf evaluation for all periods."""
    rates = np.asarray(rates, dtype=np.float64)
    n_sup = np.zeros(len(rates), dtype=np.int64)
    pos = rates > 0
    n_sup[pos] = poisson.ppf(1.0 - PMF_TAIL_EPS, rates[pos]).astype(np.int64) + 1
    grid = np.arange(n_sup.max() + 1)
    pmf = poisson.pmf(grid, rates[:, None])
    tail = np.maximum(poisson.sf(grid, rates[:, None]), 0.0)
    return ([row[: n + 1] for row, n in zip(pmf, n_sup)],
            [row[: n + 1] for row, n in zip(tail, n_sup)])


def _period_integrals(params: CostParameters, rates: np.ndarray, periods: np.ndarray,
                      imax: np.ndarray):
    """Building blocks on [k, k+1) for each period k of ``periods`` (rates and
    imax aligned with it): P0 (weight e^{-delta s}) and the c2-weighted
    arrival integrals R_i as rows zero past imax[k], then per period the
    plain c2/c3 arrival integrals and the premium integral."""
    d, g = params.delta, params.gamma
    P0 = _unit_poisson_rows(rates, d, imax)
    Pg = _unit_poisson_rows(rates, d + g, imax)
    B0 = rates * ((1.0 - np.exp(-d)) / d if d > 0 else 1.0)
    Bg = rates * ((1.0 - np.exp(-(d + g))) / (d + g) if d + g > 0 else 1.0)
    c3k = params.c3_bar * np.exp(-g * periods)
    # int e^{-d s} c2 lam pmf_i
    R_c2 = (params.c2_bar * rates)[:, None] * P0 + (c3k * rates)[:, None] * Pg
    c2_full = params.c2_bar * B0 + c3k * Bg  # int e^{-d s} c2 lam
    c3_full = c3k * Bg  # int e^{-d s} c3 lam
    return P0, R_c2, c2_full, c3_full, params.c2_bar * B0


def _one_period(params: CostParameters, model: IntensityModel, k: int, imax: int):
    """_period_integrals of period k alone."""
    rows = _period_integrals(params, model.rates[k:k + 1], np.array([k]), np.array([imax]))
    return [a[0] for a in rows]


def _check_period(params: CostParameters, model: IntensityModel, k: int, upper: int | None = None):
    hi = params.horizon - 1 if upper is None else upper
    if not (0 <= k <= hi):
        raise OutOfGrid(f"period k={k} outside 0..{hi}")
    if params.horizon != model.horizon:
        raise ValueError("cost parameters and intensity model disagree on the horizon")


def holding_cost(params: CostParameters, model: IntensityModel, k: int, x: int) -> float:
    """Expected discounted holding cost over period k starting with x units."""
    _check_period(params, model, k)
    if x < 0:
        raise OutOfGrid("inventory must be non-negative")
    if x == 0:
        return 0.0
    lam = float(model.rates[k])
    imax = min(x - 1, _support_cap(lam))
    P0 = unit_poisson_integrals(lam, params.delta, imax)
    q = np.cumsum(P0)  # q[n] = int e^{-delta s} P{N <= n} ds
    full = np.sum(q[: min(x, len(q))])
    if x > len(q):
        full += (x - len(q)) * q[-1]
    return params.c1 * float(full)


def replacement_cost(
    params: CostParameters,
    model: IntensityModel,
    convention: LostSalesConvention,
    k: int,
    x: int,
) -> float:
    """Expected discounted lost-sales cost over period k starting with x units."""
    _check_period(params, model, k)
    if x < 0:
        raise OutOfGrid("inventory must be non-negative")
    lam = float(model.rates[k])
    upper = x if convention is LostSalesConvention.PAPER else x - 1
    imax = min(upper, _support_cap(lam))
    _, R_c2, c2_full, _, _ = _one_period(params, model, k, max(imax, 0))
    sub = float(np.sum(R_c2[: imax + 1])) if upper >= 0 else 0.0
    return max(c2_full - sub, 0.0)  # exact tail cancels to rounding noise


def one_period_cost(params, model, convention, k: int, x: int) -> float:
    return holding_cost(params, model, k, x) + replacement_cost(params, model, convention, k, x)


def period_c3_term(params: CostParameters, model: IntensityModel, k: int) -> float:
    """int_k^{k+1} e^{-delta(u-k)} c3(u) lam(u) du."""
    _check_period(params, model, k)
    lam = float(model.rates[k])
    dg = params.delta + params.gamma
    Bg = lam * ((1.0 - np.exp(-dg)) / dg if dg > 0 else 1.0)
    return params.c3_bar * np.exp(-params.gamma * k) * Bg


def stopping_cost(params: CostParameters, model: IntensityModel, k: int, x: int) -> float:
    """Scrap plus the expected discounted outside-source stream from k to T."""
    _check_period(params, model, k, upper=params.horizon)
    if x < 0:
        raise OutOfGrid("inventory must be non-negative")
    tail = sum(
        np.exp(-params.delta * (j - k)) * period_c3_term(params, model, j)
        for j in range(k, params.horizon)
    )
    return params.c4 * x + float(tail)


def reformulated_cost(params, model, convention, k: int, x: int) -> float:
    """One-period cost net of the policy-independent outside-source stream.

    At x = 0 this is the lost-sales premium integral; for x >= 1 the final
    sum's upper index follows the active convention.
    """
    _check_period(params, model, k)
    if x < 0:
        raise OutOfGrid("inventory must be non-negative")
    lam = float(model.rates[k])
    upper = x if convention is LostSalesConvention.PAPER else x - 1
    imax = min(upper, _support_cap(lam))
    _, R_c2, _, _, prem_full = _one_period(params, model, k, max(imax, 0))
    if x == 0:
        return float(prem_full)
    sub = float(np.sum(R_c2[: imax + 1])) if upper >= 0 else 0.0
    return holding_cost(params, model, k, x) + prem_full - sub


def constant_A(params: CostParameters, model: IntensityModel) -> float:
    """E of the discounted outside-source cost of every arrival on [0, T]."""
    return stopping_cost(params, model, 0, 0)


@dataclass(frozen=True, eq=False)
class KernelTable:
    """All per-(period, inventory) kernels plus solver-ready demand pmfs.

    Arrays are (T, x_max+1); ``stop_tail[k]`` is the integral part of the
    stopping cost from epoch k, so S(k, x) = c4*x + stop_tail[k] and
    A = stop_tail[0].
    """

    params: CostParameters
    model: IntensityModel
    convention: LostSalesConvention
    x_max: int
    H: np.ndarray
    L: np.ndarray
    C: np.ndarray
    C_tilde: np.ndarray
    c3_period: np.ndarray
    stop_tail: np.ndarray
    A: float
    pmfs: list
    pmf_tails: list

    @property
    def horizon(self) -> int:
        return self.params.horizon


def build_kernel_table(
    params: CostParameters,
    model: IntensityModel,
    convention: LostSalesConvention = LostSalesConvention.ARRIVAL,
    x_max: int = 1200,
) -> KernelTable:
    """Build every kernel with cumulative-sum reuse in x.

    The double sum in the holding kernel and the satisfied-demand sum in the
    replacement kernel are running sums over i, so the whole table costs
    O(T * x_max) beyond the per-period integral arrays, which are built for
    all periods in one vectorised pass.
    """
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    if params.horizon != model.horizon:
        raise ValueError("cost parameters and intensity model disagree on the horizon")
    T, X = params.horizon, x_max
    rates = np.asarray(model.rates, dtype=np.float64)
    caps = np.minimum(_support_caps(rates), X)
    P0, R_c2, c2_full, c3_period, prem_full = _period_integrals(params, rates, np.arange(T), caps)

    def running_sum(rows):  # cumsum over i, held at its last value past the cap
        out = np.zeros((T, X + 1))
        out[:, : rows.shape[1]] = rows
        return np.cumsum(out, axis=1, out=out)

    # in-place steps keep the peak near the four (T, X+1) arrays returned
    q = running_sum(P0)
    H = np.zeros((T, X + 1))
    np.multiply(np.cumsum(q, axis=1, out=q)[:, :-1], params.c1, out=H[:, 1:])
    sub = running_sum(R_c2)  # sum_{i<=x}
    if convention is LostSalesConvention.ARRIVAL:
        sub[:, 1:] = sub[:, :-1]  # sum_{i<=x-1}, empty at x=0
        sub[:, 0] = 0.0
    L = np.subtract(c2_full[:, None], sub, out=q)
    np.maximum(L, 0.0, out=L)
    Ct = H + prem_full[:, None]
    Ct -= sub
    Ct[:, 0] = prem_full  # x = 0 case is the premium integral in both modes
    del sub
    pmfs, pmf_tails = period_pmfs(rates)

    stop_tail = np.zeros(T + 1)
    for k in range(T - 1, -1, -1):
        stop_tail[k] = c3_period[k] + np.exp(-params.delta) * stop_tail[k + 1]

    return KernelTable(
        params=params,
        model=model,
        convention=convention,
        x_max=X,
        H=H,
        L=L,
        C=H + L,
        C_tilde=Ct,
        c3_period=c3_period,
        stop_tail=stop_tail,
        A=float(stop_tail[0]),
        pmfs=pmfs,
        pmf_tails=pmf_tails,
    )
