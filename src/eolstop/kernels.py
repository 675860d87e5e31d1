"""Exact expected discounted cost primitives.

With the intensity constant on each unit interval, every kernel reduces to
integrals of the form

    int_0^1 e^{-a s} e^{-lam s} (lam s)^i / i! ds
        = (lam / b)^i * gammainc(i+1, b) / b,      b = a + lam,

where gammainc(i+1, b) is P{N_b > i} for N_b ~ Poisson(b), read off one
Poisson tail row per period (``_poisson.tail_rows``) up to the period's
support cap.  One row builder, ``_kernel_rows``, turns these into the
holding and reformulated kernels with running sums over the inventory axis,
for every period at once; the kernels are read only as rows of a
``KernelTable``.  The outside-source stream has one home too:
``_c3_period`` per period and ``_stop_tail``, its discounted tail.  The
independent checks are fixed-order Gauss-Legendre quadrature of the same
integrand (``unit_poisson_integrals_quadrature``) and the adaptive-quadrature
oracles of the test suite.

``build_kernel_tables`` builds the tables of several cost-parameter sets on
one intensity model together, sharing the support caps, each decay's
Poisson-integral rows (``_SharedRows``) and the holding block of each
(delta, c1); ``build_kernel_table`` is that call on one set.

A ``KernelTable`` keeps only what the reformulated recursion reads: C_tilde,
the stopping-cost tail and the intensity model, whose demand pmfs it shares
with every other table on that model.  The lost-sales kernel L and the
one-period cost C = H + L of the original form are built from
``_period_integrals`` by the test suite's oracle, ``tests/original_form.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import _poisson as poisson
from .costs import CostParameters, LostSalesConvention
from .demand import IntensityModel


def _unit_integral(a: float):
    """int_0^1 e^{-a s} ds."""
    return (1.0 - np.exp(-a)) / a if a > 0 else 1.0


def unit_poisson_integrals(lam: float, decay: float, imax: int) -> np.ndarray:
    """P_i = int_0^1 e^{-decay*s} * Poisson_i(lam*s) ds for i = 0..imax."""
    if lam < 0 or decay < 0:
        raise ValueError("lam and decay must be non-negative")
    return _unit_poisson_rows(np.array([float(lam)]), decay, np.array([imax]))[0]


def _unit_poisson_rows(rates: np.ndarray, decay: float, imax: np.ndarray) -> np.ndarray:
    """Row k holds unit_poisson_integrals(rates[k], decay, imax[k]), zero past
    imax[k]; one Poisson tail row per positive rate."""
    out = np.zeros((len(rates), imax.max() + 1))
    pos = rates > 0
    lam = rates[pos]
    b = decay + lam
    i = np.arange(out.shape[1])
    # (lam/b)^i in log space; both factors underflow cleanly to 0 in the far tail
    ratio = np.exp(i * (np.log(lam) - np.log(b))[:, None])
    out[pos] = np.where(i <= imax[pos, None],
                        ratio * poisson.tail_rows(b, out.shape[1] - 1)[1] / b[:, None], 0.0)
    out[~pos, 0] = _unit_integral(decay)
    return out


def unit_poisson_integrals_quadrature(
    lam: float, decay: float, imax: int, order: int = 64
) -> np.ndarray:
    """Same integrals by fixed-order Gauss-Legendre; the self-check route."""
    nodes, weights = leggauss(order)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    vals = poisson.term(np.arange(imax + 1)[:, None], lam * s[None, :])
    return vals @ (w * np.exp(-decay * s))


def _support_caps(rates: np.ndarray) -> np.ndarray:
    """Per-period cap on the kernel sums: the smallest k with P{N > k} <= 1e-15,
    plus 10."""
    caps = np.ones(len(rates), dtype=np.int64)
    pos = rates > 0
    caps[pos] = poisson.tail_cutoff(rates[pos], 1e-15).astype(np.int64) + 10
    return caps


def _c3_period(params: CostParameters, rates: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """int_k^{k+1} e^{-delta(u-k)} c3(u) lam du for each period k of ``periods``."""
    return params.c3(periods) * (rates * _unit_integral(params.delta + params.gamma))


def _stop_tail(params: CostParameters, rates: np.ndarray) -> np.ndarray:
    """Expected discounted outside-source cost from epoch k to T, k = 0..T."""
    c3 = _c3_period(params, rates, np.arange(len(rates)))
    tail = np.zeros(len(rates) + 1)
    for k in range(len(rates) - 1, -1, -1):
        tail[k] = c3[k] + np.exp(-params.delta) * tail[k + 1]
    return tail


class _SharedRows:
    """What the kernel rows of every cost-parameter set on one rate vector and
    width share: the support caps (clipped to the width) and the
    Poisson-integral rows of each decay, built on first request.  Called
    with a decay, it returns that decay's rows."""

    def __init__(self, rates: np.ndarray, width: int):
        self.rates, self.width = rates, width
        self.caps = np.minimum(_support_caps(rates), width - 1)
        self._by_decay = {}

    def __call__(self, decay: float) -> np.ndarray:
        if decay not in self._by_decay:
            self._by_decay[decay] = _unit_poisson_rows(self.rates, decay, self.caps)
        return self._by_decay[decay]


def _period_integrals(params: CostParameters, rates: np.ndarray, periods: np.ndarray, rows):
    """Building blocks on [k, k+1) for each period k of ``periods`` (rates
    aligned with it), from ``rows(decay)``, the Poisson-integral rows of a
    decay: P0 (weight e^{-delta s}) and the c2-weighted arrival integrals
    R_i, both zero past each period's cap, then per period the plain c2
    arrival integral (read only by the original form's oracle in
    ``tests/original_form.py``) and the premium integral."""
    d, g = params.delta, params.gamma
    P0, Pg = rows(d), rows(d + g)
    # int e^{-d s} c2 lam pmf_i
    R_c2 = (params.c2_bar * rates)[:, None] * P0 + (params.c3(periods) * rates)[:, None] * Pg
    prem_full = params.c2_bar * (rates * _unit_integral(d))  # int e^{-d s} (c2 - c3) lam
    return P0, R_c2, prem_full + _c3_period(params, rates, periods), prem_full


def _kernel_rows(params: CostParameters, convention: LostSalesConvention,
                 shared: _SharedRows, H=None):
    """H and C_tilde at x = 0..width-1 for each period of ``shared.rates``,
    as (H, C_tilde).

    The double sum in the holding kernel and the satisfied-demand sum in the
    replacement kernel are running sums over i, so the rows cost
    O(periods * width) beyond the per-period integral arrays, which are built
    for all periods in one vectorised pass.  Past the support cap the
    satisfied-demand sum is flat.  H depends on delta and c1 only: ``H``,
    built on ``shared`` with the same two, is used as it is.
    """
    n, width = len(shared.rates), shared.width
    P0, R_c2, _, prem_full = _period_integrals(params, shared.rates, np.arange(n), shared)
    m = P0.shape[1]  # the support columns; every running sum is flat past them

    # in-place steps keep the peak near the (n, width) arrays of the table
    if H is None:
        q = np.empty((n, width))
        np.cumsum(P0, axis=1, out=q[:, :m])
        q[:, m:] = q[:, m - 1:m]
        H = np.zeros((n, width))
        np.multiply(np.cumsum(q, axis=1, out=q)[:, :-1], params.c1, out=H[:, 1:])
        del q
    sub = np.cumsum(R_c2, axis=1)  # sum_{i<=x} at x < m, then flat
    if convention is LostSalesConvention.ARRIVAL:  # sum_{i<=x-1}, empty at x=0
        sub = np.concatenate((np.zeros((n, 1)), sub[:, :width - 1]), axis=1)
    k = sub.shape[1]
    Ct = H + prem_full[:, None]
    Ct[:, :k] -= sub
    Ct[:, k:] -= sub[:, -1:]
    Ct[:, 0] = prem_full  # x = 0 case is the premium integral in both modes
    return H, Ct


def _checked(params: CostParameters, model: IntensityModel):
    """ValueError when the parameters and the model disagree on the horizon."""
    if params.horizon != model.horizon:
        raise ValueError("cost parameters and intensity model disagree on the horizon")


def constant_A(params: CostParameters, model: IntensityModel) -> float:
    """E of the discounted outside-source cost of every arrival on [0, T]."""
    _checked(params, model)
    return float(_stop_tail(params, model.rates)[0])


@dataclass(frozen=True, eq=False)
class KernelTable:
    """The reformulated kernel per (period, inventory), the stopping-cost
    tail and the model's demand pmfs.

    Arrays are (T, x_max+1); ``stop_tail[k]`` is the integral part of the
    stopping cost from epoch k, so S(k, x) = c4*x + stop_tail[k] and
    A = stop_tail[0].
    """

    params: CostParameters
    model: IntensityModel
    convention: LostSalesConvention
    x_max: int
    C_tilde: np.ndarray
    c3_period: np.ndarray
    stop_tail: np.ndarray
    A: float

    @property
    def horizon(self) -> int:
        return self.params.horizon

    @property
    def pmfs(self) -> list:
        return self.model.demand_pmfs[0]

    @property
    def pmf_tails(self) -> list:
        return self.model.demand_pmfs[1]


def build_kernel_table(
    params: CostParameters,
    model: IntensityModel,
    convention: LostSalesConvention = LostSalesConvention.ARRIVAL,
    x_max: int = 1200,
) -> KernelTable:
    """Every kernel the reformulated recursion reads, from one call of the
    row builder."""
    return build_kernel_tables([params], model, convention, x_max)[0]


def build_kernel_tables(params_list, model: IntensityModel,
                        convention: LostSalesConvention = LostSalesConvention.ARRIVAL,
                        x_max: int = 1200) -> list[KernelTable]:
    """``build_kernel_table`` for each parameter set of ``params_list`` on one
    intensity model, in input order and equal to it bit for bit.

    The support caps are computed once, the Poisson-integral rows once per
    distinct decay (delta and delta + gamma), and the holding block H once
    per distinct (delta, c1): the tables are built in (delta, c1) order, so
    one H block is alive at a time.
    """
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    for params in params_list:
        _checked(params, model)
    periods = np.arange(model.horizon)
    shared = _SharedRows(model.rates, x_max + 1)
    tables = [None] * len(params_list)
    key = H = None
    for i in sorted(range(len(params_list)),
                    key=lambda j: (params_list[j].delta, params_list[j].c1)):
        params = params_list[i]
        if (params.delta, params.c1) != key:
            key, H = (params.delta, params.c1), None  # drop the last block first
        H, Ct = _kernel_rows(params, convention, shared, H)
        stop_tail = _stop_tail(params, model.rates)
        tables[i] = KernelTable(
            params=params,
            model=model,
            convention=convention,
            x_max=x_max,
            C_tilde=Ct,
            c3_period=_c3_period(params, model.rates, periods),
            stop_tail=stop_tail,
            A=float(stop_tail[0]),
        )
    return tables
