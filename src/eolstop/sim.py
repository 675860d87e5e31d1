"""Monte Carlo policy evaluation with exact continuous-time cost accrual.

Paths execute a solved policy at integer review epochs; between epochs the
inventory is a step function decremented at arrivals.  Holding cost
integrates in closed form over each constant segment, a lost arrival pays the
lost-sales cost at its arrival instant, and everything after the stop epoch
pays the outside-source cost.  An arrival consuming the last unit is
satisfied; the next one is lost (arrival-consistent accounting).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _backends
from .costs import CostParameters
from .demand import IntensityModel
from .errors import UnreachableState
from .kernels import constant_A
from .solver import ORDER, STOP, PolicyTable


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    std_error: float
    paths: int
    seed: int


@dataclass(frozen=True)
class MartingaleReport:
    analytic: float
    mc_mean: float
    std_error: float
    z_score: float
    paths: int
    seed: int


def _sorted_period_arrivals(rng, k: int, counts: np.ndarray):
    """(paths, nmax) arrival times in [k, k+1), padded with k+1 and sorted;
    nmax is 0 when no path has an arrival, which draws nothing."""
    nmax = int(counts.max())
    u = rng.uniform(float(k), float(k + 1), size=(len(counts), nmax))
    u[np.arange(nmax)[None, :] >= counts[:, None]] = float(k + 1)
    u.sort(axis=1)
    return u


def evaluate_policy(
    policy: PolicyTable,
    params: CostParameters,
    model: IntensityModel,
    x0: int,
    paths: int = 100_000,
    seed: int = 0,
) -> SimEstimate:
    """Estimate the expected discounted total cost of following ``policy``."""
    T = model.horizon
    if params.horizon != T or policy.horizon != T:
        raise UnreachableState("policy, parameters and intensity disagree on the horizon")
    if not 0 <= x0 <= policy.x_max:
        raise UnreachableState(f"x0={x0} outside the policy grid 0..{policy.x_max}")
    if paths < 2:
        raise ValueError("need at least two paths for a standard error")

    rng = np.random.default_rng(seed)
    counts = rng.poisson(model.rates, size=(paths, T))

    stock = np.full(paths, x0, dtype=np.int64)
    zvec = np.full(paths, policy.z0, dtype=np.int64)
    stopped = np.zeros(paths, dtype=bool)
    cost = np.zeros(paths)

    for k in range(T + 1):
        disc_k = np.exp(-params.delta * k)
        act = policy.action[k][stock, zvec]
        tgt = policy.target[k][stock, zvec]

        stop_now = (~stopped) & (act == STOP)
        if stop_now.any():
            cost[stop_now] += disc_k * params.c4 * stock[stop_now]
            stock[stop_now] = 0
            stopped[stop_now] = True

        order_now = (~stopped) & (act == ORDER)
        if order_now.any():
            m = tgt[order_now] - stock[order_now]
            if np.any(m <= 0):
                raise UnreachableState("policy order target does not exceed current stock")
            cost[order_now] += disc_k * (params.K + params.c_bar * m)
            stock[order_now] = tgt[order_now]
            if policy.spec.order_budget is not None:
                zvec[order_now] -= 1

        if k == T:
            break
        u = _sorted_period_arrivals(rng, k, counts[:, k])
        _backends.sim_period(
            stock, stopped, cost, u, counts[:, k], k,
            params.c1, params.c2_bar, params.c3_bar, params.gamma, params.delta,
        )

    mean = float(cost.mean())
    se = float(cost.std(ddof=1) / np.sqrt(paths))
    return SimEstimate(mean=mean, std_error=se, paths=paths, seed=seed)


def sample_stopping_times(
    policy: PolicyTable,
    model: IntensityModel,
    x0: int,
    paths: int = 100_000,
    seed: int = 0,
) -> np.ndarray:
    """Epoch at which each simulated path stops under ``policy``.

    Stopping decisions only read integer-epoch states, so period demand
    counts are all the randomness needed.
    """
    T = model.horizon
    if policy.horizon != T:
        raise UnreachableState("policy and intensity disagree on the horizon")
    if not 0 <= x0 <= policy.x_max:
        raise UnreachableState(f"x0={x0} outside the policy grid 0..{policy.x_max}")
    rng = np.random.default_rng(seed)
    counts = rng.poisson(model.rates, size=(paths, T))
    stock = np.full(paths, x0, dtype=np.int64)
    zvec = np.full(paths, policy.z0, dtype=np.int64)
    stopped = np.zeros(paths, dtype=bool)
    tau = np.full(paths, T, dtype=np.int64)
    for k in range(T + 1):
        act = policy.action[k][stock, zvec]
        tgt = policy.target[k][stock, zvec]
        stop_now = (~stopped) & (act == STOP)
        tau[stop_now] = k
        stopped |= stop_now
        if k == T:
            break
        order_now = (~stopped) & (act == ORDER)
        if order_now.any():
            stock[order_now] = tgt[order_now]
            if policy.spec.order_budget is not None:
                zvec[order_now] -= 1
        live = ~stopped
        stock[live] = np.maximum(stock[live] - counts[live, k], 0)
    return tau


def martingale_check(
    params: CostParameters,
    model: IntensityModel,
    paths: int = 100_000,
    seed: int = 0,
) -> MartingaleReport:
    """Monte Carlo E[sum e^{-delta t_i} c3(t_i)] against its closed form.

    The closed form replaces the Poisson integral by its intensity-weighted
    Lebesgue integral; the z-score should behave like a standard normal.
    """
    rng = np.random.default_rng(seed)
    T = model.horizon
    counts = rng.poisson(model.rates, size=(paths, T))
    total = np.zeros(paths)
    for k in range(T):
        u = _sorted_period_arrivals(rng, k, counts[:, k])
        real = np.arange(u.shape[1])[None, :] < counts[:, k][:, None]
        total += np.sum(np.where(real, np.exp(-params.delta * u) * params.c3(u), 0.0), axis=1)
    analytic = constant_A(params, model)
    mean = float(total.mean())
    se = float(total.std(ddof=1) / np.sqrt(paths))
    z = 0.0 if se == 0 else (mean - analytic) / se
    return MartingaleReport(
        analytic=analytic, mc_mean=mean, std_error=se, z_score=float(z),
        paths=paths, seed=seed,
    )
