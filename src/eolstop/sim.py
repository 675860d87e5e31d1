"""Monte Carlo policy evaluation by conditional (Rao-Blackwellised) accrual.

Paths execute a solved policy at integer review epochs and draw only their
Poisson demand count in each period.  Between epochs the inventory is a
step function decremented at arrivals; an arrival consuming the last unit is
satisfied, the next one is lost (arrival-consistent accounting), and every
arrival after the stop epoch pays the outside-source cost.  Given a period's
count, the arrivals are uniform order statistics, so the period's expected
discounted cost given (count, stock) is a sum of Beta moments
(``_backends.period_tables``); each path adds that expectation in place of
sampled arrival times.  The estimate keeps its mean, and its variance can
only fall.  Exact accrual over sampled arrivals is the tests' oracle.
``martingale_check`` keeps sampled arrival times, because its conditional
version would reduce to E[N] and test nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _backends
from .costs import CostParameters
from .demand import IntensityModel
from .errors import NonFinite, UnreachableState
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


def _draw_counts(policy: PolicyTable, model: IntensityModel, x0: int, paths: int, seed: int):
    """(paths, T) Poisson period demand counts, after checking that x0 and
    the horizon fit ``policy``."""
    if policy.horizon != model.horizon:
        raise UnreachableState("policy and intensity disagree on the horizon")
    if not 0 <= x0 <= policy.x_max:
        raise UnreachableState(f"x0={x0} outside the policy grid 0..{policy.x_max}")
    return np.random.default_rng(seed).poisson(model.rates, size=(paths, model.horizon))


def _walk(policy: PolicyTable, x0: int, counts: np.ndarray):
    """Step every path through ``policy`` from stock x0, period k taking
    ``counts[:, k]`` units of demand (lost once stock runs out).

    At each epoch k = 0..T, after the epoch's decisions and before its
    period's demand, yields ``(k, stop_now, scrap, qty, stock, stopped)``:
    the paths stopping at k and the stock they scrap, each path's order
    quantity (0 for no order), and the state after the decisions.
    """
    paths, T = counts.shape
    # epoch k's (x, z) table as one row, cell z * (X+1) + x; for the solver's
    # tables, which are (t, z, x) arrays seen as (t, x, z), this is a view
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


def evaluate_policy(
    policy: PolicyTable,
    params: CostParameters,
    model: IntensityModel,
    x0: int,
    paths: int = 100_000,
    seed: int = 0,
) -> SimEstimate:
    """Estimate the expected discounted total cost of following ``policy``.

    Each path draws its period demand counts; a period then adds its
    expected cost given the count and the stock (``_backends.sim_period``).
    """
    if params.horizon != model.horizon:
        raise UnreachableState("policy, parameters and intensity disagree on the horizon")
    if paths < 2:
        raise ValueError("need at least two paths for a standard error")
    counts = _draw_counts(policy, model, x0, paths, seed)
    tables = _backends.period_tables(counts, policy.x_max, params.delta, params.gamma)

    cost = np.zeros(paths)
    for k, _, scrap, qty, stock, stopped in _walk(policy, x0, counts):
        cost += np.exp(-params.delta * k) * (
            params.c4 * scrap + np.where(qty > 0, params.K + params.c_bar * qty, 0.0))
        if k < model.horizon:
            _backends.sim_period(cost, stock, stopped, counts[:, k], tables, k, params)

    mean = float(cost.mean())
    se = float(cost.std(ddof=1) / np.sqrt(paths))
    if not np.isfinite([mean, se]).all():
        raise NonFinite("the Monte Carlo mean or its standard error")
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
    counts are all the randomness needed; ``evaluate_policy`` with the same
    seed draws the same counts.
    """
    counts = _draw_counts(policy, model, x0, paths, seed)
    tau = np.full(paths, model.horizon, dtype=np.int64)
    for k, stop_now, *_ in _walk(policy, x0, counts):
        tau[stop_now] = k
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
