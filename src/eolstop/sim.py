"""Monte Carlo policy evaluation by conditional (Rao-Blackwellised) accrual.

Paths execute a solved policy at integer review epochs and draw only their
Poisson demand count in each period, by inversion of the Poisson tails
(``_poisson.inverse_counts``): from U of ``Generator.random`` and v = 1 - U
in [2^-53, 1], the count is #{j : P{N > j} >= v}, so P{count > j} is P{N > j}
to the 2^-53 resolution of U, and the tail rows run on below 2^-53, so no
count is cut off.  For the same seed these counts, and every estimate drawn
from them, differ from those of versions that called ``Generator.poisson``.

Between epochs the inventory is a step function decremented at arrivals; an
arrival consuming the last unit is satisfied, the next one is lost
(arrival-consistent accounting), and every arrival after the stop epoch pays
the outside-source cost.  Given a period's count, the arrivals are uniform
order statistics, so the period's expected discounted cost given (count,
stock) is a sum of Beta moments (``_backends.period_tables``); each path adds
that expectation in place of sampled arrival times.  The estimate keeps its
mean, and its variance can only fall.  Exact accrual over sampled arrivals is
the tests' oracle.  ``martingale_check`` keeps sampled arrival times, because
its conditional version would reduce to E[N] and test nothing.

Paths step through the policy as states of tables (``_state_tables``): per
epoch and state (budget layer and stock, or stopped) they hold the stock
after the decisions, the next state's base and the decisions' cost, and the
period's costs are folded over (count, stock) once per call
(``_backends.period_lookups``).  An epoch is a few gathers per path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _backends, _poisson
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


def _check_paths(paths: int, least: int):
    if paths < least:
        raise ValueError(f"paths={paths}: need at least {least}")


def _poisson_counts(rng, rates, paths: int):
    """(paths, T) Poisson demand counts, period k from ``rng``'s k-th block
    of ``paths`` uniforms (``_poisson.inverse_counts``); a view of a (T,
    paths) array, so that each period's counts are one contiguous row."""
    v = rng.random((len(rates), paths))
    np.subtract(1.0, v, out=v)  # v = 1 - U lies in [2^-53, 1]
    return _poisson.inverse_counts(rates, v).T


def _draw_counts(policy: PolicyTable, model: IntensityModel, x0: int, paths: int, seed: int):
    """(paths, T) Poisson period demand counts, after checking that x0 and
    the horizon fit ``policy``."""
    if policy.horizon != model.horizon:
        raise UnreachableState("policy and intensity disagree on the horizon")
    if not 0 <= x0 <= policy.x_max:
        raise UnreachableState(f"x0={x0} outside the policy grid 0..{policy.x_max}")
    return _poisson_counts(np.random.default_rng(seed), model.rates, paths)


_TABLE_CELLS = 4096  # (epoch, state) cells of ``_state_tables`` built at once


def _state_tables(policy: PolicyTable, W: int, epochs: slice, params: CostParameters | None):
    """The decisions of ``policy`` at ``epochs`` as tables over the states a
    path can reach while its stock stays below W.

    State z * W + x is budget layer z with stock x; state Z * W is the
    absorbing stopped state.  Returns ``(post, base, dcost, bad)``, (epochs,
    states) arrays:
      post   stock after the decisions, -1 once stopped
      base   the state of the post-decision stock when it is 0, so a period's
             demand d leads to base + max(post - d, 0)
      dcost  the decisions' undiscounted cost, c4 * scrap + (K + c_bar * qty
             for an order), or None without ``params``
      bad    ORDER cells whose target does not exceed the stock, or None
             when there is none
    """
    Z = policy.action.shape[2]
    S = Z * W
    act, tgt = (g[epochs, :W].transpose(0, 2, 1).reshape(-1, S)
                for g in (policy.action, policy.target))
    x = np.tile(np.arange(W), Z)
    stop, order = act == STOP, act == ORDER
    post = np.full((len(act), S + 1), -1)
    np.copyto(post[:, :S], x)
    np.copyto(post[:, :S], tgt, where=order)
    np.copyto(post[:, :S], -1, where=stop)
    base = np.full(post.shape, S)
    np.copyto(base[:, :S], np.repeat(np.arange(Z) * W, W))
    if policy.spec.order_budget is not None:
        base[:, :S] -= W * order
    np.copyto(base[:, :S], S, where=stop)
    bad = order & (tgt <= x)
    bad = np.pad(bad, ((0, 0), (0, 1))) if bad.any() else None
    dcost = None
    if params is not None:
        # c4 * scrap + where(qty > 0, K + c_bar * qty, 0.0) with the same
        # roundings (sums and products commute): c4 * x + 0.0 on a stop,
        # c4 * 0 + (K + c_bar * (target - x)) on an order, 0.0 elsewhere
        dcost = np.zeros(post.shape)
        np.copyto(dcost[:, :S], params.c4 * x + 0.0, where=stop)
        qty = np.subtract(tgt, x, dtype=float)
        qty *= params.c_bar
        qty += params.K
        qty += params.c4 * 0
        np.copyto(dcost[:, :S], qty, where=order)
    return post, base, dcost, bad


def _stock_top(policy: PolicyTable, x0: int) -> int:
    """The largest stock a path from x0 can hold."""
    return max(x0, int(policy.target.max()))


def _walk(policy: PolicyTable, x0: int, counts: np.ndarray,
          params: CostParameters | None = None, cost: np.ndarray | None = None):
    """Step every path through ``policy`` from stock x0, period k taking
    ``counts[:, k]`` units of demand (lost once stock runs out).

    At each epoch k = 0..T, after the epoch's decisions and before its
    period's demand, yields ``(k, post)``: each path's stock after the
    decisions, -1 once stopped.  Given ``params`` and ``cost``, it first adds
    the decisions' cost, discounted by e^{-delta k}, to ``cost``.  Each path
    is a state of ``_state_tables``, built a few epochs at a time, so that
    an epoch is a few gathers per path.
    """
    paths, T = counts.shape
    W = _stock_top(policy, x0) + 1
    block = max(1, _TABLE_CELLS // (policy.action.shape[2] * W + 1))
    state = np.full(paths, policy.z0 * W + x0, dtype=np.intp)
    step = np.empty(paths, dtype=np.intp)
    for k in range(T + 1):
        i = k % block
        if i == 0:
            post = base = dcost = bad = None  # the last block goes before the next is built
            post, base, dcost, bad = _state_tables(policy, W, slice(k, k + block), params)
        if bad is not None and bad[i].take(state).any():
            raise UnreachableState("policy order target does not exceed current stock")
        if cost is not None:
            spent = dcost[i].take(state)
            spent *= np.exp(-params.delta * k)
            cost += spent
            del spent
        at = post[i].take(state)
        yield k, at
        if k < T:
            np.subtract(at, counts[:, k], out=step)
            np.maximum(step, 0, out=step)
            step += base[i].take(state)
            state, step = step, state


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
    _check_paths(paths, 2)
    counts = _draw_counts(policy, model, x0, paths, seed)
    tables = _backends.period_lookups(
        _backends.period_tables(counts, policy.x_max, params.delta, params.gamma),
        _stock_top(policy, x0), params)

    cost = np.zeros(paths)
    for k, post in _walk(policy, x0, counts, params, cost):
        if k < model.horizon:
            _backends.sim_period(cost, post, counts[:, k], tables, k, params)

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
    seed draws the same counts.  A path stops at the first epoch whose
    post-decision stock is -1: the epochs before it, capped at T.
    """
    _check_paths(paths, 1)
    counts = _draw_counts(policy, model, x0, paths, seed)
    tau = np.zeros(paths, dtype=np.int64)
    for _, post in _walk(policy, x0, counts):
        tau += post >= 0
    return np.minimum(tau, model.horizon, out=tau)


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
    _check_paths(paths, 2)
    rng = np.random.default_rng(seed)
    T = model.horizon
    counts = _poisson_counts(rng, model.rates, paths)
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
