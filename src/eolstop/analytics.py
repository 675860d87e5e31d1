"""Post-solution and closed-form analytics.

Covers the deterministic switching-time cost curve and its discrete
differences in inventory, the first-order-condition order-up-to level, upper
and lower bounds on the best switching time, assumption validation, and the
exact distribution of the optimal stopping time induced by a solved dynamic
policy.

C(x, tau), Delta_x C and Delta^2_x C are each written once, over the
Gauss-Legendre nodes ``_nodes`` places between given edges: 32 per unit
period up to tau for the point functions, 5 per panel for the curve, whose
panels are the steps of the one tau grid (``_tau_grid``,
T / max(1, round(T / step)) apart) split at the unit periods, so that none
straddles a rate jump.  The curve, its argmin and both bounds read that grid.

The stopping-time law is one forward pass under the fixed policy, over the
states of the Monte Carlo's tables (``sim.state_tables``): the law starts at
(x0, z0); at each epoch the mass on states whose post-decision stock is -1
is P{tau* = t} and leaves, the rest moves to its post-decision state, and
that law is pushed through the period's demand, (y - D)^+, by
``_backends.push_clamped``.  That is one push per period, every budget layer
at once, against one backward pass per target epoch.
``stopping_time_distributions`` carries the laws of several starts through
one set of tables, a row each, and gives each the bits of its one-start law
(``stopping_time_distribution``).
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import _backends, sim
from . import _poisson as poisson
from .costs import CostParameters
from .demand import IntensityModel
from .errors import (AssumptionViolated, NonFinite, NotFound, PolicyIncompatible,
                     UnreachableState)
from .kernels import constant_A
from .solver import PolicyTable, StopMode

DEFAULT_TAU_STEP = 0.01
_GL_ORDER = 32  # Gauss-Legendre nodes per unit period of a point function
_CURVE_ORDER = 5  # per panel of the curve


@dataclass(frozen=True)
class AssumptionReport:
    """Validation of the standing assumptions behind the switching analytics
    that ``CostParameters`` does not already enforce at construction (there,
    c2 and c3 are non-negative and non-increasing and c_bar > -c4)."""

    c4_non_negative: bool
    holding_net_of_scrap_non_negative: bool  # c1 - delta*c4 >= 0
    lambda_non_increasing: bool
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return self.c4_non_negative and self.holding_net_of_scrap_non_negative


def validate_assumptions(params: CostParameters, model: IntensityModel) -> AssumptionReport:
    checks = {
        "c4_non_negative": params.c4 >= 0,
        "holding_net_of_scrap_non_negative": params.holding_net_of_scrap >= 0,
        "lambda_non_increasing": bool(np.all(np.diff(model.rates) <= 1e-12)),
    }
    failures = tuple(name for name, ok in checks.items() if not ok)
    return AssumptionReport(**checks, failures=failures)


def _require_assumptions(params, model, need_lambda_mono=False):
    rep = validate_assumptions(params, model)
    if not rep.ok:
        raise AssumptionViolated(f"POS/NON-INC violated: {', '.join(rep.failures)}")
    if need_lambda_mono and not rep.lambda_non_increasing:
        raise AssumptionViolated("lambda must be non-increasing for the lower bound")


# ---------------------------------------------------------------------------
# switching-time cost curve
# ---------------------------------------------------------------------------

def _tau_grid(model: IntensityModel, step: float) -> np.ndarray:
    """The switch-time grid: T / max(1, round(T / step)) apart, both ends
    included, so a step above 2T gives {0, T}."""
    T = model.horizon
    return np.linspace(0.0, T, max(1, int(round(T / step))) + 1)


def _rate(model: IntensityModel, u):
    """lambda(u), the rate of the unit period holding u (the last one at T)."""
    return model.rates[np.minimum(np.asarray(u).astype(int), model.horizon - 1)]


def _model_at(params: CostParameters, model: IntensityModel, u):
    """mu(u), the discount factor e^{-delta u} and the lost-sales cost c2(u)."""
    return model.mean_value(u), np.exp(-params.delta * u), params.c2(u)


@dataclass(frozen=True, eq=False)
class _Nodes:
    """Quadrature points u, the model at them, and ``integrate``, which maps
    integrand values at the points (last axis) to integrals from 0."""

    u: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    disc: np.ndarray
    c2: np.ndarray
    integrate: Callable[[np.ndarray], np.ndarray]


@functools.lru_cache(maxsize=4)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only; computed once
    per order, since every point function builds its nodes anew."""
    x, w = leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _nodes(params: CostParameters, model: IntensityModel, edges: np.ndarray, order: int,
           at=None) -> _Nodes:
    """Gauss-Legendre nodes of ``order`` on each interval between ``edges``,
    none of which may straddle a unit period.  ``integrate`` sums up to the
    last edge or, given edge indices ``at``, gives the integrals up to those."""
    base_x, base_w = _gauss_legendre(order)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * base_x).ravel()
    w = (half[:, None] * base_w).ravel()
    if at is None:
        def integrate(f):
            return np.sum(w * f, axis=-1)
    else:
        def integrate(f):
            panels = (w * f).reshape(-1, order).sum(axis=1)
            return np.concatenate(([0.0], np.cumsum(panels)))[at]
    return _Nodes(u, np.repeat(_rate(model, edges[:-1]), order), *_model_at(params, model, u),
                  integrate)


def _point_nodes(params: CostParameters, model: IntensityModel, tau) -> _Nodes:
    """Nodes over [0, tau], one block per unit period, after the standing checks."""
    _require_assumptions(params, model)
    if not 0 <= tau <= model.horizon:  # also rejects NaN
        raise ValueError(f"tau must lie in [0, {model.horizon}], got {tau!r}")
    return _nodes(params, model, np.append(np.arange(math.ceil(tau)), float(tau)), _GL_ORDER)


def _pmf(k: int, mu) -> np.ndarray:
    """P{N = k} for Poisson(mu): ``term`` (within a few ulps), 0 at k < 0."""
    return poisson.term(k, mu) if k >= 0 else np.zeros(np.shape(mu))


def _cost(params: CostParameters, x: int, n: _Nodes):
    """C(x, tau) - A: run without orders until tau, then scrap and outsource.
    E[(x - N)^+] = x F(x-1) - mu F(x-2) for N ~ Poisson(mu)."""
    F2 = poisson.cdf(x - 2, n.mu)
    F1 = F2 + _pmf(x - 1, n.mu)
    return (params.c4 * x
            + n.integrate(n.disc * n.lam * (-params.c4 - n.c2) * F1)
            + params.c2_bar * n.integrate(n.disc * n.lam)
            + params.holding_net_of_scrap * n.integrate(n.disc * (x * F1 - n.mu * F2)))


def _delta_x(params: CostParameters, x, n: _Nodes):
    """Delta_x C(x, tau)."""
    return (params.c4
            + n.integrate(n.disc * n.lam * (-params.c4 - n.c2) * _pmf(x, n.mu))
            + params.holding_net_of_scrap * n.integrate(n.disc * poisson.cdf(x, n.mu)))


def _delta2_x(params: CostParameters, model: IntensityModel, x: int, tau, n: _Nodes):
    """Delta^2_x C(x, tau): the boundary term at tau plus an integral."""
    j = x + 1  # the closed form indexes the Poisson terms one level up
    mu_tau, disc_tau, c2_tau = _model_at(params, model, tau)
    c2p = -params.gamma * params.c3(n.u)
    return (disc_tau * (c2_tau + params.c4) * _pmf(j, mu_tau)
            + n.integrate(n.disc * (params.c1 - c2p + params.delta * n.c2) * _pmf(j, n.mu)))


def switch_cost(params: CostParameters, model: IntensityModel, x: int, tau: float) -> float:
    """Total discounted cost of operating without orders until the committed
    switch epoch tau, then scrapping and outsourcing the remainder.

    It follows ``LostSalesConvention.ARRIVAL``: on the base case it equals
    the no-order S/1/Z value V(0, x) + A to 2.6e-11 relative under ARRIVAL,
    and is off by up to 1.27e-2 under PAPER (tau = 20, x = 400)."""
    return float(_cost(params, x, _point_nodes(params, model, tau)) + constant_A(params, model))


def delta_x_switch_cost(params: CostParameters, model: IntensityModel, x: int,
                        tau: float) -> float:
    """First difference in inventory of the switch-cost curve, closed form."""
    return float(_delta_x(params, x, _point_nodes(params, model, tau)))


def delta2_x_switch_cost(params: CostParameters, model: IntensityModel, x: int,
                         tau: float) -> float:
    """Second difference Delta^2 C(x, tau) = Delta C(x+1, tau) - Delta C(x, tau)."""
    return float(_delta2_x(params, model, x, tau, _point_nodes(params, model, tau)))


@dataclass(frozen=True, eq=False)
class SwitchCostCurve:
    x: int
    tau_grid: np.ndarray
    values: np.ndarray
    delta_x: np.ndarray
    delta2_x: np.ndarray


def _switch_cost_values(params: CostParameters, model: IntensityModel, x: int, step: float):
    """The tau grid, the curve's nodes on it (panels split at unit periods)
    and C(x, tau) at every grid point, by cumulative per-panel quadrature;
    NonFinite if a value is inf or NaN."""
    _require_assumptions(params, model)
    grid = _tau_grid(model, step)
    edges = np.union1d(grid, np.arange(1, model.horizon))
    nodes = _nodes(params, model, edges, _CURVE_ORDER, at=np.searchsorted(edges, grid))
    vals = _cost(params, x, nodes) + constant_A(params, model)
    if not np.isfinite(vals).all():
        raise NonFinite("the switch-cost curve")
    return grid, nodes, vals


def switch_cost_curve(params: CostParameters, model: IntensityModel, x: int,
                      step: float = DEFAULT_TAU_STEP) -> SwitchCostCurve:
    """Evaluate the switch-cost curve and its inventory differences on the
    tau grid via cumulative per-panel quadrature, the panels split at unit
    periods; NonFinite if any of them is inf or NaN."""
    grid, nodes, vals = _switch_cost_values(params, model, x, step)
    d1 = _delta_x(params, x, nodes)
    d2 = _delta2_x(params, model, x, grid, nodes)
    if not (np.isfinite(d1).all() and np.isfinite(d2).all()):
        raise NonFinite("the switch-cost curve")
    return SwitchCostCurve(x=x, tau_grid=grid, values=vals, delta_x=d1, delta2_x=d2)


def order_up_to_of_tau(params: CostParameters, model: IntensityModel, tau: float,
                       x_cap: int = 1200) -> int:
    """Smallest x <= x_cap with c_bar + Delta_x C(x, tau) >= 0 (the first-order
    condition), found by bisection.

    The bisection is exact because the condition is monotone in x: every
    term of Delta^2_x C (``_delta2_x``) is non-negative, since
    ``CostParameters`` makes c2 and delta non-negative and c2 non-increasing,
    and ``_point_nodes`` checks c4 >= 0 and c1 - delta*c4 >= 0 (so c1 >= 0).
    Hence c_bar + Delta_x C never falls as x rises.
    """
    nodes = _point_nodes(params, model, tau)
    s = bisect.bisect_left(range(x_cap + 1), True,
                           key=lambda x: bool(params.c_bar + _delta_x(params, x, nodes) >= 0))
    if s > x_cap:
        raise NotFound(f"first-order condition unmet for every x <= {x_cap}")
    return s


@dataclass(frozen=True)
class SwitchBounds:
    lb: float
    ub: float


def switch_time_bounds(params: CostParameters, model: IntensityModel, x: int,
                       step: float = DEFAULT_TAU_STEP) -> SwitchBounds:
    """Grid versions of the analytical bounds on the best switching time.

    ub: smallest grid tau where the premium at the horizon already dominates
    the weighted stop-side term; T when never satisfied.  lb: largest grid tau
    with lambda(tau) >= 1 where the stop-side term still dominates the linear
    holding bound; 0 when never satisfied.
    """
    _require_assumptions(params, model, need_lambda_mono=True)
    T = model.horizon
    grid = _tau_grid(model, step)
    mu = model.mean_value(grid)
    stop_side = poisson.cdf(x - 1, mu) * (params.c2(grid) + params.c4)

    ub_hits = np.flatnonzero(params.c2_bar >= stop_side)  # the premium c2 - c3 is c2_bar
    ub = float(grid[ub_hits[0]]) if len(ub_hits) else float(T)

    rhs = x * params.holding_net_of_scrap + params.c2_bar
    lb_hits = np.flatnonzero((_rate(model, grid) >= 1.0) & (stop_side >= rhs))
    lb = float(grid[lb_hits[-1]]) if len(lb_hits) else 0.0
    return SwitchBounds(lb=lb, ub=ub)


def brute_force_switch_argmin(params: CostParameters, model: IntensityModel, x: int,
                              step: float = DEFAULT_TAU_STEP):
    """Grid argmin of the switch-cost curve; the oracle the bounds sandwich.
    It reads the curve's values only, not its inventory differences."""
    grid, _, vals = _switch_cost_values(params, model, x, step)
    i = int(np.argmin(vals))
    return float(grid[i]), float(vals[i])


# ---------------------------------------------------------------------------
# stopping-time distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StoppingTimeDistribution:
    """P{tau* = m} for m = 0..T under a solved dynamic policy."""

    mass: np.ndarray
    x0: int

    def mean(self) -> float:
        return float(np.dot(np.arange(len(self.mass)), self.mass))


def stopping_time_distribution(policy: PolicyTable, model: IntensityModel,
                               x0: int) -> StoppingTimeDistribution:
    """Exact stopping-time law from x0: the one-start case of
    ``stopping_time_distributions``."""
    return stopping_time_distributions(policy, model, [x0])[0]


def stopping_time_distributions(policy: PolicyTable, model: IntensityModel,
                                x0s) -> list[StoppingTimeDistribution]:
    """Exact stopping-time law from each of ``x0s``, by one forward pass of
    the state laws, one row per start, through one set of tables.

    Starting from all mass on (x0, z0), each epoch's stopping states give
    their mass to P{tau* = t} and leave, the rest moves to its post-decision
    state (``sim.state_tables``, read as the paths read them), and the law
    then passes through the period's demand.  Mass on an ORDER cell that the
    tables flag raises UnreachableState, as it does for a simulated path.

    The tables span the stocks below W, the largest ``sim.stock_top`` + 1 of
    the starts.  A start's mass stays below its own w <= W, and each row is
    summed and pushed over its own w stocks per layer, in the order of a
    w-wide table, so every law is bit for bit the one-start law.
    """
    if policy.spec.stop_mode is not StopMode.DYNAMIC:
        raise PolicyIncompatible("stopping-time distribution needs a dynamic-stop policy")
    if policy.horizon != model.horizon:
        raise UnreachableState("policy and intensity disagree on the horizon")
    if not x0s or not all(0 <= x0 <= policy.x_max for x0 in x0s):
        raise ValueError(f"x0s must list starts in 0..{policy.x_max}")
    widths = [sim.stock_top(policy, x0) + 1 for x0 in x0s]
    T, Z, W, n = policy.horizon, policy.action.shape[2], max(widths), len(x0s)
    S = Z * W
    # per width w: the starts of that width, and the states of a w-wide table
    # (stock below w, and the stopped state) in their order
    inside = np.append(np.tile(np.arange(W), Z), -1)
    groups = [(w, np.flatnonzero(np.equal(widths, w)), inside < w) for w in sorted(set(widths))]
    pmfs, tails = model.demand_pmfs
    mass = np.zeros((n, T + 1))
    q = np.zeros((n, S + 1))  # the state laws; the stopped state stays empty
    law = q[:, :S].reshape(n, Z, W)  # a view: (start, layer, stock)
    q[np.arange(n), policy.z0 * W + np.asarray(x0s, dtype=np.intp)] = 1.0
    rows = np.arange(n)[:, None] * S  # row r's states go to bins r * S onward
    for t, (post, base, _, bad) in enumerate(sim.state_tables(policy, W)):
        if bad is not None and q[:, bad].any():
            raise UnreachableState(sim.BAD_ORDER)
        stopping = post < 0
        for _, at, own in groups:
            mass[at, t] = q[np.ix_(at, np.flatnonzero(stopping & own))].sum(axis=1)
        q[:, stopping] = 0.0
        if t == T or not q.any():
            break
        # zeroed stops land on x = W - 1
        after = np.bincount((rows + (base + post)).ravel(), q.ravel(), n * S).reshape(n, Z, W)
        op = _backends.toeplitz_block(pmfs[t])
        for w, at, _ in groups:
            law[at, :, :w] = _backends.push_clamped(after[at, :, :w], pmfs[t], tails[t], op)
    return [StoppingTimeDistribution(mass=m, x0=x0) for m, x0 in zip(mass, x0s)]
