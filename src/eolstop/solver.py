"""Backward-induction solvers for the ordering/stopping flexibility taxonomy.

A model is addressed as ``a/b/c``:

  a - when inventory holding may stop: D dynamically at any review epoch,
      S at a single switch epoch committed at time zero, T never before T;
  b - order budget: a positive integer or ``inf``;
  c - first-order timing: Z only at time zero, F free.

The recursion runs in reformulated units: the stopping cost is just the
scrap term ``c4*x`` and the policy-independent outside-source constant A is
added back at the end.  ``solve_original_form`` runs the same engine on the
raw kernels (stopping cost with its integral tail) to verify the
reformulation identity V = V_tilde + A.

After the reformulation the setup cost K enters only the order search, so
one backward pass serves several K.  Each epoch computes every distinct
value column once: a budget layer that has had no admissible order since
the seed holds the same no-order chain as every other such layer, for every
K.  A ``.../Z`` model is therefore one no-order chain down to t=1 plus one
order search per K at t=0; a layer leaves the chain at its first admissible
order (epoch T-1 for ``.../F``) and is carried per K from there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _backends
from .errors import BudgetMisuse, CapSaturated
from .kernels import KernelTable

CONTINUE, STOP, ORDER = 0, 1, 2


class StopMode(enum.Enum):
    DYNAMIC = "D"
    STATIC = "S"
    NEVER = "T"


class FirstOrder(enum.Enum):
    ZERO_ONLY = "Z"
    FREE = "F"


@dataclass(frozen=True)
class ModelSpec:
    """Taxonomy coordinate; ``order_budget=None`` means unlimited."""

    stop_mode: StopMode
    order_budget: int | None
    first_order: FirstOrder

    def __post_init__(self):
        if self.order_budget is not None and self.order_budget < 1:
            raise BudgetMisuse("finite order budget must be >= 1")
        if self.order_budget is None and self.first_order is FirstOrder.ZERO_ONLY:
            raise BudgetMisuse("unlimited orders with zero-only timing is not in the taxonomy")

    @classmethod
    def parse(cls, label: str) -> "ModelSpec":
        parts = label.strip().split("/")
        if len(parts) != 3:
            raise BudgetMisuse(f"model label must look like D/inf/F, got {label!r}")
        a, b, c = parts
        try:
            stop = StopMode(a.upper())
            first = FirstOrder(c.upper())
        except ValueError:
            raise BudgetMisuse(f"unknown taxonomy coordinate in {label!r}") from None
        if b.lower() in ("inf", "infinity", "unlimited", "∞"):
            budget = None
        else:
            try:
                budget = int(b)
            except ValueError:
                raise BudgetMisuse(f"order budget must be an integer or 'inf', got {b!r}") from None
        return cls(stop, budget, first)

    @property
    def label(self) -> str:
        b = "inf" if self.order_budget is None else str(self.order_budget)
        return f"{self.stop_mode.value}/{b}/{self.first_order.value}"

    @property
    def layers(self) -> int:
        return 1 if self.order_budget is None else self.order_budget + 1


@dataclass(frozen=True, eq=False)
class PolicyTable:
    """Optimal action per (epoch, inventory, remaining-budget layer)."""

    spec: ModelSpec
    x_max: int
    horizon: int
    action: np.ndarray  # (T+1, X+1, Z) int8
    target: np.ndarray  # (T+1, X+1, Z) int32; order-up-to level, -1 elsewhere
    z0: int
    switch_epoch: int | None = None  # STATIC models: the committed stop epoch


@dataclass(frozen=True, eq=False)
class ValueGrid:
    """Reformulated values plus the pieces the action comparison used."""

    V: np.ndarray  # (T+1, X+1, Z)
    G: np.ndarray  # (T, X+1, Z) continuation cost
    J_order: np.ndarray  # (T, X+1, Z) best strictly-positive order, +inf if none
    A: float


@dataclass(frozen=True, eq=False)
class SolveResult:
    spec: ModelSpec
    value_grid: ValueGrid
    policy: PolicyTable
    total_cost: float
    switch_values: np.ndarray | None = None  # STATIC: V(0, x) + A at each x's best epoch

    @property
    def values_at_zero(self) -> np.ndarray:
        """V(0, x) + A for every starting inventory (the policy's own layer).

        For STATIC specs these are the values of the switch epoch chosen for
        the requested x0; ``switch_values`` holds the per-x optima, as
        ``static_switch_values`` returns them.
        """
        return self.value_grid.V[0, :, self.policy.z0] + self.value_grid.A


def _order_admissible(spec: ModelSpec, t: int, z: int) -> bool:
    if spec.order_budget is not None and z == 0:
        return False
    if spec.first_order is FirstOrder.ZERO_ONLY and t > 0:
        return False
    return True


def _backward_pass(spec: ModelSpec, kernels: KernelTable, cost: np.ndarray,
                   stop_tail: np.ndarray, setup_costs, *, stops: bool, start_epoch: int,
                   grids: bool):
    """Run the recursion from ``start_epoch`` down to 0 for every setup cost.

    The pass is seeded with a forced stop at ``start_epoch``; ``stops`` says
    whether stopping is admissible before it.  Returns V(0) as
    (len(setup_costs), X+1, Z) and, with ``grids`` (one setup cost only), the
    (V, G, J_order, action, target) grids over every epoch; without, no
    policy is filled.  Either way a chosen order-up-to level at x_max raises
    CapSaturated.
    """
    p = kernels.params
    T, X, Z = kernels.horizon, kernels.x_max, spec.layers
    y = np.arange(X + 1, dtype=np.float64)
    scrap, cy = p.c4 * y, p.c_bar * y
    disc = np.exp(-p.delta)
    if grids:
        V = np.empty((T + 1, X + 1, Z))
        V[start_epoch:] = (scrap + stop_tail[start_epoch:, None])[:, :, None]
        G_all = np.full((T, X + 1, Z), np.nan)
        J_all = np.full((T, X + 1, Z), np.inf)
        action = np.full((T + 1, X + 1, Z), STOP, dtype=np.int8)
        target = np.full((T + 1, X + 1, Z), -1, dtype=np.int32)

    cols = [scrap + stop_tail[start_epoch]]  # the distinct value columns at t+1
    ids = np.zeros((len(setup_costs), Z), dtype=np.intp)  # (K, layer) -> column
    for t in range(start_epoch - 1, -1, -1):
        pmf, tail = kernels.pmfs[t], kernels.pmf_tails[t]
        G = [cost[t] + disc * _backends.ev_clamped(v, pmf, tail) for v in cols]
        stop_vec = scrap + stop_tail[t]
        cols, owner, carried = [], [], {}
        new_ids = np.empty_like(ids)
        for (k, z), c in np.ndenumerate(ids):
            admissible = _order_admissible(spec, t, z)
            if not admissible and c in carried:  # no order, same column as a done layer
                new_ids[k, z] = carried[c]
                if grids:
                    for grid in (V, G_all, J_all, action, target):
                        grid[t, :, z] = grid[t, :, owner[carried[c]]]
                continue
            val, ordering = G[c], np.zeros(X + 1, dtype=bool)
            if admissible:
                src = ids[k, z if spec.order_budget is None else z - 1]
                mins, args = _backends.suffix_min(cy + G[src])
                J = np.full(X + 1, np.inf)
                J[:-1] = setup_costs[k] + mins[1:] - cy[:-1]
                ordering = J < val  # strict: order only when it beats doing nothing
                val = np.where(ordering, J, val)
            else:
                carried[c] = len(cols)
            stopping = stop_vec <= val if stops else np.zeros(X + 1, dtype=bool)  # ties stop
            val = np.where(stopping, stop_vec, val)
            ordering &= ~stopping
            if admissible and np.any(args[1:][ordering[:-1]] >= X):
                raise CapSaturated(f"order-up-to reached x_max={X} at epoch {t}; raise the cap")
            new_ids[k, z] = len(cols)
            cols.append(val)
            owner.append(z)
            if grids:
                V[t, :, z], G_all[t, :, z] = val, G[c]
                action[t, :, z] = np.select([stopping, ordering], [STOP, ORDER], CONTINUE)
                if admissible:
                    J_all[t, :, z] = J
                    target[t, :-1, z] = np.where(ordering[:-1], args[1:], -1)
        ids = new_ids

    V0 = np.array([[cols[c] for c in row] for row in ids]).transpose(0, 2, 1)
    return V0, ((V, G_all, J_all, action, target) if grids else None)


def _static_sweep(spec, kernels, setup_costs, *, cost, stop_tail):
    """Per setup cost (rows) and starting inventory: the value of the best
    committed switch epoch and that epoch (the earliest on ties)."""
    best = np.full((len(setup_costs), kernels.x_max + 1), np.inf)
    best_k = np.zeros(best.shape, dtype=np.int64)
    for k_star in range(kernels.horizon + 1):
        V0, _ = _backward_pass(spec, kernels, cost, stop_tail, setup_costs, stops=False,
                               start_epoch=k_star, grids=False)
        v = V0[:, :, spec.layers - 1]
        better = v < best
        best[better] = v[better]
        best_k[better] = k_star
    return best, best_k


def _solve_with(spec, kernels, x0, *, stop_tail, add_A, cost=None):
    T, Ks = kernels.horizon, [kernels.params.K]
    if not 0 <= x0 <= kernels.x_max:
        raise ValueError(f"x0 must lie in 0..{kernels.x_max}")
    cost = kernels.C_tilde if cost is None else cost
    A = kernels.A if add_A else 0.0
    switch_epoch = switch_values = None
    if spec.stop_mode is StopMode.STATIC:  # commit to the best switch epoch for x0
        best, best_k = _static_sweep(spec, kernels, Ks, cost=cost, stop_tail=stop_tail)
        switch_epoch, switch_values = int(best_k[0, x0]), best[0] + A
    _, (V, G, J, action, target) = _backward_pass(
        spec, kernels, cost, stop_tail, Ks, stops=spec.stop_mode is StopMode.DYNAMIC,
        start_epoch=T if switch_epoch is None else switch_epoch, grids=True,
    )
    z0 = spec.layers - 1  # the whole budget is left at time zero
    policy = PolicyTable(spec=spec, x_max=kernels.x_max, horizon=T, action=action,
                         target=target, z0=z0, switch_epoch=switch_epoch)
    return SolveResult(spec=spec, value_grid=ValueGrid(V=V, G=G, J_order=J, A=A),
                       policy=policy, total_cost=float(V[0, x0, z0] + A),
                       switch_values=switch_values)


def solve(spec: ModelSpec, kernels: KernelTable, x0: int) -> SolveResult:
    """Solve the requested taxonomy model; total cost is V_tilde(0, x0) + A."""
    zero_tail = np.zeros(kernels.horizon + 1)
    return _solve_with(spec, kernels, x0, stop_tail=zero_tail, add_A=True)


def solve_original_form(spec: ModelSpec, kernels: KernelTable, x0: int) -> float:
    """Un-reformulated recursion: one-period cost C and stopping cost with its
    outside-source integral.  Intended for small instances and equivalence
    tests against ``solve``."""
    res = _solve_with(spec, kernels, x0, stop_tail=kernels.stop_tail, add_A=False,
                      cost=kernels.C)
    return res.total_cost


def static_switch_values(spec: ModelSpec,
                         kernels: KernelTable) -> tuple[np.ndarray, np.ndarray]:
    """For STATIC models: per starting inventory, the best committed switch
    epoch and its total cost (V + A)."""
    if spec.stop_mode is not StopMode.STATIC:
        raise BudgetMisuse("static_switch_values requires a STATIC spec")
    best, best_k = _static_sweep(spec, kernels, [kernels.params.K], cost=kernels.C_tilde,
                                 stop_tail=np.zeros(kernels.horizon + 1))
    return best[0] + kernels.A, best_k[0]


def solve_values(spec: ModelSpec, kernels: KernelTable, setup_costs) -> np.ndarray:
    """Total cost V(0, x) + A per setup cost (rows) and starting inventory.

    One backward pass serves every K, since the kernels do not depend on
    it.  Rows equal ``solve(spec, kernels_with_K(kernels, K), x0).values_at_zero``;
    for STATIC specs each x takes its own best switch epoch, as in
    ``static_switch_values``.
    """
    Ks = [float(K) for K in setup_costs]
    zero_tail = np.zeros(kernels.horizon + 1)
    if spec.stop_mode is StopMode.STATIC:
        best, _ = _static_sweep(spec, kernels, Ks, cost=kernels.C_tilde, stop_tail=zero_tail)
        return best + kernels.A
    V0, _ = _backward_pass(
        spec, kernels, kernels.C_tilde, zero_tail, Ks,
        stops=spec.stop_mode is StopMode.DYNAMIC, start_epoch=kernels.horizon, grids=False,
    )
    return V0[:, :, spec.layers - 1] + kernels.A


def extract_regions(policy: PolicyTable, t: int, z: int | None = None):
    """Disjoint (stop, order, continue) inventory sets at epoch t."""
    if not 0 <= t <= policy.horizon:
        raise ValueError(f"t must lie in 0..{policy.horizon}")
    z = policy.z0 if z is None else z
    act = policy.action[t, :, z]
    stop = np.flatnonzero(act == STOP)
    order = np.flatnonzero(act == ORDER)
    cont = np.flatnonzero(act == CONTINUE)
    return stop, order, cont


def order_up_to_profile(policy: PolicyTable, z: int | None = None) -> list[dict[int, int]]:
    """Per epoch, the map x -> order-up-to level on the ordering set."""
    z = policy.z0 if z is None else z
    out = []
    for t in range(policy.horizon + 1):
        xs = np.flatnonzero(policy.action[t, :, z] == ORDER)
        out.append({int(x): int(policy.target[t, x, z]) for x in xs})
    return out
