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
one backward pass serves several K, and the switch epochs k* a STATIC model
may commit to ride along as one more batch axis.  The pass carries one value
array of shape (k*, K, layer, x) and takes one Bellman step on all of it per
epoch; rows with k* <= t hold the forced stop.  The K and layer axes keep
size 1 until some layer may order (epoch T-1 for ``.../F``, 0 for
``.../Z``), so the no-order chain they all share is computed once.

A step computes values first: one ``_backends.ev_clamped`` call on every
row gives the continuation G, the suffix minimum of c*y + G gives the best
order J, and the value is min(G, J) and then min(that, stop).  The stop and
order masks and the order-up-to levels (the smallest-index argmin) are
built only when the policy is kept.  The CapSaturated test needs no argmin:
see ``_check_cap``.
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


def _check_cap(f, J, G, stop_vec, t):
    """Raise CapSaturated if an order taken at some x < X targets X = x_max.

    ``f`` is each column's order objective, J[..., x] = K + min f[x+1:] -
    cy[x] its best order and G its continuation.  With smallest-index ties
    the order from x targets X exactly when x >= m, m the last y < X with
    f[y] <= f[X] (0 if there is none), so only x in [min m, X) are read.
    An order is taken where J is strictly below G and, given ``stop_vec``,
    strictly below stopping too: ties continue or stop."""
    X = f.shape[-1] - 1
    le = f[..., :-1] <= f[..., -1:]
    le[..., 0] = True  # m = 0 stands for "none": every x then targets X
    m = X - 1 - np.argmax(le[..., ::-1], axis=-1)
    lo = int(m.min())
    Jx = J[..., lo:]
    taken = (np.arange(lo, X) >= m[..., None]) & (Jx < G[..., lo:X])
    if stop_vec is not None:
        taken &= Jx < stop_vec[lo:X]
    if taken.any():
        raise CapSaturated(f"order-up-to reached x_max={X} at epoch {t}; raise the cap")


def _backward_pass(spec: ModelSpec, kernels: KernelTable, setup_costs, switch_epochs, *,
                   original: bool = False, grids: bool = False):
    """Run the recursion down to 0 for every switch epoch and setup cost at once.

    Row i is forced to stop at epoch ``switch_epochs[i]`` (ascending) and at
    every later one; before it, stopping is admissible for DYNAMIC specs only.
    ``original`` runs the un-reformulated form: one-period cost C and the
    stopping cost's outside-source tail.  Returns V(0) at the full budget
    layer as (len(switch_epochs), len(setup_costs), X+1) and, with ``grids``
    (one epoch, one setup cost), the (V, G, J_order, action, target) grids
    over every epoch; without, no policy is filled.  Either way a chosen
    order-up-to level at x_max raises CapSaturated.
    """
    p = kernels.params
    T, X, Z = kernels.horizon, kernels.x_max, spec.layers
    stops = spec.stop_mode is StopMode.DYNAMIC
    cost, stop_tail = ((kernels.C, kernels.stop_tail) if original
                       else (kernels.C_tilde, np.zeros(T + 1)))
    y = np.arange(X + 1, dtype=np.float64)
    scrap, cy = p.c4 * y, p.c_bar * y
    disc = np.exp(-p.delta)
    Ks = np.asarray(setup_costs, dtype=np.float64)[:, None, None]
    epochs = np.asarray(switch_epochs)
    full = (len(epochs), len(Ks), Z, X + 1)
    # an order at layer z >= lo continues at layer z - lo (lo = 0: unlimited)
    lo = 0 if spec.order_budget is None else 1
    # W[i, k, z] is the value column at t+1; the K and layer axes stay of size
    # 1 until some layer may order, so the no-order chain is expected once
    W = np.broadcast_to(scrap + stop_tail[epochs[-1]], (len(epochs), 1, 1, X + 1))
    if grids:  # filled as (t, z, x), returned as (t, x, z) views
        V = np.empty((T + 1, Z, X + 1))
        V[epochs[0]:] = (scrap + stop_tail[epochs[0]:, None])[:, None, :]
        G_all = np.full((T, Z, X + 1), np.nan)
        J_all = np.full((T, Z, X + 1), np.inf)
        action = np.full((T + 1, Z, X + 1), STOP, dtype=np.int8)
        target = np.full((T + 1, Z, X + 1), -1, dtype=np.int32)

    first_live = np.searchsorted(epochs, np.arange(T), side="right")  # first row with k* > t
    for t in range(epochs[-1] - 1, -1, -1):
        live = first_live[t]
        G = _backends.ev_clamped(W[live:], kernels.pmfs[t], kernels.pmf_tails[t])
        G *= disc
        G += cost[t]
        stop_vec = scrap + stop_tail[t]
        val = G
        orders = t == 0 or spec.first_order is FirstOrder.FREE
        if orders:  # from here on each (K, layer) column is its own
            f = cy + G[:, :, :Z - lo]  # ordering up to y from layer z goes on at z - lo
            mins = _backends.suffix_min(f)
            J = Ks + mins[..., 1:]
            J -= cy[:-1]  # best order from x < X, layers z >= lo
            val = np.empty((len(G),) + full[1:])
            val[...] = G
            _check_cap(f, J, val[:, :, lo:], stop_vec if stops else None, t)
            np.minimum(val[:, :, lo:, :-1], J, out=val[:, :, lo:, :-1])  # ties continue
        if grids:  # one row and one setup cost
            G_all[t] = G[0, 0]
            stopping = stop_vec <= val[0, 0] if stops else np.zeros((Z, X + 1), dtype=bool)
            ordering = np.zeros((Z, X + 1), dtype=bool)
            if orders:
                J_all[t, lo:, :-1] = J[0, 0]  # layers below lo have no order left
                ordering = (J_all[t] < G_all[t]) & ~stopping  # strict: ties continue
                args = _backends.suffix_argmin(f[0, 0], mins[0, 0])
                target[t, lo:, :-1] = np.where(ordering[lo:, :-1], args[:, 1:], -1)
            action[t] = np.select([stopping, ordering], [STOP, ORDER], CONTINUE)
        if stops:
            np.minimum(val, stop_vec, out=val)  # ties stop
        if grids:
            V[t] = val[0, 0]
        W = val
        if live:  # rows with k* <= t hold the forced stop
            W = np.concatenate((np.broadcast_to(stop_vec, (live,) + val.shape[1:]), val))

    V0 = np.broadcast_to(W, full)[:, :, Z - 1]
    if not grids:
        return V0, None
    return V0, tuple(g.transpose(0, 2, 1) for g in (V, G_all, J_all, action, target))


def _best_epoch(spec, kernels, setup_costs, original=False):
    """Per setup cost (rows) and starting inventory: the value of the best
    switch epoch the spec admits (each of 0..T for STATIC, T otherwise) and
    that epoch, the earliest on ties."""
    epochs = np.arange(kernels.horizon + 1)
    if spec.stop_mode is not StopMode.STATIC:
        epochs = epochs[-1:]
    V0, _ = _backward_pass(spec, kernels, setup_costs, epochs, original=original)
    return V0.min(axis=0), epochs[V0.argmin(axis=0)]


def solve(spec: ModelSpec, kernels: KernelTable, x0: int) -> SolveResult:
    """Solve the requested taxonomy model; total cost is V_tilde(0, x0) + A."""
    if not 0 <= x0 <= kernels.x_max:
        raise ValueError(f"x0 must lie in 0..{kernels.x_max}")
    T, Ks, A = kernels.horizon, [kernels.params.K], kernels.A
    switch_epoch = switch_values = None
    if spec.stop_mode is StopMode.STATIC:  # commit to the best switch epoch for x0
        best, best_k = _best_epoch(spec, kernels, Ks)
        switch_epoch, switch_values = int(best_k[0, x0]), best[0] + A
    _, (V, G, J, action, target) = _backward_pass(
        spec, kernels, Ks, [T if switch_epoch is None else switch_epoch], grids=True)
    z0 = spec.layers - 1  # the whole budget is left at time zero
    policy = PolicyTable(spec=spec, x_max=kernels.x_max, horizon=T, action=action,
                         target=target, z0=z0, switch_epoch=switch_epoch)
    return SolveResult(spec=spec, value_grid=ValueGrid(V=V, G=G, J_order=J, A=A),
                       policy=policy, total_cost=float(V[0, x0, z0] + A),
                       switch_values=switch_values)


def solve_original_form(spec: ModelSpec, kernels: KernelTable, x0: int) -> float:
    """Un-reformulated recursion: one-period cost C and stopping cost with its
    outside-source integral.  Intended for small instances and equivalence
    tests against ``solve``.

    Its total equals ``solve``'s V + A (the identity V = V~ + A) under
    ``LostSalesConvention.ARRIVAL`` only.  Under PAPER the reformulated cost
    C~ at x = 0 keeps the arrival accounting while C follows the printed sum,
    so the two disagree: on the base case at K=1000, x0=0 this form is lower
    by 134 for D/inf/F, 37 for D/1/Z and 788 for T/inf/F (1.4%)."""
    if not 0 <= x0 <= kernels.x_max:
        raise ValueError(f"x0 must lie in 0..{kernels.x_max}")
    return float(_best_epoch(spec, kernels, [kernels.params.K], original=True)[0][0, x0])


def static_switch_values(spec: ModelSpec,
                         kernels: KernelTable) -> tuple[np.ndarray, np.ndarray]:
    """For STATIC models: per starting inventory, the best committed switch
    epoch and its total cost (V + A)."""
    if spec.stop_mode is not StopMode.STATIC:
        raise BudgetMisuse("static_switch_values requires a STATIC spec")
    best, best_k = _best_epoch(spec, kernels, [kernels.params.K])
    return best[0] + kernels.A, best_k[0]


def solve_values(spec: ModelSpec, kernels: KernelTable, setup_costs) -> np.ndarray:
    """Total cost V(0, x) + A per setup cost (rows) and starting inventory.

    One backward pass serves every K, since the kernels do not depend on
    it.  Rows equal ``solve(spec, kernels_with_K(kernels, K), x0).values_at_zero``;
    for STATIC specs each x takes its own best switch epoch, as in
    ``static_switch_values``.
    """
    best, _ = _best_epoch(spec, kernels, [float(K) for K in setup_costs])
    return best + kernels.A


def _layer(policy: PolicyTable, z: int | None) -> int:
    """Budget layer z, by default the policy's own; ValueError off the table."""
    z = policy.z0 if z is None else z
    if not 0 <= z < policy.action.shape[2]:
        raise ValueError(f"z must lie in 0..{policy.action.shape[2] - 1}")
    return z


def extract_regions(policy: PolicyTable, t: int, z: int | None = None):
    """Disjoint (stop, order, continue) inventory sets at epoch t."""
    if not 0 <= t <= policy.horizon:
        raise ValueError(f"t must lie in 0..{policy.horizon}")
    act = policy.action[t, :, _layer(policy, z)]
    stop = np.flatnonzero(act == STOP)
    order = np.flatnonzero(act == ORDER)
    cont = np.flatnonzero(act == CONTINUE)
    return stop, order, cont


def order_up_to_profile(policy: PolicyTable, z: int | None = None) -> list[dict[int, int]]:
    """Per epoch, the map x -> order-up-to level on the ordering set."""
    z = _layer(policy, z)
    out = []
    for t in range(policy.horizon + 1):
        xs = np.flatnonzero(policy.action[t, :, z] == ORDER)
        out.append({int(x): int(policy.target[t, x, z]) for x in xs})
    return out
