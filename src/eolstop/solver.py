"""Backward-induction solvers for the ordering/stopping flexibility taxonomy.

A model is addressed as ``a/b/c``:

  a - when inventory holding may stop: D dynamically at any review epoch,
      S at a single switch epoch committed at time zero, T never before T;
  b - order budget: a positive integer or ``inf``;
  c - first-order timing: Z only at time zero, F free.

The recursion runs in reformulated units: the stopping cost is just the
scrap term ``c4*x`` and the policy-independent outside-source constant A is
added back at the end.  The original form (one-period cost C, stopping cost
with its integral tail) lives in the test suite, ``tests/original_form.py``,
as an independent oracle of the identity V = V_tilde + A.

After the reformulation the setup cost K enters only the order search, so
one backward pass serves several K, and the switch epochs k* a STATIC model
may commit to ride along as one more batch axis.  So do kernel tables that
share the horizon, x_max and demand rates (the settings of one intensity):
their cost rows, scrap, order cost and discount broadcast along a leading
table axis.  The pass carries one value array of shape (table, k*, column,
x) and takes one Bellman step on all of it per epoch; rows with k* <= t hold
the forced stop.  A column is a (budget layer, K) pair that may order, and
an order from it goes on one layer down at the same K (in itself when the
budget is unlimited); a finite budget's last layer, which never orders, is
one K-free column (K = inf).  The column axis keeps size 1 until some layer
may order (epoch T-1 for ``.../F``, 0 for ``.../Z``), so the no-order chain
the columns share is computed once.
``solve_values`` takes a list of tables; STATIC specs keep one table per
pass, as does ``solve_policies``, whose one grids pass serves every K and x0.

A step computes values first: one ``_backends.ev_clamped`` call on every
row gives the continuation G, the suffix minimum of c*y + G gives the best
order J, and the value is min(G, J) and then min(that, stop), both taken in
G.  The stopping (scrap), order-cost and discount terms are built once per
pass.  What is left is the floor, one ``np.convolve`` per row in
``ev_clamped``.  The stop and order masks and the order-up-to levels
(the smallest-index argmin) are built only when the policy is kept, and are
copied into its grids where the masks hold.  The
CapSaturated test needs no argmin, and where the order cost at x_max - 1 is
no higher than at x_max in every column it reads that one column: see
``_check_cap``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _backends
from .errors import BudgetMisuse, CapSaturated, NonFinite
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
    """Reformulated values V and the constant A that turns them into totals."""

    V: np.ndarray  # (T+1, X+1, Z)
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


def _check_cap(f, J, G, stop_vec):
    """Per table (entry of the leading axis): whether an order taken at some
    x < X targets X = x_max.

    ``f`` is each column's order objective, J[..., x] = K + min f[x+1:] -
    cy[x] its best order and G its continuation.  With smallest-index ties
    the order from x targets X exactly when x >= m, m the last y < X with
    f[y] <= f[X] (0 if there is none), so only x in [min m, X) are read.
    An order is taken where J is strictly below G and, given ``stop_vec``,
    strictly below stopping too: ties continue or stop.  When every column
    has f[X-1] <= f[X], every m is X-1 and only x = X-1 is read."""
    X = f.shape[-1] - 1
    if (f[..., -2] <= f[..., -1]).all():
        lo, at_m = X - 1, True
    else:
        le = f[..., :-1] <= f[..., -1:]
        le[..., 0] = True  # m = 0 stands for "none": every x then targets X
        m = X - 1 - np.argmax(le[..., ::-1], axis=-1)
        lo = int(m.min())
        at_m = np.arange(lo, X) >= m[..., None]
    Jx = J[..., lo:]
    taken = at_m & (Jx < G[..., lo:X])
    if stop_vec is not None:
        taken &= Jx < stop_vec[..., lo:X]
    return taken.reshape(len(taken), -1).any(axis=1)


def _backward_pass(spec: ModelSpec, tables, setup_costs, switch_epochs, *,
                   grids: bool = False):
    """Run the recursion down to 0 for every table, switch epoch and setup
    cost at once.

    ``tables`` is a sequence of kernel tables that share the horizon, x_max
    and demand rates (``solve_values`` checks this); their cost rows, scrap,
    order and discount terms enter along the leading table axis.  Row i is
    forced to stop at epoch ``switch_epochs[i]`` (ascending) and at every
    later one; before it, stopping is admissible for DYNAMIC specs only.
    Returns V(0) at the full budget layer as (len(tables),
    len(switch_epochs), len(setup_costs), X+1) and, with ``grids`` (one
    table), the (V, action, target) grids over every epoch as (t, row, x,
    column), columns as below, each row a forced STOP from its epoch on; else
    no policy is filled.  Either way
    a chosen order-up-to level at x_max raises CapSaturated once the pass is
    done, naming every table that hit it and the first epoch (counting down)
    where one did, and a total V(0, x) + A that is not finite raises
    NonFinite.
    """
    kt0 = tables[0]
    T, X = kt0.horizon, kt0.x_max
    pmfs, tails = kt0.pmfs, kt0.pmf_tails
    stops = spec.stop_mode is StopMode.DYNAMIC
    y = np.arange(X + 1, dtype=np.float64)
    col = (len(tables), 1, 1, -1)  # a per-table term along (epoch, column, x)
    # the stopping cost c4*x at every epoch; + 0.0 turns the -0.0 of c4 * 0
    # (c4 < 0) into +0.0
    stop_vec = np.stack([kt.params.c4 * y for kt in tables]).reshape(col) + 0.0
    cy = np.stack([kt.params.c_bar * y for kt in tables]).reshape(col)
    disc = np.array([np.exp(-kt.params.delta) for kt in tables]).reshape(col)
    # one column per (layer that may order, K), the top layer last; a finite
    # budget's last layer is one K-free column in front (K = inf: no order)
    Ks, b = np.asarray(setup_costs, dtype=np.float64), spec.order_budget
    nK = len(Ks)
    Kcol = (Ks if b is None else np.concatenate(([np.inf], np.tile(Ks, b))))[:, None]
    # an order from column c goes on in below[c]: its own column when the
    # budget is unlimited, else the same K one layer down
    below = np.arange(nK) if b is None else np.maximum(np.arange(len(Kcol)) - nK, 0)
    epochs = np.asarray(switch_epochs)
    # W[s, i, c] is table s's value column c at t+1; one column until some
    # layer may order, so the no-order chain they all share is expected once
    W = np.broadcast_to(stop_vec, (len(tables), len(epochs), 1, X + 1))
    if grids:  # filled as (t, row, column, x), returned as (t, row, x, column) views
        V = np.empty((T + 1, len(epochs), len(Kcol), X + 1))
        action = np.full(V.shape, CONTINUE, dtype=np.int8)
        target = np.full(V.shape, -1, dtype=np.int32)

    capped, cap_epoch = np.zeros(len(tables), dtype=bool), None
    first_live = np.searchsorted(epochs, np.arange(T), side="right")  # first row with k* > t
    for t in range(epochs[-1] - 1, -1, -1):
        live = first_live[t]
        G = _backends.ev_clamped(W[:, live:], pmfs[t], tails[t])
        G *= disc
        for s, kt in enumerate(tables):
            G[s] += kt.C_tilde[t]
        ordering = None  # with grids (one table): where rows from live on order, x < X
        if t == 0 or spec.first_order is FirstOrder.FREE:
            if G.shape[2] < len(Kcol):  # the shared no-order chain splits into the columns
                G = np.repeat(G, len(Kcol), axis=2)
            f = G[:, :, below]
            f += cy  # ordering up to y from column c goes on in below[c]
            mins = _backends.suffix_min(f)
            J = mins[..., 1:] + Kcol
            J -= cy[..., :-1]  # best order from x < X
            hit = _check_cap(f, J, G, stop_vec if stops else None)
            if cap_epoch is None and hit.any():
                cap_epoch = t
            capped |= hit
            if grids:  # strict: ties continue
                ordering = J[0] < G[0, ..., :-1]
                order_to = _backends.suffix_argmin(f[0], mins[0])[..., 1:]
            np.minimum(G[..., :-1], J, out=G[..., :-1])  # ties continue
        if stops:
            np.minimum(G, stop_vec, out=G)  # ties stop
        if grids:  # live rows hold CONTINUE and target -1 until a mask says otherwise
            if stops:  # stop <= min(G, stop) exactly where stop <= G
                stopping = stop_vec[0] <= G[0]
                np.copyto(action[t, live:], STOP, where=stopping)
                if ordering is not None:
                    ordering &= ~stopping[..., :-1]
            if ordering is not None:
                np.copyto(action[t, live:, :, :-1], ORDER, where=ordering)
                np.copyto(target[t, live:, :, :-1], order_to, where=ordering)
            V[t, live:] = G[0]
        W = G
        if live:  # rows with k* <= t hold the forced stop
            W = np.concatenate((np.broadcast_to(stop_vec, G.shape[:1] + (live,) + G.shape[2:]),
                                G), axis=1)

    if cap_epoch is not None:
        raise CapSaturated(f"order-up-to reached x_max={X} at epoch {cap_epoch}; raise the cap",
                           tables=np.flatnonzero(capped).tolist())
    V0 = np.broadcast_to(W[:, :, -nK:], W.shape[:2] + (nK, X + 1))
    # a table's totals lie between its smallest and largest V(0, x) plus its A,
    # so those two sums decide without a copy of V0
    A = np.array([kt.A for kt in tables])
    if not np.isfinite([V0.min(axis=(1, 2, 3)) + A, V0.max(axis=(1, 2, 3)) + A]).all():
        raise NonFinite("a total cost")
    if not grids:
        return V0, None
    for r, e in enumerate(epochs):  # the pass filled each row before its epoch
        V[e:, r] = stop_vec[0, 0]
        action[e:, r] = STOP
    return V0, tuple(g.transpose(0, 1, 3, 2) for g in (V, action, target))


def _best_epoch(spec, kernels, setup_costs):
    """Per setup cost (rows) and starting inventory: the value of the best
    switch epoch 0..T of a STATIC spec and that epoch, the earliest on ties."""
    epochs = np.arange(kernels.horizon + 1)
    (V0,), _ = _backward_pass(spec, [kernels], setup_costs, epochs)
    return V0.min(axis=0), epochs[V0.argmin(axis=0)]


def solve_policies(spec: ModelSpec, kernels: KernelTable, setup_costs,
                   x0s) -> list[list[SolveResult]]:
    """``results[i][j]`` is ``solve(spec, kernels_with_K(kernels, K_i),
    x0s[j])``, bit for bit, from one grids pass (after one switch-epoch sweep
    for STATIC specs) whose rows are the distinct epochs the (K, x0) commit
    to, T alone for D and T specs.  Each (K, row)'s grids are its columns of
    the pass, copied once where a finite budget has several K, and shared by
    every x0 that commits to that row."""
    T, X, A, b, nK = kernels.horizon, kernels.x_max, kernels.A, spec.order_budget, len(setup_costs)
    if not x0s or not all(0 <= x0 <= X for x0 in x0s):
        raise ValueError(f"x0s must list starts in 0..{X}")
    best, epochs = None, np.full((nK, len(x0s)), T)
    if spec.stop_mode is StopMode.STATIC:  # each (K, x0) commits to its best switch epoch
        best, best_k = _best_epoch(spec, kernels, setup_costs)
        epochs = best_k[:, list(x0s)]
    rows = sorted(set(epochs.ravel().tolist()))  # np.unique imports numpy.ma: 1 MB, 19 ms
    _, grids = _backward_pass(spec, [kernels], setup_costs, rows, grids=True)
    z0, results = spec.layers - 1, [[] for _ in setup_costs]  # z0: the whole budget is left
    for i, chosen in enumerate(epochs.tolist()):  # K's columns of each row: see _backward_pass
        cols = slice(i, None, nK) if b is None or nK == 1 else np.r_[0, 1 + i:1 + nK * b:nK]
        views = {e: [g[:, r][..., cols] for g in grids] for r, e in enumerate(rows) if e in chosen}
        switch_values = None if best is None else best[i] + A
        for x0, e in zip(x0s, chosen):
            V, action, target = views[e]
            policy = PolicyTable(spec=spec, x_max=X, horizon=T, action=action, target=target,
                                 z0=z0, switch_epoch=None if best is None else e)
            results[i].append(SolveResult(spec=spec, value_grid=ValueGrid(V=V, A=A), policy=policy,
                                          total_cost=float(V[0, x0, z0] + A),
                                          switch_values=switch_values))
    return results


def solve(spec: ModelSpec, kernels: KernelTable, x0: int) -> SolveResult:
    """Solve the requested taxonomy model; total cost is V_tilde(0, x0) + A."""
    return solve_policies(spec, kernels, [kernels.params.K], [x0])[0][0]


def static_switch_values(spec: ModelSpec,
                         kernels: KernelTable) -> tuple[np.ndarray, np.ndarray]:
    """For STATIC models: per starting inventory, the best committed switch
    epoch and its total cost (V + A)."""
    if spec.stop_mode is not StopMode.STATIC:
        raise BudgetMisuse("static_switch_values requires a STATIC spec")
    best, best_k = _best_epoch(spec, kernels, [kernels.params.K])
    return best[0] + kernels.A, best_k[0]


def solve_values(spec: ModelSpec, kernels, setup_costs) -> np.ndarray:
    """Total cost V(0, x) + A per setup cost (rows) and starting inventory.

    One backward pass serves every K, since the kernels do not depend on
    it.  Row i equals ``solve_policies(spec, kernels, setup_costs,
    x0s)[i][j].values_at_zero``, except that for STATIC specs each x takes its
    own best switch epoch, as in ``static_switch_values``.

    ``kernels`` may also be a list of tables that share the horizon, x_max
    and demand rates (ValueError otherwise); the result is then (table, K,
    x), equal to the single-table results stacked.  Non-STATIC specs run
    one pass for all the tables; STATIC specs keep one pass per table, whose
    switch-epoch axis already carries T+1 rows.  A CapSaturated lists the
    positions of every table that hits the cap in its ``tables``.
    """
    Ks = [float(K) for K in setup_costs]
    single = isinstance(kernels, KernelTable)
    tables = [kernels] if single else list(kernels)
    if not tables:
        raise ValueError("solve_values needs at least one kernel table")
    kt0 = tables[0]
    for kt in tables[1:]:
        if (kt.horizon, kt.x_max) != (kt0.horizon, kt0.x_max):
            raise ValueError("kernel tables solved together must share horizon and x_max")
        if not np.array_equal(kt.model.rates, kt0.model.rates):
            raise ValueError("kernel tables solved together must share the demand rates")
    if spec.stop_mode is StopMode.STATIC:
        values, hits = [], []
        for s, kt in enumerate(tables):
            try:
                values.append(_best_epoch(spec, kt, Ks)[0] + kt.A)
            except CapSaturated as exc:  # name the tables in the list, not in their own pass
                hits.append((s, exc))
        if hits:
            raise CapSaturated(str(hits[0][1]), tables=[s for s, _ in hits])
        values = np.stack(values)
    else:
        V0, _ = _backward_pass(spec, tables, Ks, [kt0.horizon])
        values = V0[:, 0] + np.array([kt.A for kt in tables])[:, None, None]
    return values[0] if single else values


def extract_regions(policy: PolicyTable, t: int, z: int | None = None):
    """Disjoint (stop, order, continue) inventory sets at epoch t and budget
    layer z, by default the policy's own."""
    z = policy.z0 if z is None else z
    if not 0 <= t <= policy.horizon:
        raise ValueError(f"t must lie in 0..{policy.horizon}")
    if not 0 <= z < policy.action.shape[2]:
        raise ValueError(f"z must lie in 0..{policy.action.shape[2] - 1}")
    act = policy.action[t, :, z]
    stop = np.flatnonzero(act == STOP)
    order = np.flatnonzero(act == ORDER)
    cont = np.flatnonzero(act == CONTINUE)
    return stop, order, cont
