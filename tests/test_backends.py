import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from eolstop import (
    KernelTable,
    LostSalesConvention,
    ModelSpec,
    _backends,
    build_kernel_table,
    kernels_with_K,
    solve,
)
from eolstop.solver import solve_policies

from conftest import small_instance
from scalar_kernels import (_ev_clamped_loop, _ev_clamped_rows, _push_clamped_loop,
                            _suffix_min_loop)


def _rows(W):
    return W.reshape(-1, W.shape[-1])


def _ev(V, pmf, tail):
    """``_backends.ev_clamped`` with the pmf's own blocked operator."""
    return _backends.ev_clamped(V, pmf, tail, _backends.toeplitz_block(pmf))


def _push(q, pmf, tail):
    """``_backends.push_clamped`` with the pmf's own blocked operator."""
    return _backends.push_clamped(q, pmf, tail, _backends.toeplitz_block(pmf))


def _suffix_min_rows(W):
    """The suffix minima of ``_suffix_min_loop`` on every row of W."""
    return np.array([_suffix_min_loop(w)[0] for w in _rows(W)]).reshape(W.shape)


def _suffix_argmin_rows(W, mins):
    """The smallest-index argmins of ``_suffix_min_loop`` on every row of W."""
    return np.array([_suffix_min_loop(w)[1] for w in _rows(W)]).reshape(W.shape)


class TestScalarKernelsAgree:
    def test_ev_clamped(self, base_kernels):
        rng = np.random.default_rng(0)
        V = rng.normal(size=300).cumsum()
        for t in (0, 25, 49):
            pmf, tail = base_kernels.pmfs[t], base_kernels.pmf_tails[t]
            a = _ev(V, pmf, tail)
            b = _ev_clamped_loop(V, pmf, tail)
            assert np.allclose(a, b, rtol=1e-13, atol=1e-12)

    def test_ev_clamped_rows_match_one_row_calls(self, base_kernels):
        # a batch of rows gives, bit for bit, what each row gives alone
        rng = np.random.default_rng(2)
        V = rng.normal(size=(2, 3, 1, 300)).cumsum(axis=-1)
        pmf, tail = base_kernels.pmfs[25], base_kernels.pmf_tails[25]
        got = _ev(V, pmf, tail)
        assert got.shape == V.shape
        for v, g in zip(_rows(V), _rows(got)):
            assert np.array_equal(g, _ev(v, pmf, tail))

    def test_suffix_min_with_ties(self):
        rng = np.random.default_rng(1)
        W = rng.integers(0, 20, size=400).astype(float)  # many ties
        vb, ib = _suffix_min_loop(W)
        va = _backends.suffix_min(W)
        assert np.array_equal(va, vb)
        assert np.array_equal(_backends.suffix_argmin(W, va), ib)
        W2 = rng.integers(0, 5, size=(6, 50)).astype(float)  # a batch, scanned row by row
        va = _backends.suffix_min(W2)
        ia = _backends.suffix_argmin(W2, va)
        for w, v, i in zip(W2, va, ia):
            vb, ib = _suffix_min_loop(w)
            assert np.array_equal(v, vb) and np.array_equal(i, ib)

    @pytest.mark.parametrize("seed", range(6))
    def test_dp_solve(self, seed, monkeypatch):
        params, model, x0, x_max = small_instance(seed)
        kt = build_kernel_table(params, model, LostSalesConvention.ARRIVAL, x_max=x_max)
        spec = ModelSpec.parse(("D/inf/F", "D/1/Z", "T/2/F", "S/2/F")[seed % 4])
        a = solve(spec, kt, x0)
        swapped = set()
        for name, oracle in (("ev_clamped", _ev_clamped_rows), ("suffix_min", _suffix_min_rows),
                             ("suffix_argmin", _suffix_argmin_rows)):
            monkeypatch.setattr(_backends, name,
                                lambda *a, name=name, f=oracle: swapped.add(name) or f(*a))
        b = solve(spec, kt, x0)
        assert swapped == {"ev_clamped", "suffix_min", "suffix_argmin"}
        assert a.total_cost == pytest.approx(b.total_cost, rel=1e-12)
        assert np.array_equal(a.policy.action, b.policy.action)
        assert np.array_equal(a.policy.target, b.policy.target)

    @pytest.mark.parametrize("conv", list(LostSalesConvention))
    @pytest.mark.parametrize("seed", range(8))
    def test_policy_grids_match_the_oracle_solve(self, seed, conv, monkeypatch):
        # every K and x0 of one policy pass, against the same pass with the
        # loop oracle in place of the blocked product
        params, model, x0, x_max = small_instance(seed)
        kt = build_kernel_table(params, model, conv, x_max=x_max)
        Ks, x0s = [0.0, 20.0, 200.0], [0, x0]
        for label in ("D/inf/F", "D/2/F", "D/1/Z", "T/1/Z", "S/1/Z"):
            spec = ModelSpec.parse(label)
            got = solve_policies(spec, kt, Ks, x0s)
            with monkeypatch.context() as m:
                m.setattr(_backends, "ev_clamped", _ev_clamped_rows)
                want = solve_policies(spec, kt, Ks, x0s)
            for a, b in zip(sum(got, []), sum(want, [])):
                assert a.policy.switch_epoch == b.policy.switch_epoch
                assert np.array_equal(a.policy.action, b.policy.action)
                assert np.array_equal(a.policy.target, b.policy.target)
                assert a.total_cost == pytest.approx(b.total_cost, rel=1e-12)


# (shape of V or q, pmf length m) at the edges of the B-cell blocks: m = 1,
# m > B and m > n, n < B, n = B and n not a multiple of it, 4-D batches
BLOCK_CASES = [((1,), 1), ((3,), 47), ((2, 31), 1), ((2, 32), 33), ((3, 33), 64),
               ((4, 96), 100), ((2, 3, 300), 47), ((2, 1, 3, 70), 2), ((1, 2, 2, 1201), 40)]


@pytest.mark.parametrize("shape, m", BLOCK_CASES)
def test_blocked_operators_match_the_loop_oracles(shape, m):
    assert _backends.B == 32  # the cases above are placed around it
    rng = np.random.default_rng(m * 1000 + shape[-1])
    pmf = rng.uniform(size=m)
    pmf *= (1.0 - 1e-3) / pmf.sum()  # a truncated residual for the tail to carry
    tail = 1.0 - np.cumsum(pmf)
    T = _backends.toeplitz_block(pmf)
    i, j = np.indices((_backends.B + m - 1, _backends.B))
    d = j + m - 1 - i  # T[i, j] = pmf[j + m - 1 - i], 0 outside the pmf
    assert T.flags.c_contiguous
    assert np.array_equal(T, np.where((d >= 0) & (d < m), pmf[d.clip(0, m - 1)], 0.0))
    V, q = rng.uniform(1.0, 2.0, size=shape), rng.uniform(size=shape)
    ev, push = _backends.ev_clamped(V, pmf, tail, T), _backends.push_clamped(q, pmf, tail, T)
    assert ev.shape == push.shape == shape
    want_ev = np.array([_ev_clamped_loop(v, pmf, tail) for v in _rows(V)]).reshape(shape)
    want_push = np.array([_push_clamped_loop(r, pmf, tail) for r in _rows(q)]).reshape(shape)
    np.testing.assert_allclose(ev, want_ev, rtol=1e-13, atol=0)
    np.testing.assert_allclose(push, want_push, rtol=1e-13, atol=0)
    # the row oracle that stands in for ev_clamped in full-size solves is the loop
    assert np.array_equal(_ev_clamped_rows(V, pmf, tail), want_ev)


@pytest.mark.parametrize("n", [5, 40])  # below and above the pmf's support 0..11
def test_push_is_the_adjoint_of_ev(n):
    # <P v, q> = <v, P^T q> for P v = ev_clamped(v), P^T q = push_clamped(q);
    # P is stochastic, so P 1 = 1 and P^T keeps mass.  A truncated pmf leaves
    # a residual tail (about 0.02 here) that the clamped tail index must carry.
    from eolstop import _poisson

    pmf = _poisson.term(np.arange(12), 6.0)
    tail = 1.0 - np.cumsum(pmf)
    assert tail[-1] > 0.01
    rng = np.random.default_rng(n)
    for _ in range(20):
        v, q = rng.uniform(size=n), rng.uniform(size=n)
        lhs = np.dot(_ev(v, pmf, tail), q)
        rhs = np.dot(v, _push(q, pmf, tail))
        assert abs(lhs - rhs) <= 1e-12 * lhs
    np.testing.assert_allclose(_ev(np.ones(n), pmf, tail), 1.0, rtol=1e-12)
    assert _push(q, pmf, tail).sum() == pytest.approx(q.sum(), rel=1e-12)
    # a 2-D q is pushed row by row: the identity and the mass hold per row
    V, Q = rng.uniform(size=(2, 3, n))
    pushed = _push(Q, pmf, tail)
    np.testing.assert_allclose(np.sum(_ev(V, pmf, tail) * Q, axis=1),
                               np.sum(V * pushed, axis=1), rtol=1e-12)
    np.testing.assert_allclose(pushed.sum(axis=1), Q.sum(axis=1), rtol=1e-12)


def test_benchmark_layer_bindings_resolve(monkeypatch):
    # perfbench/child.py times each layer by wrapping the (module, attribute)
    # pairs of its LAYERS table; a pair that no longer resolves turns that
    # layer's metrics into null, so every pair must name a callable.
    # machine_info also calls eolstop.active_backend().
    import eolstop

    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, child)
    spec.loader.exec_module(child)  # the standard library only, at import
    assert child.LAYERS
    for name, module, attr, *_ in child.LAYERS:
        assert callable(getattr(importlib.import_module(module), attr, None)), name
    assert eolstop.active_backend() == "numpy"


def _perfbench_child():
    """``perfbench/child.py`` as a module; it imports the standard library only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = child  # dataclasses look their module up while it executes
    try:
        spec.loader.exec_module(child)
    finally:
        del sys.modules[spec.name]
    return child


# a layer of perfbench/child.py with a work counter -> one call of it on a kernel table
_COUNTED_LAYER_CALLS = {
    "kernels.build_kernel_table": lambda f, kt: f(kt.params, kt.model, kt.convention,
                                                  x_max=kt.x_max),
    "solver.solve": lambda f, kt: f(ModelSpec.parse("D/inf/F"), kt, 100),
    "sim.evaluate_policy": lambda f, kt: f(solve(ModelSpec.parse("D/inf/F"), kt, 100).policy,
                                           kt.params, kt.model, 100, paths=200, seed=1),
}


@pytest.mark.parametrize("layer", [layer for layer in _perfbench_child().LAYERS if layer[-1]],
                         ids=lambda layer: layer[0])
def test_benchmark_work_counters_read_the_layer_results(layer, base_kernels):
    # the traced benchmark adds counter(result) over every call of a layer; a
    # result that lost the fields read, or a count that is no int, would turn
    # the metric into null or break its record
    name, module, attr, _, (counter, size) = layer
    assert name in _COUNTED_LAYER_CALLS, f"no test call for the counted layer {name}"
    result = _COUNTED_LAYER_CALLS[name](getattr(importlib.import_module(module), attr),
                                        kernels_with_K(base_kernels, 1000.0))
    assert type(size(result)) is int, counter
    if name == "kernels.build_kernel_table":
        assert isinstance(result, KernelTable)


def test_benchmark_library_calls_resolve_and_match_the_goldens():
    # besides its LAYERS, the benchmark calls the library in two places: the
    # per-cell sweep check (settings, kernels, solve) and the run's machine
    # record; a name either loses breaks every run of the benchmark
    import eolstop

    child = _perfbench_child()
    got = child.sweep_cell_pcts(child.config_for("sweep384", 1, True), [1, 2])
    ref = json.loads(child.GOLDENS.read_text())["sweep384"]["pct"]
    assert len(got) == 18  # 2 settings x 3 setup costs x 3 starting stocks
    for key, pct in got.items():
        assert math.isclose(pct, ref[key], rel_tol=1e-9, abs_tol=1e-9), key
    assert child.machine_info()["eolstop_file"] == eolstop.__file__


def test_period_tables_equal_the_full_rectangle_formula():
    # 1F1 runs only on the cells read; the full-rectangle formula, zeroed
    # where a cell is never read, must come out bit for bit the same.  The
    # counts include 0 and one above x_max.
    from eolstop._poisson import hyp1f1_neg

    x_max, delta, gamma = 30, 0.005, 0.01
    counts = np.array([[0, 3, 7], [12, 3, 41], [29, 30, 0]])
    ns = np.unique(counts)
    n = ns[:, None].astype(float)
    j = np.arange(min(int(ns[-1]), x_max) + 1)
    read = j <= n  # and j >= 1 for the arrivals; elsewhere alpha = 1 stands in
    seg = np.where(read, hyp1f1_neg(np.where(read, j + 1, 1), n + 2, delta) / (n + 1), 0.0)

    def lost(a):
        arrivals = (j >= 1) & read
        terms = np.where(arrivals, hyp1f1_neg(np.where(arrivals, j, 1), n + 1, a), 0.0)
        return n * hyp1f1_neg(1, 2, a) - np.cumsum(terms, axis=1)

    want = (ns, np.cumsum(seg, axis=1), np.cumsum(j * seg, axis=1), lost(delta),
            lost(delta + gamma))
    got = _backends.period_tables(counts, x_max, delta, gamma)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
