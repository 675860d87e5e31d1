import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from eolstop import LostSalesConvention, ModelSpec, _backends, build_kernel_table, solve

from conftest import small_instance
from scalar_kernels import _ev_clamped_loop, _suffix_min_loop


def _rows(W):
    return W.reshape(-1, W.shape[-1])


def _ev_clamped_rows(V, pmf, tail):
    """``_ev_clamped_loop`` on every row of V (the last axis)."""
    return np.array([_ev_clamped_loop(v, pmf, tail) for v in _rows(V)]).reshape(V.shape)


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
            a = _backends.ev_clamped(V, pmf, tail)
            b = _ev_clamped_loop(V, pmf, tail)
            assert np.allclose(a, b, rtol=1e-13, atol=1e-12)

    def test_ev_clamped_rows_match_one_row_calls(self, base_kernels):
        # a batch of rows gives, bit for bit, what each row gives alone
        rng = np.random.default_rng(2)
        V = rng.normal(size=(2, 3, 1, 300)).cumsum(axis=-1)
        pmf, tail = base_kernels.pmfs[25], base_kernels.pmf_tails[25]
        got = _backends.ev_clamped(V, pmf, tail)
        assert got.shape == V.shape
        for v, g in zip(_rows(V), _rows(got)):
            assert np.array_equal(g, _backends.ev_clamped(v, pmf, tail))

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


@pytest.mark.parametrize("n", [5, 40])  # below and above the pmf's support 0..11
def test_push_is_the_adjoint_of_ev(n):
    # <P v, q> = <v, P^T q> for P v = ev_clamped(v), P^T q = push_clamped(q);
    # P is stochastic, so P 1 = 1 and P^T keeps mass.  A truncated pmf leaves
    # a residual tail (about 0.02 here) that the clamped tail index must carry.
    from eolstop import _poisson

    pmf = _poisson.pmf(np.arange(12), 6.0)
    tail = 1.0 - np.cumsum(pmf)
    assert tail[-1] > 0.01
    rng = np.random.default_rng(n)
    for _ in range(20):
        v, q = rng.uniform(size=n), rng.uniform(size=n)
        lhs = np.dot(_backends.ev_clamped(v, pmf, tail), q)
        rhs = np.dot(v, _backends.push_clamped(q, pmf, tail))
        assert abs(lhs - rhs) <= 1e-12 * lhs
    np.testing.assert_allclose(_backends.ev_clamped(np.ones(n), pmf, tail), 1.0, rtol=1e-12)
    assert _backends.push_clamped(q, pmf, tail).sum() == pytest.approx(q.sum(), rel=1e-12)


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
