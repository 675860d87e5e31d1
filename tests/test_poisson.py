"""``eolstop._poisson`` against scipy, the oracle it replaced, and the guard
that keeps every scipy module out of the CLI's import graph.

Every numeric comparison takes one relative bound, REL, on the cells where
the oracle's value is at least 1e-290.  scipy itself is off the truth by more
than REL in some far tails (its cdf and sf by up to 4.8e-12, gammainc by up
to 4.7e-13, 1F1 at a = 800 by up to 3.6e-13); where the two differ by more
than REL, an independent reference decides, and this module must be within
REL of it and closer to it than scipy: the definition e^-mu mu^k / k! summed
in 80-bit long double for the Poisson values, mpmath for 1F1.  Measured with
numpy 2.4 and scipy 1.17: the pmf terms, cdf and tail rows are within 3.9e-15
of the long double reference (itself good to about 1e-15), and the cdf of one
k over many mu, which thins, within 7.3e-16; 1F1 is within 3.7e-14 of scipy
up to a = 50 and within 3.5e-15 of mpmath at a = 800.  The demand pmfs, rows
of the same terms, are held to a bound 20 times tighter than REL.
"""

import contextlib
import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import hyp1f1
from scipy.stats import chi2
from scipy.stats import poisson as ref

from eolstop import _poisson
from eolstop.demand import (NAMED_KINDS, PMF_TAIL_EPS, build_named_intensity, period_pmfs,
                            pmf_supports)
from eolstop.errors import NonNormalizable
from eolstop.kernels import _support_caps
from eolstop.settings import iter_settings, setting_intensity

REL = 2e-13
TINY = 1e-290  # below this the oracle's value is not compared
# integers -3..2000, plus off-integer k on both sides of 0
K = np.concatenate((np.arange(-3, 2001), [-2.5, -0.5, 0.5, 2.5, 17.25]))[:, None]
MU = np.concatenate(([0.0, 1e-300, 1e-8, 0.5, 7.25], np.linspace(0.0, 500.0, 301)[1:],
                     np.geomspace(500.0, 1e4, 40)[1:]))


# the long double references, and 1F1 past a = 2048, hold REL only where long
# double has a 64-bit significand (x86-64)
extended = pytest.mark.skipif(not _poisson.LONG_DOUBLE_IS_EXTENDED,
                              reason="long double is not the 80-bit format")


def _rel(got, want):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(got - want) / want


def _assert_close(got, want, truth, on):
    """Within REL of the truth on every cell of ``on``, and wherever farther
    than REL from scipy's value, closer to the truth than scipy is."""
    err = _rel(got, truth)
    assert (err <= REL)[on].all()
    assert ((_rel(got, want) <= REL) | (err < _rel(want, truth)))[on].all()


def _reference(mu, top):
    """P{N = k}, P{N <= k} and P{N > k} at k = 0..top for each mu, from the
    definition: the terms e^-mu mu^k / k! as one running product and their
    sums from either end, in 80-bit long double, as float64 (len(mu), top + 1)
    arrays."""
    pmf, cdf, sf = (np.empty((len(mu), top + 1)) for _ in range(3))
    for r, m in enumerate(mu):
        n = int(max(top, m) + 40 * math.sqrt(max(top, m)) + 100)
        m = np.longdouble(m)
        terms = np.cumprod(np.concatenate(([np.exp(-m)], m / np.arange(1, n, dtype=np.longdouble))))
        pmf[r] = terms[:top + 1]
        cdf[r] = np.cumsum(terms)[:top + 1]
        sf[r] = np.cumsum(terms[::-1])[::-1][1:top + 2]
    return pmf, cdf, sf


@functools.lru_cache(maxsize=1)
def _grid_reference():
    return _reference(MU, 2000)


def _model_rates():
    """Every period rate of the 128 settings and of the named kinds at the
    horizons and totals the tests and the paper use."""
    rates = [setting_intensity(s).rates for s in iter_settings()]
    for kind, T, total in itertools.product(NAMED_KINDS, (4, 6, 8, 50, 100), (18.0, 24.0, 500.0)):
        with contextlib.suppress(NonNormalizable):
            rates.append(build_named_intensity(kind, T, total).rates)
    return np.unique(np.concatenate(rates))


@extended
@pytest.mark.parametrize("name", ["term", "cdf"])
def test_matches_scipy(name):
    pmf, cdf, _ = _grid_reference()
    if name == "term":  # the pmf, at integers k >= 0
        k = np.arange(2001)[:, None]
        got, want, truth = _poisson.term(k, MU), ref.pmf(k, MU), pmf.T
    else:  # at any k
        got, want = _poisson.cdf(K, MU), ref.cdf(K, MU)
        k = np.floor(K[:, 0]).astype(int)
        truth = cdf.T[np.maximum(k, 0)]
        truth[k < 0] = 0.0
    assert got.dtype == want.dtype
    on = want >= TINY
    _assert_close(got, want, truth, on)
    assert np.all(np.abs(got - want)[~on] < 1e-280)


@extended
def test_cdf_of_one_k_over_many_mu():
    # one k over a long vector of mu, as the analytics' quadrature nodes ask,
    # is thinned from anchors two apart: the same bound, in any order
    mu = np.random.default_rng(5).permutation(
        np.concatenate(([0.0, 1e-300, 7.25, 21.999], np.linspace(0.0, 600.0, 1501))))
    cdf = _reference(mu, 1000)[1]
    for k in (22, 23, 60, 250, 599, 1000):
        got, want = _poisson.cdf(k, mu), ref.cdf(k, mu)
        _assert_close(got, want, cdf[:, k], want >= TINY)
        assert np.all(np.abs(got - want)[want < TINY] < 1e-280)


@functools.lru_cache(maxsize=1)
def _demand_rows():
    """The demand pmf and tail rows of every model rate, and the long double
    pmf at the same cells."""
    rates = _model_rates()
    pmfs, tails = period_pmfs(rates)
    truth = _reference(rates, max(len(row) for row in pmfs) - 1)[0]
    return pmfs, tails, [want[:len(row)] for row, want in zip(pmfs, truth)]


@extended
def test_demand_pmfs_match_the_definition():
    # one row of terms per rate: each pmf within 1e-14 of the definition
    pmfs, _, truth = _demand_rows()
    for pmf, want in zip(pmfs, truth):
        assert np.all(_rel(pmf, want)[want >= TINY] <= 1e-14)


@extended
def test_demand_pmf_and_tail_sum_to_one():
    # the tails sum the same terms as the pmf: the mass the pmf keeps up to k
    # plus the tail beyond k is within 2e-15 of 1 at every k of the row
    pmfs, tails, _ = _demand_rows()
    for pmf, tail in zip(pmfs, tails):
        assert np.all(np.abs(np.cumsum(pmf) + tail - 1.0) <= 2e-15)


@pytest.mark.parametrize("q", [1.0 - PMF_TAIL_EPS])
def test_ppf_matches_scipy(q):
    # each pmf support, read off tail_cutoff, is scipy's q-quantile plus one
    rates = _model_rates()
    assert np.array_equal(pmf_supports(rates), ref.ppf(q, rates) + 1)
    # on a generic grid the two may differ by one only where scipy's own cdf
    # decides cdf(k) >= q within 1e-15 of q
    mu = np.linspace(0.0, 1000.0, 2001)[1:]
    got, want = pmf_supports(mu) - 1, ref.ppf(q, mu)
    assert np.all(np.abs(got - want) <= 1)
    edge = np.minimum(got, want)[got != want]
    assert np.all(np.abs(ref.cdf(edge, mu[got != want]) - q) <= 1e-15)


def test_support_cap_brackets_the_tail():
    # the cap is the smallest k with P{N > k} <= 1e-15, plus 10: bracketed by
    # scipy's sf, with a 1e-12 relative slack for its rounding
    rates = np.concatenate((_model_rates(), np.linspace(0.01, 1000.0, 1001)))
    k = _support_caps(rates) - 10
    assert np.all(ref.sf(k, rates) <= 1e-15 * (1 + 1e-12))
    assert np.all((k == 0) | (ref.sf(k - 1, rates) > 1e-15 * (1 - 1e-12)))


@pytest.mark.parametrize("name,arg", [("cdf", 3), ("term", 3), ("term", 5000),
                                      ("cdf", -1)])
def test_scalar_in_scalar_out(name, arg):
    if name == "term":  # k = 5000 is past _DIRECT_K, in Loader's form, where
        # scipy's pmf is off by 7.8e-13, so mpmath decides
        import mpmath

        mu = 2.0 if arg == 3 else 4000.0
        got, want = _poisson.term(arg, mu), ref.pmf(arg, mu)
        with mpmath.workdps(40):
            truth = float(mpmath.exp(-mu) * mpmath.mpf(mu) ** arg / mpmath.factorial(arg))
        assert type(got) is type(want)
        _assert_close(got, want, truth, True)
        return
    got, want = getattr(_poisson, name)(arg, 2.0), getattr(ref, name)(arg, 2.0)
    assert type(got) is type(want) and got == want


@extended
@pytest.mark.parametrize("decay", [0.0, 0.005, 0.015, 5.0, 50.0, 1e3])
def test_tail_rows_match_gammainc(decay):
    # the Poisson tails of the unit-period integrals: P{N_b > i} is
    # gammainc(i + 1, b), on rates 0..60 plus a decay, i up to 240
    from scipy.special import gammainc

    rng = np.random.default_rng(3)
    b = np.concatenate(([1e-9, 0.3], rng.uniform(0.0, 60.0, 30), [60.0])) + decay
    got = _poisson.tail_rows(b, 240)[1]
    want = gammainc(np.arange(241) + 1.0, b[:, None])
    on = want >= TINY
    truth = _reference(b, 240)[2]
    _assert_close(got, want, truth, on)


# the Monte Carlo's count rates: none, the least base-case rate, small, the
# largest base-case rate and far past the DP's sizes
COUNT_RATES = [0.0, 0.2878, 3.0, 50.26, 3000.0]


def _count_probes(tail):
    """Values of v in [2^-53, 1] where a count can go wrong: both ends, each
    tail value of the row and its neighbours, each bucket edge b/B of the
    guide table and the float below it, and v under the DP's 1e-12 tail."""
    B = _poisson._COUNT_GUIDE
    edges = np.arange(1, B + 1) / B
    v = np.concatenate(([2.0 ** -53, 1.0, 1e-12, 1e-13, 1e-15, 2.0 ** -52], tail,
                        np.nextafter(tail, 0.0), np.nextafter(tail, 1.0), edges,
                        np.nextafter(edges, 0.0)))
    return np.unique(v[(v >= 2.0 ** -53) & (v <= 1.0)])


@pytest.mark.parametrize("mu", COUNT_RATES)
def test_inverse_counts_match_a_brute_force_count(mu):
    # the count is #{j : P{N > j} >= v} on the row the sampler reads, and
    # that row falls below the least v before it ends, so nothing is cut off
    tail = _poisson._count_tails(np.array([mu]))[0]
    assert np.all(np.diff(tail) <= 0) and tail[-1] < 2.0 ** -53
    v = _count_probes(tail)
    got = _poisson.inverse_counts(np.array([mu]), v[None, :].copy())[0]
    want = np.array([np.count_nonzero(tail >= x) for x in v])
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


@extended
@pytest.mark.parametrize("mu", COUNT_RATES)
def test_count_tails_match_the_definition(mu):
    # the sampler's tail row is within REL of the long double sums, and the
    # true tail past the row's end is below the least v too
    tail = _poisson._count_tails(np.array([mu]))[0]
    truth = _reference(np.array([mu]), len(tail) - 1)[2][0]
    on = truth >= TINY
    assert np.all(_rel(tail, truth)[on] <= REL)
    assert truth[-1] < 2.0 ** -53


@pytest.mark.parametrize("mu", COUNT_RATES)
def test_inverse_counts_chi_square(mu):
    # 2e5 draws from v = 1 - U against the pmf terms, in bins of k that each
    # expect at least 20 draws, the last open-ended
    n = 200_000
    v = 1.0 - np.random.default_rng(29).random((1, n))
    counts = _poisson.inverse_counts(np.array([mu]), v)[0]
    if mu == 0.0:
        assert not counts.any()
        return
    k = np.arange(int(_poisson.tail_cutoff(mu, 1e-15)) + 1)
    expect = n * _poisson.term(k, mu)
    starts, acc = [0], 0.0
    for i, e in enumerate(expect[:-1]):
        acc += e
        if acc >= 20.0:
            starts.append(i + 1)
            acc = 0.0
    starts = starts[:-1] if expect[starts[-1]:].sum() < 20.0 else starts
    seen = np.bincount(np.minimum(counts, len(k) - 1), minlength=len(k))
    obs, exp = (np.add.reduceat(a, starts) for a in (seen, expect))
    exp[-1] += n - expect.sum()
    assert exp.min() >= 20 and obs.sum() == n
    stat = np.sum((obs - exp) ** 2 / exp)
    assert chi2.sf(stat, len(obs) - 1) > 1e-4, (stat, len(obs))


@pytest.mark.parametrize("a", [0.0, 1e-6, 0.005, 0.5, 5.0, 50.0, 800.0])
def test_hyp1f1_matches_scipy(a):
    # 1F1(alpha; beta; -a) at 1 <= alpha < beta <= 301: the arrivals' 1F1(j;
    # n+1; -a) and the segments' 1F1(j+1; n+2; -a) of ``period_tables``,
    # 1 <= j <= n <= 300.  At a = 800 scipy's own 1F1 takes seconds over every
    # cell, so each beta keeps 12 alphas spread geometrically.
    import mpmath

    beta, alpha = np.meshgrid(np.arange(2.0, 302.0), np.arange(1.0, 301.0), indexing="ij")
    keep = alpha < beta
    if a == 800.0:
        keep &= np.isin(alpha, np.unique(np.round(np.geomspace(1, 300, 12)))) | (alpha == beta - 1)
    alpha, beta = alpha[keep], beta[keep]
    got, want = _poisson.hyp1f1_neg(alpha, beta, a), hyp1f1(alpha, beta, -a)
    on = want >= TINY
    off = np.flatnonzero(on & (_rel(got, want) > REL))
    assert len(off) <= 50  # only at a = 800, where scipy is off
    for i in off:
        with mpmath.workdps(40):  # Kummer's form: a series of positive terms
            A, B = int(beta[i] - alpha[i]), int(beta[i])
            truth = float(mpmath.exp(-a) * mpmath.hyp1f1(A, B, a))
        _assert_close(got[i], want[i], truth, True)


@extended
@pytest.mark.parametrize("a", [3000.0, 1e6, 1e300])
def test_hyp1f1_at_large_a(a):
    # past a = 2048 the sum starts near its peak, and past a = beta^2 it is the
    # large-a expansion: finite, warning-free and within REL of mpmath
    import mpmath

    alpha = np.array([1.0, 2.0, 7.0, 54.0, 1.0, 60.0, 1.0, 150.0, 300.0])
    beta = np.array([2.0, 3.0, 30.0, 55.0, 56.0, 120.0, 301.0, 301.0, 301.0])
    got = _poisson.hyp1f1_neg(alpha, beta, a)
    for al, be, g in zip(alpha, beta, got):
        with mpmath.workdps(50):
            truth = float(mpmath.hyp1f1(int(al), int(be), -a) if a > 1e5
                          else mpmath.exp(-a) * mpmath.hyp1f1(int(be - al), int(be), a))
        assert abs(g - truth) <= REL * truth


def test_cli_import_leaves_scipy_stats_out():
    # no scipy module is loaded by importing the CLI, nor by running compare,
    # bounds and a small simulate on a small config
    src = Path(__file__).resolve().parents[1] / "src"
    code = """if True:
        import json, pathlib, sys, tempfile
        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        import eolstop.cli
        assert not scipy_modules(), scipy_modules()
        cfg = {"schema_version": 1,
               "intensity": {"kind": "convex", "horizon": 8, "total_demand": 24.0},
               "costs": {"c_bar": 100.0, "c1": 1.0, "c2_bar": 200.0, "c3_bar": 200.0,
                         "gamma": 0.01, "c4": 25.0, "delta": 0.005},
               "setup_costs": [0.0, 200.0], "x0": [0, 4], "models": ["D/inf/F", "D/1/Z"],
               "x_max": 60, "paths": 50, "seed": 11}
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            for command in (["compare", "D/inf/F", "D/1/Z"], ["bounds"], ["simulate"]):
                argv = [command[0], "--config", str(path), "--out", tmp, *command[1:]]
                assert eolstop.cli.main(argv) == 0, command
        assert not scipy_modules(), scipy_modules()
    """
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
