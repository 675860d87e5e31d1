"""``eolstop._poisson`` against ``scipy.stats.poisson``, bit for bit, and the
guard that keeps ``scipy.stats`` out of the CLI's import graph."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import poisson as ref

from eolstop import _poisson
from eolstop.demand import PMF_TAIL_EPS

# integers -3..2000, plus off-integer k on both sides of 0
K = np.concatenate((np.arange(-3, 2001), [-2.5, -0.5, 0.5, 2.5, 17.25]))[:, None]
MU = np.concatenate(([0.0, 1e-300, 1e-8, 0.5, 7.25], np.linspace(0.0, 500.0, 301)[1:]))


@pytest.mark.parametrize("name", ["pmf", "cdf", "sf"])
def test_matches_scipy(name):
    got, want = getattr(_poisson, name)(K, MU), getattr(ref, name)(K, MU)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("q", [1.0 - 1e-15, 1.0 - PMF_TAIL_EPS, 0.5])
def test_ppf_matches_scipy(q):
    mu = np.linspace(0.0, 1000.0, 2001)
    got, want = _poisson.ppf(q, mu), ref.ppf(q, mu)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name,arg", [("pmf", 3), ("cdf", 3), ("sf", 3), ("pmf", 2.5),
                                      ("cdf", -1), ("sf", -1), ("ppf", 0.5)])
def test_scalar_in_scalar_out(name, arg):
    got, want = getattr(_poisson, name)(arg, 2.0), getattr(ref, name)(arg, 2.0)
    assert type(got) is type(want) and got == want


def test_cli_import_leaves_scipy_stats_out():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import eolstop.cli, sys; sys.exit('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
