"""Poisson pmf, cdf, sf and ppf on ``scipy.special``.

Each function reproduces ``scipy.stats.poisson`` bit for bit over the inputs
the library uses (k any real, mu >= 0, 0 < q < 1 for ppf), without importing
``scipy.stats``, which dominates the start-up time of a CLI call.  A scalar
input returns a numpy scalar, as scipy does.
"""

import numpy as np
from scipy.special import gammaln, pdtr, pdtrc, pdtrik, xlogy


def pmf(k, mu):
    k, mu = np.asarray(k), np.asarray(mu)
    with np.errstate(invalid="ignore", over="ignore"):  # only off-support k overflow
        p = np.clip(np.exp(xlogy(k, mu) - gammaln(k + 1) - mu), 0, 1)
        return np.where((k >= 0) & (np.floor(k) == k), p, 0.0)[()]


def cdf(k, mu):
    k = np.asarray(k)
    return np.where(k >= 0, np.clip(pdtr(np.floor(k), mu), 0, 1), 0.0)[()]


def sf(k, mu):
    k = np.asarray(k)
    return np.where(k >= 0, np.clip(pdtrc(np.floor(k), mu), 0, 1), 1.0)[()]


def ppf(q, mu):
    vals = np.ceil(pdtrik(q, mu))
    vals1 = np.maximum(vals - 1, 0)
    return np.where(pdtr(vals1, mu) >= q, vals1, vals)[()]
