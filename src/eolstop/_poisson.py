"""Poisson pmf terms, cdf, tails and tail cutoffs, and the Poisson mixture
that gives 1F1, on numpy and ``math`` alone.

No scipy module is imported: ``scipy.special`` alone took about 0.3 s of
every CLI call's start.  ``scipy.stats.poisson`` and ``scipy.special`` stay
the oracles of the tests.

* ``term`` is the pmf within a few ulps: exp(-mu) mu^k / k! from factors
  rounded once each (exp(-mu) by a Cody-Waite reduction, mu^k by ``pow`` on
  the mantissa of mu, k! from the exact integer), and outside k <= _DIRECT_K,
  mu <= _DIRECT_MU the exp of Loader's saddle-point log -stirlerr(k) -
  bd0(k, mu) - log(2 pi k)/2 (C. Loader, "Fast and accurate computation of
  binomial probabilities", 2000) in long double.  It is the one pmf here:
  every sum adds its terms, and the demand pmfs are its rows.
* Below the median the cdf is summed and the sf is one minus it; at and
  above it the sf is summed and the cdf is one minus it, so neither is a
  difference of two numbers near 1.  ``cdf`` takes any k and mu and sums
  from the term next to k away from the mean, its largest, by the ratios of
  the terms, with no table: as many terms as a geometric or a Gaussian bound
  says the rest needs, so the cost grows with sqrt(mu) only where k is near
  mu.  At one k >= _THIN_TERMS over many mu, as the analytics' quadrature
  nodes ask, ``cdf`` thins instead (``_thinned_cdf``): _THIN_TERMS products
  per mu on the cdfs at even integers in the range of mu, which are such
  sums plus terms, built in blocks of k and kept.  ``tail_rows`` gives one
  row of pmf terms per rate and the tails P{N > k} summed from those same
  terms, the cdf from k = 0 and the sf from the far end; ``tail_cutoff``
  searches a window of one row per rate that a Bennett bound places.
* ``hyp1f1_neg`` is 1F1(alpha; beta; -a) at integer 1 <= alpha < beta, as a
  Poisson(a) mixture of positive terms.

A scalar input returns a numpy scalar, as scipy does.

Loader's form (past k = _DIRECT_K or mu = _DIRECT_MU) and 1F1 past a =
_KUMMER_MAX work in ``np.longdouble``, and their error of a few ulps holds
where that is the 80-bit x87 format (64-bit significand, as on x86-64
Linux).  Where long double is plain double (Windows, macOS on arm64), the
log-factorials near 1F1's a = 2048 lose about 2e-12 relative.
``LONG_DOUBLE_IS_EXTENDED`` says which holds.
"""

import functools
import math

import numpy as np

# log 2 = _LN2_HI + _LN2_LO to 1e-26, _LN2_HI with 32 significant bits (fdlibm)
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_LN2 = math.log(2.0)
_DIRECT_K, _DIRECT_MU = 4096, 2.0 ** 20  # n * _LN2_HI is exact for n < 2^21
# stirlerr(n) = log n! - (n + 1/2) log n + n - log sqrt(2 pi), n = 0..15
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])
_STIRLING = tuple(np.longdouble(1) / d for d in (12, 360, 1260, 1680, 1188))
_NEGLIGIBLE = 2.0 ** -64  # a remainder this far below its sum is dropped
_KUMMER_BLOCK = 32.0  # up to this a, 1F1 sums a fixed number of terms at once
_KUMMER_MAX = 2048.0  # above this a, 1F1 starts near its largest term
_CHUNK_CELLS = 1 << 18  # the ratio blocks of the sums are cut to this size
# ``cdf`` thins from anchors _THIN_STEP apart: sum_{j >= 27} 2^j / j! < 2^-64
_THIN_STEP, _THIN_TERMS = 2.0, 27
_THIN_MIN = 256  # the least count of mu that ``cdf`` thins
_THIN_BLOCK = 64  # columns of the anchors' cdfs built and kept together
_THIN_ANCHORS = 1024  # the most anchors that ``cdf`` thins from
LONG_DOUBLE_IS_EXTENDED = np.finfo(np.longdouble).nmant >= 63


@functools.lru_cache(maxsize=None)
def _factorials(size: int):
    """k! = m 2^e for k < size, from the exact integers: (m, e) arrays."""
    m, e, f = np.empty(size), np.empty(size, dtype=np.int32), 1
    for k in range(size):
        f *= max(k, 1)
        bits = f.bit_length()
        shift = max(bits - 64, 0)
        m[k], e[k] = math.ldexp(float(f >> shift), shift - bits), bits
    return m, e


def _product_term(k, mu):
    """exp(-mu) mu^k / k! at integers 0 <= k <= _DIRECT_K and 0 <= mu <=
    _DIRECT_MU (float arrays of one shape), as a mantissa carried through
    frexp and one ldexp, so that nothing under- or overflows on the way."""
    n = np.rint(mu / _LN2)  # exp(-mu) = 2^-n exp(-r)
    r = (mu - n * _LN2_HI) - n * _LN2_LO
    m, e = np.frexp(mu)
    ki = k.astype(np.int32)
    fm, fe = _factorials(1 << max(int(ki.max(initial=0)), 1).bit_length())
    p = np.exp(-r) / fm[ki]
    scale = e * ki - n.astype(np.int32) - fe[ki]
    while True:  # m^1000 >= 2^-1000 stays normal
        step = np.minimum(k, 1000.0)
        p *= np.power(m, step)
        k = k - step
        if not k.any():
            break
        p, e2 = np.frexp(p)
        scale += e2
    return np.ldexp(p, scale)


def _stirlerr(n):
    """log n! - log(sqrt(2 pi n) (n/e)^n) at integers n >= 0 (a float array)."""
    out = np.empty(n.shape, dtype=n.dtype)
    small = n <= 15
    out[small] = _STIRLERR[n[small].astype(np.intp)]
    n = n[~small]
    n2 = n * n
    s0, s1, s2, s3, s4 = _STIRLING
    out[~small] = (s0 - (s1 - (s2 - (s3 - s4 / n2) / n2) / n2) / n2) / n
    return out


def _bd0(x, m):
    """x log(x/m) + m - x (long double arrays of one shape), by its series in
    v = (x - m)/(x + m) where x is near m."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x * np.log(x / m) + m - x
    near = np.abs(x - m) < 0.1 * (x + m)
    if near.any():
        xn, mn = x[near], m[near]
        v = (xn - mn) / (xn + mn)
        s, ej, v2 = (xn - mn) * v, 2 * xn * v, v * v
        for j in range(1, 64):  # |v| < 0.1: each step gains two digits
            ej = ej * v2
            s, last = s + ej / (2 * j + 1), s
            if np.array_equal(s, last):
                break
        out[near] = s
    return out


def _log_term(k, mu):
    """log pmf(k, mu) by Loader's saddle-point form, in long double, at
    integers k >= 0 (k and mu broadcast; what depends on k alone is taken on
    k's shape).  On x86-64 the 64-bit significand leaves an error of about
    2^-64 (1 + |log p|), far below the rounding of the double it becomes."""
    k, mu = np.asarray(k, dtype=np.longdouble), np.asarray(mu, dtype=np.longdouble)
    kc = np.maximum(k, 1)
    head = _stirlerr(kc) + np.log(2 * np.pi * kc) / 2
    with np.errstate(invalid="ignore"):
        out = -(head + _bd0(*np.broadcast_arrays(kc, mu)))
    return np.where(k == 0, -mu, out)


def term(k, mu):
    """pmf(k, mu) within a few ulps, at integers k >= 0 (k and mu broadcast
    to a new array, or a numpy scalar); the terms of every sum here."""
    k, mu = (np.array(a, dtype=float) for a in np.broadcast_arrays(k, mu))
    direct = (k <= _DIRECT_K) & (mu <= _DIRECT_MU)
    if direct.all():
        return _product_term(k, mu)
    out = np.empty(k.shape)
    out[direct] = _product_term(k[direct], mu[direct])
    with np.errstate(under="ignore"):
        out[~direct] = np.exp(_log_term(k[~direct], mu[~direct])).astype(float)
    return out[()]


def _below_median(k, mu):
    """Where k < mu - log 2, so below the median and P{N <= k} < 1/2; at and
    above it P{N > k} is the sum to take, and its terms fall from k + 1 on."""
    return k < mu - _LN2


def _steps(k, mu, below):
    """Terms after the first that each sum of ``_near_sums`` takes, so that
    what is left is below _NEGLIGIBLE of the first term: the smaller of a
    geometric count, from the first ratio, and a Gaussian one (the log-terms
    fall at least as fast as those of a normal law of variance mu), with
    sqrt(mu) allowed for the geometric rest."""
    L = -math.log(_NEGLIGIBLE) + 0.5 * np.log1p(mu)
    with np.errstate(divide="ignore", over="ignore"):  # a first ratio of 0
        geo = L / np.where(below, np.log(mu / np.maximum(k, 1.0)), np.log((k + 2.0) / mu))
    n = np.ceil(np.minimum(geo, L + np.sqrt(L * L + 2 * L * mu))) + 1
    return np.where(below, np.minimum(n, k), n).astype(np.intp)


def _near_sums(k, mu):
    """For integers k >= 0 and mu of one shape (1-D): below the median, P{N <=
    k}, summed from the term at k down; elsewhere P{N > k}, from the term at
    k + 1 up.  Each sum is its first term times 1 plus the running products of
    the term ratios, taken in blocks of elements with like step counts (sorted
    by ``_steps``).  Returns the mask of the first case and the sums."""
    below = _below_median(k, mu)
    first = np.where(below, k, k + 1.0)
    out = term(first, mu)
    steps = _steps(k, mu, below)
    for side in (True, False):
        idx = np.flatnonzero((below == side) & (steps > 0))
        idx = idx[np.argsort(steps[idx], kind="stable")]
        n, f, m = steps[idx], first[idx], mu[idx]
        start = 0
        while start < idx.size:  # a block: steps at most double, cells capped
            cells = (np.arange(1, idx.size - start + 1)) * n[start:]
            stop = start + max(1, min(np.searchsorted(cells, _CHUNK_CELLS, "right"),
                                      np.searchsorted(n[start:], 2 * n[start], "right")))
            j = np.arange(n[stop - 1])
            if side:  # t_{i-1} / t_i = i / mu
                ratios = np.subtract.outer(f[start:stop], j) * (1.0 / m[start:stop, None])
            else:  # t_{i+1} / t_i = mu / (i + 1)
                ratios = m[start:stop, None] / np.add.outer(f[start:stop] + 1.0, j)
            np.cumprod(ratios, axis=1, out=ratios)
            out[idx[start:stop]] *= 1.0 + ratios.sum(axis=1)
            start = stop
    return below, out


def _tails(k, mu):
    k, mu = np.broadcast_arrays(np.floor(np.asarray(k, dtype=float)),
                                np.asarray(mu, dtype=float))
    on = k >= 0
    below, s = _near_sums(k[on], mu[on])
    return on, below, s


def cdf(k, mu):
    k, mu = np.floor(np.asarray(k, dtype=float)), np.asarray(mu, dtype=float)
    if k.ndim == 0 and k >= _THIN_TERMS and mu.ndim == 1 and len(mu) >= _THIN_MIN:
        a = _THIN_STEP * np.floor(mu / _THIN_STEP)
        span = a.max() - a.min()
        if a.min() >= 0 and span < _THIN_STEP * min(len(mu), _THIN_ANCHORS):  # not at NaN, inf
            return _thinned_cdf(int(k), mu, a)
    on, below, s = _tails(k, mu)
    out = np.zeros(on.shape)
    out[on] = np.where(below, s, 1.0 - s)
    return np.clip(out, 0, 1)[()]


def term_rows(mu, width, lo=0):
    """pmf terms at k = lo..lo+width-1, one row per rate of mu (1-D; lo one
    integer or one per row): ``term`` at each row's mode, clipped into the
    row, and running products of the term ratios out from it, each over the
    columns some row needs.  The terms fall away from the mode, so nothing
    overflows, and each step adds about an ulp."""
    mu = np.asarray(mu, dtype=float)
    lo = np.asarray(lo, dtype=float)
    k = (lo[:, None] if lo.ndim else lo) + np.arange(width)
    mode = np.clip(np.floor(mu), lo, lo + width - 1)[:, None]
    m, at = mu[:, None], (mode - np.asarray(lo).reshape(-1, 1)).astype(int)
    out = np.ones((len(mu), width))
    if len(mu):
        first, last = at.min(), at.max() + 1
        up = out[:, first:]  # p_k / p_{k-1} right of the mode
        np.divide(m, k[..., first:], out=up, where=k[..., first:] > mode)
        np.cumprod(up, axis=1, out=up)
        down = np.ones((len(mu), last))  # p_k / p_{k+1} left of it
        np.divide(k[..., :last] + 1.0, m, out=down, where=k[..., :last] < mode)
        out[:, :last] *= np.cumprod(down[:, ::-1], axis=1)[:, ::-1]
    out *= term(mode, m)
    return out


@functools.lru_cache(maxsize=64)
def _anchor_block(first: float, count: int, b: int) -> np.ndarray:
    """P{N(a) <= c} at the anchors a = first + _THIN_STEP i, i < count, and
    the columns c = b _THIN_BLOCK + i, i < _THIN_BLOCK: the cdf at the first
    column plus the terms after it; read-only.  Kept, so that many k on one
    set of anchors, as a scan over x in the analytics, share them."""
    anchors = first + _THIN_STEP * np.arange(count)
    lo = b * _THIN_BLOCK
    rows = term_rows(anchors, _THIN_BLOCK, lo)
    on, below, s = _tails(lo, anchors)
    rows[:, 0] = np.where(below, s, 1.0 - s)
    np.cumsum(rows, axis=1, out=rows)
    rows.setflags(write=False)
    return rows


def _thinned_cdf(k: int, mu, a):
    """P{N <= k} for one integer k >= _THIN_TERMS and many mu (1-D), each
    mu an anchor a, a multiple of _THIN_STEP, plus d = mu - a in [0,
    _THIN_STEP), with no sum as long as sqrt(mu).  N(mu) is N(a) plus an
    independent M ~ Poisson(d), so P{N(mu) <= k} = sum_j P{M = j} P{N(a) <=
    k - j}, a sum of positive terms.  It is at least e^-d P{N(a) <= k} and the
    terms j >= _THIN_TERMS add at most P{M >= _THIN_TERMS} P{N(a) <= k}, below
    2^-64 of it.  The anchors' cdfs come in blocks of columns
    (``_anchor_block``)."""
    first = float(a.min())
    count = int((a.max() - first) / _THIN_STEP) + 1
    lo = k - _THIN_TERMS + 1
    b0, b1 = lo // _THIN_BLOCK, k // _THIN_BLOCK
    rows = np.hstack([_anchor_block(first, count, b) for b in range(b0, b1 + 1)])
    cols = rows[:, lo - b0 * _THIN_BLOCK:k - b0 * _THIN_BLOCK + 1]
    # P{N(a) <= k - j} in row j, contiguous so that each row is read at speed
    g = np.take(np.ascontiguousarray(cols[:, ::-1].T), ((a - first) / _THIN_STEP).astype(np.intp),
                axis=1)
    d = mu - a
    ratios = d / np.arange(1.0, _THIN_TERMS)[:, None]  # d / j in row j - 1
    out = g[-1].copy()
    for j in range(_THIN_TERMS - 1, 0, -1):  # the weights e^-d d^j / j!, by Horner
        out *= ratios[j - 1]
        out += g[j - 1]
    return np.clip(np.exp(-d) * out, 0, 1)


def _window(mu, lo, width):
    """The pmf terms at k = lo..lo+width-1 and P{N > k} there, summed from
    the far end, for each rate of mu (1-D; lo one integer or one per row).
    The terms run on past the window as far as ``_steps`` says a sum from
    the top of the window needs, over the rows whose terms fall past it."""
    top = np.broadcast_to(np.asarray(lo, dtype=float) + width - 1, mu.shape)
    far = mu < top + 1
    pad = int(_steps(top[far], mu[far], np.zeros(far.sum(), dtype=bool)).max(initial=0)) + 1
    p = term_rows(mu, width + pad, lo)
    return p[:, :width], np.cumsum(p[:, :0:-1], axis=1)[:, ::-1][:, :width]


def tail_rows(mu, n):
    """The pmf terms and P{N > k} at k = 0..n for each rate of mu (1-D), as
    two (len(mu), n + 1) arrays; the tails sum those terms: below the median
    one minus the cdf summed along the row from k = 0, elsewhere from the far
    end."""
    mu = np.asarray(mu, dtype=float)
    p, sf = _window(mu, 0, n + 1)
    below = _below_median(np.arange(n + 1), mu[:, None])
    return p, np.clip(np.where(below, 1.0 - np.cumsum(p, axis=1), sf), 0, 1)


def tail_cutoff(mu, eps):
    """The smallest k with P{N > k} <= eps, for 0 < eps < 1/2: above the
    median (>= mu - log 2) and, by Bennett's inequality, by mu + t with
    t^2 = 2 L (mu + t/3), L > -log eps."""
    mu = np.asarray(mu, dtype=float)
    flat = mu.ravel()
    if not flat.size:
        return np.zeros(mu.shape)
    L = 1.0 - math.log(eps)
    lo = np.maximum(np.floor(flat) - 1.0, 0.0)
    hi = np.ceil(flat + L / 3 + np.sqrt(L * L / 9 + 2 * L * flat))
    width = int((hi - lo).max()) + 1
    found = _window(flat, lo, width)[1] <= eps
    found[:, -1] = True
    return (lo + np.argmax(found, axis=1)).reshape(mu.shape)[()]


def _log_factorial80(n):
    """log n! in long double at integers n >= 0: Stirling's formula plus
    ``_stirlerr``."""
    n = np.asarray(n, dtype=np.longdouble)
    nc = np.maximum(n, 1)
    out = _stirlerr(nc) + (nc + 0.5) * np.log(nc) - nc + np.log(2 * np.pi) / 2
    return np.where(n == 0, 0, out)


def hyp1f1_neg(alpha, beta, a: float):
    """1F1(alpha; beta; -a) at integers 1 <= alpha < beta (arrays that
    broadcast) and a >= 0.

    Kummer's transformation makes it e^-a 1F1(beta - alpha; beta; a) =
    E[(A)_K / (B)_K], K ~ Poisson(a), A = beta - alpha, B = beta: the sum of
    the positive terms t_k = e^-a a^k / k! (A)_k / (B)_k, with ratio
    t_{k+1}/t_k = a (A + k) / ((k + 1)(B + k)), which falls in k.  The sum
    runs from its start to past the largest term, until a geometric bound on
    the rest is negligible (up to a = _KUMMER_BLOCK, every cell takes the
    count at which a^n / n!, a bound on the terms, is negligible, in one
    block).  It starts at k = 0 up to a = _KUMMER_MAX, where
    e^-a enters as 2^p factors exp(-a/2^p) so that no partial sum under- or
    overflows; the terms then carry a few ulps each.  Above that it starts
    ten widths of the log-terms' peak below the peak, at a long double
    anchor, and once a >= B^2 it is the terminating large-a expansion
    Gamma(B)/Gamma(A) a^-alpha sum_s (-1)^s C(A-1, s) (alpha)_s a^-s, whose
    terms fall by 4 or more each and whose exponentially small companion is
    below the last bit; so no a costs more than about 30 B steps.
    """
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, dtype=float),
                                      np.asarray(beta, dtype=float))
    A, B = (beta - alpha).ravel(), beta.ravel()
    out = np.ones(A.shape)
    if a > 0:
        asym = (a > _KUMMER_MAX) & (a >= B * B)
        if asym.any():
            out[asym] = _large_a(alpha.ravel()[asym], A[asym], B[asym], a)
        if not asym.all():
            out[~asym] = _kummer(A[~asym], B[~asym], a)
    return out.reshape(alpha.shape)[()]


def _large_a(alpha, A, B, a):
    u = s = np.ones(A.shape)
    for j in range(int(A.max()) - 1):
        u = -u * (A - 1 - j) * (alpha + j) / ((j + 1) * a)
        s = s + u
        if not (np.abs(u) > _NEGLIGIBLE * s).any():
            break
    lead = _log_factorial80(B - 1) - _log_factorial80(A - 1) - alpha * np.log(np.longdouble(a))
    with np.errstate(under="ignore"):
        return np.exp(lead).astype(float) * s


def _kummer(A, B, a):
    if a <= _KUMMER_BLOCK:  # every cell's terms in one block: a^n / n! bounds them
        n, t = 0, 1.0
        while t > _NEGLIGIBLE or n < 2 * a:
            n += 1
            t *= a / n
        j = np.arange(n)
        ratios = a * (A[:, None] + j) / ((j + 1.0) * (B[:, None] + j))
        return np.exp(-a) * (1.0 + np.cumprod(ratios, axis=1).sum(axis=1))
    k = np.zeros(A.shape)
    log_t = np.full(A.shape, -a)
    if a > _KUMMER_MAX:  # start ten widths below the peak, where the ratio is 1
        peak = 0.5 * (a - B - 1 + np.sqrt((a - B - 1) ** 2 + 4 * (a * A - B)))
        width = 1 / np.sqrt(1 / (peak + 1) + 1 / (B + peak) - 1 / (A + peak))
        k = np.maximum(np.floor(peak - 10 * width), 0.0)
        start = k > 0
        As, Bs, ks = A[start], B[start], k[start]
        log_t[start] = (_log_term(ks, a) + _log_factorial80(As + ks - 1) - _log_factorial80(As - 1)
                        - _log_factorial80(Bs + ks - 1) + _log_factorial80(Bs - 1))
    pieces = 2.0 ** np.ceil(np.log2(np.maximum(-log_t / 512.0, 1.0)))
    c = np.exp(log_t / pieces)  # each of `pieces` factors of t_k0, >= e^-512
    left = pieces - 1
    sums = c.copy()
    idx = np.arange(A.size)
    t, Ai, Bi, ki = c.copy(), A, B, k
    while idx.size:
        r = a * (Ai + ki) / ((ki + 1.0) * (Bi + ki))
        go = (r >= 1.0) | (t * r > _NEGLIGIBLE * (1.0 - r) * sums[idx])
        if not go.all():
            idx, t, Ai, Bi, ki, r = idx[go], t[go], Ai[go], Bi[go], ki[go], r[go]
        t = t * r
        ki = ki + 1.0
        sums[idx] += t
        big = sums[idx] > 2.0 ** 600
        if big.any():  # take out one more factor of t_k0
            hit = idx[big]
            t[big] *= c[hit]
            sums[hit] *= c[hit]
            left[hit] -= 1
    with np.errstate(under="ignore"):
        return sums * c ** left
