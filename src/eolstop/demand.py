"""Non-homogeneous Poisson demand with piecewise-constant intensity.

The intensity is constant on unit intervals [t, t+1), which keeps every
downstream cost integral in exponential-polynomial form and therefore exactly
integrable.  Arbitrary profiles enter through a custom rates table; the four
named shapes (convex, concave, linear, constant) are normalized so the
expected total demand over the horizon hits a requested value.

A model owns its per-period demand pmfs (``IntensityModel.demand_pmfs``),
built once on first use, so every kernel table and stopping-time law on the
same model reads the same read-only rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _poisson as poisson
from .errors import NonNormalizable, OutOfHorizon

NAMED_KINDS = ("convex", "concave", "linear", "constant")
PMF_TAIL_EPS = 1e-12  # one-period demand support truncated at this tail mass

# Shape coefficients at the two reference horizons.  Other horizons rescale
# the coefficient so the total drop over the horizon matches the nearest
# reference shape (a repo convention; the shapes are only pinned at 50/100).
_REF_COEFF = {
    "convex": {50: 0.9, 100: 0.96},
    "concave": {50: 0.045, 100: 0.015},
    "linear": {50: 0.392, 100: 0.099},
}


@dataclass(frozen=True, eq=False)
class IntensityModel:
    """Piecewise-constant demand intensity on [0, T].

    rates[t] is the arrival rate on [t, t+1); ``kind`` records construction
    provenance only and has no numerical effect.
    """

    horizon: int
    rates: np.ndarray
    kind: str = "custom"
    _cum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.horizon < 1 or len(self.rates) != self.horizon:
            raise ValueError("rates must have one entry per unit period")
        rates = np.asarray(self.rates, dtype=np.float64)
        if np.any(rates < 0) or not np.all(np.isfinite(rates)):
            raise ValueError("rates must be finite and non-negative")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(
            self, "_cum", np.concatenate(([0.0], np.cumsum(rates)))
        )

    @property
    def total_demand(self) -> float:
        return float(self._cum[-1])

    def mean_value(self, t) -> float | np.ndarray:
        """Cumulative expected demand Lambda(t) = integral of lambda over [0, t]."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0) or np.any(t > self.horizon):
            raise OutOfHorizon(f"t outside [0, {self.horizon}]")
        out = np.interp(t, np.arange(self.horizon + 1), self._cum)
        return float(out) if out.ndim == 0 else out

    @cached_property
    def demand_pmfs(self) -> tuple[list, list]:
        """``period_pmfs`` of the rates, built on first use and kept."""
        return period_pmfs(self.rates)


def pmf_supports(rates) -> np.ndarray:
    """Per period, the largest demand count n_k its truncated pmf keeps: the
    1 - PMF_TAIL_EPS quantile + 1 (0 at rate 0)."""
    rates = np.asarray(rates, dtype=np.float64)
    n_sup = np.zeros(len(rates), dtype=np.int64)
    pos = rates > 0
    n_sup[pos] = poisson.ppf(1.0 - PMF_TAIL_EPS, rates[pos]).astype(np.int64) + 1
    return n_sup


def period_pmfs(rates) -> tuple[list, list]:
    """Per-period demand pmfs on 0..n_k and tails P{N > n}, truncated at
    PMF_TAIL_EPS tail mass (n_k from ``pmf_supports``); one pmf and one tail
    row per period, the tails summed from the same pmf terms.  The rows are
    read-only views."""
    rates = np.asarray(rates, dtype=np.float64)
    n_sup = pmf_supports(rates)
    pmf, tail = poisson.tail_rows(rates, n_sup.max())
    pmf.setflags(write=False)
    tail.setflags(write=False)
    return ([row[: n + 1] for row, n in zip(pmf, n_sup)],
            [row[: n + 1] for row, n in zip(tail, n_sup)])


def build_named_intensity(kind: str, horizon: int, total_demand: float) -> IntensityModel:
    """Construct one of the four named shapes normalized to a total demand.

    The initial rate solves sum_t rates[t] = total_demand analytically for
    each functional form; NonNormalizable is raised when no nonnegative
    profile can achieve it.
    """
    if kind not in NAMED_KINDS:
        raise ValueError(f"kind must be one of {NAMED_KINDS}, got {kind!r}")
    if horizon < 1:
        raise ValueError("horizon must be a positive integer")
    if total_demand <= 0:
        raise ValueError("total_demand must be positive")

    t = np.arange(horizon, dtype=np.float64)
    if kind == "constant":
        rates = np.full(horizon, total_demand / horizon)
    elif kind == "convex":
        base = _scaled_coeff("convex", horizon)
        lam0 = total_demand * (1.0 - base) / (1.0 - base**horizon)
        rates = lam0 * base**t
    elif kind == "linear":
        slope = _scaled_coeff("linear", horizon)
        lam0 = total_demand / horizon + slope * (horizon - 1) / 2.0
        rates = lam0 - slope * t
    else:  # concave
        a = _scaled_coeff("concave", horizon)
        drop = (a * t) ** 3
        lam0 = total_demand / horizon + drop.mean()
        rates = lam0 - drop

    if np.any(rates < 0):
        raise NonNormalizable(
            f"{kind} shape cannot reach total {total_demand} over T={horizon} "
            "with non-negative rates"
        )
    return IntensityModel(horizon=horizon, rates=rates, kind=kind)


def _scaled_coeff(kind: str, horizon: int) -> float:
    table = _REF_COEFF[kind]
    if horizon in table:
        return table[horizon]
    ref = 50 if horizon <= 75 else 100
    if kind == "convex":
        # match the reference end-of-horizon decay b^T = b_ref^T_ref
        return table[ref] ** (ref / horizon)
    # linear slope and concave coefficient scale so the end-of-horizon drop
    # matches the reference: coeff * T = coeff_ref * T_ref
    return table[ref] * ref / horizon


def load_rates_table(path: str | Path) -> IntensityModel:
    """Read a custom intensity from a rates file (see ``parse_rates_table``)."""
    return parse_rates_table(Path(path).read_text())


def parse_rates_table(text: str) -> IntensityModel:
    """Parse a custom intensity: one non-negative decimal per line, line t
    giving the rate on [t, t+1); blank lines are skipped."""
    rates = [float(line) for line in text.splitlines() if line.strip()]
    if not rates:
        raise ValueError("empty rates table")
    return IntensityModel(horizon=len(rates), rates=np.asarray(rates), kind="custom")

