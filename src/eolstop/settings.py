"""Enumeration of the 128 numbered parameter settings.

Setting ids nest intensity kind, horizon, scrap cost, outside-source decline,
time discount and lost-sales premium in fixed blocks; crossing each id with
the three setup-cost values yields the full 384-run experiment grid.  The
remaining scalars are tied to the unit cost: c1 = 0.01*c_bar and
c3_bar = 2*c_bar.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import CostParameters
from .demand import NAMED_KINDS, IntensityModel, build_named_intensity

HORIZONS = (50, 100)
C4_VALUES = (25.0, -25.0)
GAMMA_VALUES = (0.01, 1e-6)
DELTA_VALUES = (0.005, 1e-6)
C2_BAR_VALUES = (200.0, 1000.0)
TOTAL_DEMAND = 500.0
C_BAR = 100.0

N_SETTINGS = 128


@dataclass(frozen=True)
class SettingSpec:
    id: int
    kind: str
    horizon: int
    c4: float
    gamma: float
    delta: float
    c2_bar: float


def setting_from_id(sid: int) -> SettingSpec:
    if not 1 <= sid <= N_SETTINGS:
        raise ValueError(f"setting id must lie in 1..{N_SETTINGS}, got {sid}")
    i = sid - 1
    return SettingSpec(
        id=sid,
        kind=NAMED_KINDS[i // 32],
        horizon=HORIZONS[(i % 32) // 16],
        c4=C4_VALUES[(i % 16) // 8],
        gamma=GAMMA_VALUES[(i % 8) // 4],
        delta=DELTA_VALUES[(i % 4) // 2],
        c2_bar=C2_BAR_VALUES[i % 2],
    )


def iter_settings():
    return (setting_from_id(i) for i in range(1, N_SETTINGS + 1))


def setting_intensity(s: SettingSpec) -> IntensityModel:
    return build_named_intensity(s.kind, s.horizon, TOTAL_DEMAND)


def setting_cost_params(s: SettingSpec, K: float) -> CostParameters:
    return CostParameters(
        c_bar=C_BAR,
        K=K,
        c1=0.01 * C_BAR,
        c2_bar=s.c2_bar,
        c3_bar=2.0 * C_BAR,
        gamma=s.gamma,
        c4=s.c4,
        delta=s.delta,
        horizon=s.horizon,
    )
