"""Cost parameters and the lost-sales accounting convention."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class LostSalesConvention(enum.Enum):
    """Upper index of the satisfied-demand sum in the replacement-cost kernel.

    ARRIVAL: an arrival is satisfied while strictly fewer than x prior
    arrivals occurred (sum to x-1; empty at x=0), the accounting implied by
    the first-passage definition of the depletion time.  PAPER: sum to x,
    matching the printed closed form.  The two differ by one Poisson term per
    state; ARRIVAL is the default because it reproduces the reference
    comparison tables.
    """

    ARRIVAL = "arrival"
    PAPER = "paper"

    @classmethod
    def parse(cls, name: str) -> "LostSalesConvention":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"convention must be 'arrival' or 'paper', got {name!r}") from None


@dataclass(frozen=True)
class CostParameters:
    """All cost and discount scalars.

    The outside-source unit cost declines exponentially, c3(u) = c3_bar *
    exp(-gamma*u), and the lost-sales cost is c2(u) = c2_bar + c3(u), so the
    lost-sales premium c2 - c3 is the constant c2_bar.  c4 may be negative
    (salvage revenue), but ordering-to-scrap must stay unprofitable:
    c_bar > -c4.
    """

    c_bar: float
    K: float
    c1: float
    c2_bar: float
    c3_bar: float
    gamma: float
    c4: float
    delta: float
    horizon: int

    def __post_init__(self):
        for name in ("c_bar", "K", "c1", "c2_bar", "c3_bar", "gamma", "c4", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if name != "c4" and getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not self.c_bar > -self.c4:
            raise ValueError("need c_bar > -c4, else ordering-and-scrapping is a money pump")
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")

    def c3(self, u):
        """Outside-source unit cost at time(s) u."""
        return self.c3_bar * np.exp(-self.gamma * u)

    def c2(self, u):
        """Lost-sales unit cost at time(s) u."""
        return self.c2_bar + self.c3(u)

    @property
    def holding_net_of_scrap(self) -> float:
        """c1 - delta*c4: the holding rate net of what deferring the scrap cost saves."""
        return self.c1 - self.delta * self.c4

