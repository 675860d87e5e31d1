"""Experiment configuration: JSON in, validated objects out.

Configs are strict: a ``schema_version`` field is required and unknown keys
are rejected so golden-file runs stay reproducible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .analytics import DEFAULT_TAU_STEP
from .costs import CostParameters, LostSalesConvention
from .demand import (NAMED_KINDS, IntensityModel, build_named_intensity, load_rates_table,
                     pmf_supports)
from .errors import BudgetMisuse, ConfigError
from .kernels import KernelTable, build_kernel_table
from .solver import ModelSpec

SCHEMA_VERSION = 1
# cap on (T+1)(x_max+1)Z, the cells of one value grid; the largest paper
# setting (T=100, x_max=1200, Z=4) has under 0.5 M, and each cell costs some
# tens of bytes across the solver's arrays
MAX_GRID_CELLS = 10_000_000
# cap on paths * T, the Poisson counts one Monte Carlo cell draws at once
# (int64, held about twice over); the README's 100k paths at T=100 are 10 M
MAX_MC_DRAWS = 20_000_000
# cap on T / tau_step, the nodes of the switch-time grid; a node costs about
# 470 bytes across the bounds command's arrays, so the cap is under 100 MB
MAX_TAU_NODES = 200_000
# cap on T (n + 1), n the largest one-period demand support, the cells of the
# pmf and tail grids the demand model builds for the solver
MAX_PMF_CELLS = 10_000_000

_TOP_KEYS = {
    "schema_version", "intensity", "costs", "setup_costs", "x0", "models",
    "x_max", "convention", "tau_step", "seed", "paths",
}
_INTENSITY_KEYS = {"kind", "horizon", "total_demand", "rates_file", "rates"}
_COST_KEYS = {"c_bar", "c1", "c2_bar", "c3_bar", "gamma", "c4", "delta"}


@dataclass(frozen=True)
class ExperimentConfig:
    intensity: dict
    costs: dict
    setup_costs: tuple
    x0: tuple
    models: tuple
    x_max: int = 1200
    convention: str = "arrival"
    tau_step: float = DEFAULT_TAU_STEP
    seed: int = 0
    paths: int = 100_000
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        version = raw.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
        for req in ("intensity", "costs", "setup_costs", "x0", "models"):
            if req not in raw:
                raise ConfigError(f"missing required config key: {req!r}")
        for key, kind in (("intensity", dict), ("costs", dict), ("setup_costs", list),
                          ("x0", list), ("models", list)):
            if not isinstance(raw[key], kind):
                raise ConfigError(f"{key} must be a JSON {'object' if kind is dict else 'list'}")
        if not all(isinstance(label, str) for label in raw["models"]):
            raise ConfigError("models must list taxonomy labels as strings")
        try:
            cfg = cls(
                intensity=dict(raw["intensity"]),
                costs={k: _number(f"costs.{k}", v) for k, v in raw["costs"].items()},
                setup_costs=tuple(_number("setup_costs", k) for k in raw["setup_costs"]),
                x0=tuple(_integer("x0", x) for x in raw["x0"]),
                models=tuple(raw["models"]),
                x_max=_integer("x_max", raw.get("x_max", cls.x_max)),
                convention=str(raw.get("convention", cls.convention)),
                tau_step=_number("tau_step", raw.get("tau_step", cls.tau_step)),
                seed=_integer("seed", raw.get("seed", cls.seed)),
                paths=_integer("paths", raw.get("paths", cls.paths)),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        intensity = raw.get("intensity") if isinstance(raw, dict) else None
        if isinstance(intensity, dict) and isinstance(intensity.get("rates_file"), str):
            # a relative rates file lives next to the config, wherever the run starts
            rates_file = str(Path(path).parent / intensity["rates_file"])
            raw = {**raw, "intensity": {**intensity, "rates_file": rates_file}}
        return cls.from_dict(raw)

    # ------------------------------------------------------------------
    def validate(self):
        if set(self.intensity) - _INTENSITY_KEYS:
            raise ConfigError(
                f"unknown intensity keys: {sorted(set(self.intensity) - _INTENSITY_KEYS)}")
        if set(self.costs) != _COST_KEYS:
            missing, extra = _COST_KEYS - set(self.costs), set(self.costs) - _COST_KEYS
            raise ConfigError(f"costs must have exactly {sorted(_COST_KEYS)}; "
                              f"missing {sorted(missing)}, unknown {sorted(extra)}")
        if not self.models:
            raise ConfigError("models must list at least one taxonomy label")
        if not self.setup_costs:
            raise ConfigError("setup_costs must list at least one setup cost")
        kind = self.intensity.get("kind")
        sources = sorted({"rates_file", "rates"} & set(self.intensity))
        if kind in NAMED_KINDS:
            for req in ("horizon", "total_demand"):
                if req not in self.intensity:
                    raise ConfigError(f"named intensity needs {req!r}")
            if sources:
                raise ConfigError(f"named intensity takes no {sources}")
        elif kind == "custom":
            if len(sources) != 1:
                raise ConfigError("custom intensity needs exactly one of 'rates_file' and 'rates'")
            if named := sorted({"horizon", "total_demand"} & set(self.intensity)):
                raise ConfigError(f"custom intensity takes no {named}; its rates set both")
        else:
            raise ConfigError(f"intensity.kind must be one of {NAMED_KINDS + ('custom',)}")
        if not all(math.isfinite(k) and k >= 0 for k in self.setup_costs):
            raise ConfigError("setup_costs must be finite and non-negative")
        if not self.x0:
            raise ConfigError("x0 must list at least one starting inventory")
        if any(x < 0 for x in self.x0):
            raise ConfigError("x0 values must be non-negative")
        if any(x > self.x_max for x in self.x0):
            raise ConfigError("x0 values must not exceed x_max")
        if self.x_max < 1:
            raise ConfigError("x_max must be >= 1")
        if not (math.isfinite(self.tau_step) and self.tau_step > 0):
            raise ConfigError("tau_step must be finite and positive")
        if self.paths < 2:
            raise ConfigError("paths must be >= 2")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        try:
            LostSalesConvention.parse(self.convention)
            if kind in NAMED_KINDS:
                # checked before the model is built: its rates alone take 8
                # bytes a period
                self._check_horizon(_integer("intensity.horizon", self.intensity["horizon"]))
            model = self.build_model()
            if kind == "custom":
                self._check_horizon(model.horizon)
            # the support grows with the rate and exceeds it, so clipping the
            # largest rate at the cap keeps the count exact up to the cap
            rate = min(float(model.rates.max()), MAX_PMF_CELLS)
            cells = model.horizon * (int(pmf_supports([rate])[0]) + 1)
            if cells > MAX_PMF_CELLS:
                raise ConfigError(
                    f"T(n+1) = {cells} demand pmf cells exceeds the limit of {MAX_PMF_CELLS}, "
                    f"n the largest one-period demand support; lower the demand")
            CostParameters(K=float(self.setup_costs[0]), horizon=model.horizon, **self.costs)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(str(exc)) from exc
        # a repeat would collapse into one report row or overwrite a file;
        # the labels parse, since check_grid has read them
        labels = [ModelSpec.parse(label).label for label in self.models]
        for key, values in (("setup_costs", self.setup_costs), ("x0", self.x0),
                            ("models", labels)):
            if len(set(values)) < len(values):
                repeated = sorted({v for v in values if values.count(v) > 1})
                raise ConfigError(f"{key} lists {repeated} more than once")

    def _check_horizon(self, horizon: int):
        """Reject a horizon whose value grid, Monte Carlo draws or switch-time
        grid exceeds its cap."""
        check_grid(horizon, self.x_max, self.models)
        if self.paths * horizon > MAX_MC_DRAWS:
            raise ConfigError(
                f"paths * T = {self.paths * horizon} Monte Carlo draws exceeds the "
                f"limit of {MAX_MC_DRAWS}; lower paths")
        if horizon / self.tau_step > MAX_TAU_NODES:
            raise ConfigError(
                f"T / tau_step = {horizon / self.tau_step:.6g} switch-time nodes exceeds "
                f"the limit of {MAX_TAU_NODES}; raise tau_step")

    # ------------------------------------------------------------------
    def build_model(self) -> IntensityModel:
        kind = self.intensity["kind"]
        if kind == "custom":
            if "rates" in self.intensity:
                import numpy as np

                rates = self.intensity["rates"]
                if not isinstance(rates, list):
                    raise ValueError(f"intensity.rates must be a JSON list, got {rates!r}")
                return IntensityModel(
                    horizon=len(rates),
                    rates=np.array([_number("intensity.rates", r) for r in rates]),
                    kind="custom",
                )
            return load_rates_table(self.intensity["rates_file"])
        return build_named_intensity(
            kind, _integer("intensity.horizon", self.intensity["horizon"]),
            _number("intensity.total_demand", self.intensity["total_demand"]))

    def build_params(self, K: float) -> CostParameters:
        return CostParameters(K=float(K), horizon=self.build_model().horizon, **self.costs)

    def build_kernels(self) -> KernelTable:
        """Kernels at the first setup cost; ``kernels_with_K`` serves the others."""
        return build_kernel_table(
            self.build_params(self.setup_costs[0]),
            self.build_model(),
            LostSalesConvention.parse(self.convention),
            x_max=self.x_max,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["setup_costs"] = list(self.setup_costs)
        d["x0"] = list(self.x0)
        d["models"] = list(self.models)
        return d

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()[:16]


def _number(name: str, value) -> float:
    """``value``, a JSON number, as a float; ValueError for anything else
    (a string, a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _integer(name: str, value) -> int:
    """``value``, a JSON number, as an int; ValueError when it is not one or
    when that would truncate it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    out = int(value)
    if out != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return out


def check_grid(horizon: int, x_max: int, labels) -> None:
    """Reject a bad model label, or a value grid of more than MAX_GRID_CELLS
    cells: (T+1)(x_max+1) times the largest model's budget layers."""
    try:
        layers = max(ModelSpec.parse(label).layers for label in labels)
    except BudgetMisuse as exc:
        raise ConfigError(str(exc)) from exc
    cells = (horizon + 1) * (x_max + 1) * layers
    if cells > MAX_GRID_CELLS:
        raise ConfigError(
            f"(T+1)(x_max+1)Z = {cells} value-grid cells exceeds the limit of "
            f"{MAX_GRID_CELLS}; lower x_max or the order budget")


def kernels_with_K(kernels: KernelTable, K: float) -> KernelTable:
    """Kernel arrays are K-independent; swap the scalar without rebuilding.
    The original form's rows (H, L, C), which the table does not keep, are
    built by the test suite's oracle, ``tests/original_form.py``."""
    if K == kernels.params.K:
        return kernels
    return dataclasses.replace(kernels, params=dataclasses.replace(kernels.params, K=float(K)))
