"""Command-line front end: experiment orchestration and report emission.

Reports are CSV (one table per file, rows = setup cost K, columns = initial
inventory) plus a ``manifest.json`` carrying the config hash, git revision
and timings so runs can be diffed and reproduced.

``main`` does what every config-reading command shares: it loads the config
with the flag overrides, times the command and writes the manifest.  Each
``_cmd_*`` handler takes ``(args, cfg, out_dir, timings)``, writes its
tables and returns the extra manifest keys, if any.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, analytics, settings, sim
from .config import ExperimentConfig, check_grid, kernels_with_K
from .costs import LostSalesConvention
from .errors import (
    AssumptionViolated,
    CapSaturated,
    ConfigError,
    EolstopError,
    NonFinite,
    NotFound,
)
from .kernels import build_kernel_tables
from .solver import (
    CONTINUE,
    ORDER,
    STOP,
    ModelSpec,
    StopMode,
    extract_regions,
    solve_policies,
    solve_values,
)

_NUMERICAL_ERRORS = (CapSaturated, NotFound, AssumptionViolated, NonFinite)
# command-line flag -> the config key it overrides
_OVERRIDES = {"convention": "convention", "xmax": "x_max", "seed": "seed", "paths": "paths"}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

@functools.cache
def _git_revision() -> str:
    """Short hash of the checkout this package was loaded from, whatever the
    working directory; ``unknown`` outside a git checkout.  Looked up once per
    process, since the loaded code cannot change while it runs."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5, check=False,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _write_manifest(out_dir: Path, command: str, cfg: ExperimentConfig, timings: dict,
                    extra: dict | None):
    manifest = {
        "command": command,
        "package_version": __version__,
        "git_revision": _git_revision(),
        "config_digest": cfg.digest(),
        "config": cfg.to_dict(),
        "timings_s": {k: round(v, 3) for k, v in timings.items()},
        **(extra or {}),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config)
    overrides = {key: getattr(args, flag) for flag, key in _OVERRIDES.items()
                 if getattr(args, flag) is not None}
    return ExperimentConfig.from_dict({**cfg.to_dict(), **overrides}) if overrides else cfg


def _tag(label: str) -> str:
    return label.replace("/", "")


def _pair_csv(args) -> str:
    """Report name of a two-model command: ``<command>_<a>_vs_<b>.csv``."""
    return f"{args.command}_{_tag(args.model_a)}_vs_{_tag(args.model_b)}.csv"


def _pct_grid(kernels, cfg: ExperimentConfig, a: str, b: str, ids=None) -> np.ndarray:
    """% increase of model a's total cost V(0, x0) + A over model b's, per
    (K, x0), or per (table, K, x0) for a list of tables sharing an intensity;
    one backward pass per label covers every K and table.  A CapSaturated
    message gains the label and, given the tables' setting ``ids``, the ids
    of the tables that hit the cap."""
    def values(label):
        try:
            return solve_values(ModelSpec.parse(label), kernels, cfg.setup_costs)[..., list(cfg.x0)]
        except CapSaturated as exc:
            where = (f" on settings {_format_setting_ids([ids[i] for i in exc.tables])}"
                     if ids else "")
            raise CapSaturated(f"{label}{where}: {exc}") from None

    va, vb = values(a), values(b)
    if not vb.all():
        raise ConfigError(f"{b} costs 0 at some (K, x0), so a % increase over it is undefined")
    return 100.0 * (va - vb) / vb


def _solve_each(cfg: ExperimentConfig, labels, x0s):
    """One ``solve_policies`` call per model label (read lazily) for every K
    and x0; yields (label, K, x0, kernels, result, file tag) in that order."""
    base = cfg.build_kernels()
    for label in labels:
        solved = solve_policies(ModelSpec.parse(label), base, cfg.setup_costs, x0s)
        for K, row in zip(cfg.setup_costs, solved):
            for x0, res in zip(x0s, row):
                yield label, K, x0, kernels_with_K(base, K), res, f"{_tag(label)}_K{K:g}"


@functools.lru_cache(maxsize=4)
def _region_rows(x_max: int):
    r"""Per action code, the rows x = 0..x_max of a regions block as one text,
    with "\0" for t and "\1" for the order-up-to level, and where each row
    starts in it (x_max + 2 offsets)."""
    suffix = {CONTINUE: "continue,", STOP: "stop,", ORDER: "order,\1"}
    texts, starts = [], []
    for code in range(len(suffix)):
        rows = [f"\0,{x},{suffix[code]}\r\n" for x in range(x_max + 1)]
        texts.append("".join(rows))
        starts.append(list(itertools.accumulate(map(len, rows), initial=0)))
    return texts, starts


def _write_regions_csv(path: Path, policy):
    """One row per (t, x) at the starting budget layer, in the bytes
    ``csv.writer`` would write.  Each epoch's block is cut from the cached
    rows of ``_region_rows`` at the runs of equal (action, target): one
    ``str.replace`` per run puts in its target, one per epoch puts in t.
    Blocks are written as they are made, so the file's text is never held
    whole."""
    path.parent.mkdir(parents=True, exist_ok=True)
    texts, starts = _region_rows(policy.x_max)
    act, tgt = policy.action[:, :, policy.z0], policy.target[:, :, policy.z0]
    cut = (act[:, 1:] != act[:, :-1]) | (tgt[:, 1:] != tgt[:, :-1])
    with path.open("w", newline="") as fh:
        fh.write("t,x,action,order_up_to\r\n")
        for t in range(policy.horizon + 1):
            lo = [0, *(np.flatnonzero(cut[t]) + 1).tolist()]
            hi = [*lo[1:], policy.x_max + 1]
            runs = zip(act[t, lo].tolist(), tgt[t, lo].tolist(), lo, hi)
            fh.write("".join(texts[a][starts[a][i]:starts[a][j]].replace("\1", f"{g}")
                             for a, g, i, j in runs).replace("\0", f"{t}"))


def _write_taudist_csv(path: Path, dist):
    _write_csv(path, ["m", "mass"], ((m, f"{p:.12g}") for m, p in enumerate(dist.mass)))


def _parse_setting_ids(spec: str) -> list[int]:
    """Ids from a list like '1-128' or '1,24,125'; each bound is checked
    before a range is expanded."""
    ids = set()
    for part in filter(None, (p.strip() for p in spec.split(","))):
        lo, _, hi = part.partition("-")
        try:
            lo, hi = int(lo), int(hi or lo)
        except ValueError:
            raise ConfigError(f"setting ids must be integers or ranges like 1-128, "
                              f"got {part!r}") from None
        if not 1 <= lo <= hi <= settings.N_SETTINGS:
            raise ConfigError(f"setting ids must rise within 1..{settings.N_SETTINGS}, "
                              f"got {part!r}")
        ids.update(range(lo, hi + 1))
    if not ids:
        raise ConfigError(f"--settings lists no setting id: {spec!r}")
    return sorted(ids)


def _format_setting_ids(ids) -> str:
    """Ascending ids in the ``--settings`` form, runs as ranges: '1-4,9'."""
    runs = [[sid for _, sid in run]
            for _, run in itertools.groupby(enumerate(ids), lambda p: p[1] - p[0])]
    return ",".join(f"{r[0]}-{r[-1]}" if len(r) > 1 else f"{r[0]}" for r in runs)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args, cfg, out_dir, timings):
    t0 = time.perf_counter()
    values = {}
    for label, K, _, kt, res, tag in _solve_each(cfg, cfg.models, cfg.x0[:1]):
        # x0 enters only the choice of a STATIC switch epoch; each x0 takes its own best
        row = res.values_at_zero if res.switch_values is None else res.switch_values
        values.update({(label, K, x0): float(row[x0]) for x0 in cfg.x0})
        _write_regions_csv(out_dir / f"regions_{tag}.csv", res.policy)
        if res.policy.spec.stop_mode is StopMode.DYNAMIC:
            for dist in analytics.stopping_time_distributions(res.policy, kt.model, cfg.x0):
                _write_taudist_csv(out_dir / f"taudist_{tag}_x{dist.x0}.csv", dist)
    timings["solve_grid"] = time.perf_counter() - t0
    _write_csv(out_dir / "values.csv", ["model", "K", "x0", "total_cost"],
               ((*key, v) for key, v in sorted(values.items())))
    print(f"wrote {out_dir}/values.csv ({len(values)} rows)")
    return {"A": kt.A}  # K-free, so every cell's table has the same


def _cmd_compare(args, cfg, out_dir, timings):
    check_grid(cfg.build_model().horizon, cfg.x_max, (args.model_a, args.model_b))
    cells = _pct_grid(cfg.build_kernels(), cfg, args.model_a, args.model_b)
    _write_csv(out_dir / _pair_csv(args), ["K\\x0", *cfg.x0],
               ([K, *(f"{v:.6f}" for v in row)] for K, row in zip(cfg.setup_costs, cells)))
    print(f"% increase of {args.model_a} over {args.model_b}")
    print("K\\x0  " + "  ".join(f"{x:>8d}" for x in cfg.x0))
    for K, row in zip(cfg.setup_costs, cells):
        print(f"{K:>5g} " + "  ".join(f"{v:8.1f}" for v in row))
    return {"model_a": args.model_a, "model_b": args.model_b}


def _cmd_sweep(args, cfg, out_dir, timings):
    ids = _parse_setting_ids(args.settings)
    chosen = [settings.setting_from_id(sid) for sid in ids]
    check_grid(max(s.horizon for s in chosen), cfg.x_max, (args.model_a, args.model_b))
    conv = LostSalesConvention.parse(cfg.convention)
    groups = {}  # settings that share an intensity (kind, horizon) share one build and pass
    for i, s in enumerate(chosen):
        groups.setdefault((s.kind, s.horizon), []).append(i)
    pct = np.empty((len(chosen), len(cfg.setup_costs), len(cfg.x0)))  # (setting, K, x0)
    for members in groups.values():
        tables = build_kernel_tables(
            [settings.setting_cost_params(chosen[i], cfg.setup_costs[0]) for i in members],
            settings.setting_intensity(chosen[members[0]]), conv, x_max=cfg.x_max)
        pct[members] = _pct_grid(tables, cfg, args.model_a, args.model_b,
                                 [ids[i] for i in members])
    rows = []
    for i, K in enumerate(cfg.setup_costs):
        for j, x0 in enumerate(cfg.x0):
            vals = pct[:, i, j]
            mx, mn, avg = vals.argmax(), vals.argmin(), np.mean(vals)
            rows.append([K, x0, f"{vals[mx]:.4f}", ids[mx], f"{avg:.4f}", f"{vals[mn]:.4f}",
                         ids[mn]])
            print(f"K={K:g} x0={x0}: max {vals[mx]:.1f}% (set {ids[mx]})  "
                  f"avg {avg:.1f}%  min {vals[mn]:.1f}% (set {ids[mn]})")
    _write_csv(out_dir / _pair_csv(args),
               ["K", "x0", "max_pct", "max_setting", "avg_pct", "min_pct", "min_setting"], rows)
    return {"settings": ids, "model_a": args.model_a, "model_b": args.model_b}


def _cmd_regions(args, cfg, out_dir, timings):
    for label, K, _, _, res, tag in _solve_each(cfg, cfg.models, cfg.x0[:1]):
        _write_regions_csv(out_dir / f"regions_{tag}.csv", res.policy)
        stop, order, cont = extract_regions(res.policy, 0)
        print(f"{label} K={K:g} t=0: |stop|={len(stop)} |order|={len(order)} "
              f"|continue|={len(cont)}")


def _cmd_taudist(args, cfg, out_dir, timings):
    def dynamic(label):  # runs as _solve_each reaches the label, so skip lines keep their place
        if ModelSpec.parse(label).stop_mode is StopMode.DYNAMIC:
            return True
        print(f"skipping {label}: stopping-time distribution needs dynamic stopping")
        return False

    for label, K, _, kt, res, tag in _solve_each(cfg, filter(dynamic, cfg.models), cfg.x0[:1]):
        for dist in analytics.stopping_time_distributions(res.policy, kt.model, cfg.x0):
            _write_taudist_csv(out_dir / f"taudist_{tag}_x{dist.x0}.csv", dist)
            print(f"{label} K={K:g} x0={dist.x0}: mean stop {dist.mean():.2f}, "
                  f"mass sums to {dist.mass.sum():.9f}")


def _cmd_bounds(args, cfg, out_dir, timings):
    model, params = cfg.build_model(), cfg.build_params(cfg.setup_costs[0])
    rows = []
    for x0 in cfg.x0:
        b = analytics.switch_time_bounds(params, model, x0, step=cfg.tau_step)
        tau_star, cost = analytics.brute_force_switch_argmin(params, model, x0, step=cfg.tau_step)
        rows.append([x0, f"{b.lb:.4f}", f"{b.ub:.4f}", f"{tau_star:.4f}", f"{cost:.4f}"])
        print(f"x={x0}: lb={b.lb:.2f} <= argmin={tau_star:.2f} <= ub={b.ub:.2f}")
    _write_csv(out_dir / "bounds.csv", ["x", "tau_lb", "tau_ub", "tau_argmin", "cost_at_argmin"],
               rows)


def _cmd_simulate(args, cfg, out_dir, timings):
    rows, cells = [], []
    for label, K, x0, kt, res, _ in _solve_each(cfg, cfg.models, cfg.x0):
        est = sim.evaluate_policy(res.policy, kt.params, kt.model, x0,
                                  paths=cfg.paths, seed=cfg.seed)
        dp = float(res.values_at_zero[x0])  # the total cost of a solve at this x0
        z = (est.mean - dp) / est.std_error if est.std_error else 0.0
        rows.append([label, K, x0, f"{dp:.4f}", f"{est.mean:.4f}",
                     f"{est.std_error:.4f}", f"{z:.3f}"])
        cells.append({"label": label, "K": K, "x0": x0, "paths": est.paths, "seed": est.seed,
                      "mc_se": est.std_error, "z": z})
        print(f"{label} K={K:g} x0={x0}: DP {dp:.1f}  "
              f"MC {est.mean:.1f} +- {est.std_error:.1f}  (z={z:.2f})")
    _write_csv(out_dir / "simulate.csv", ["model", "K", "x0", "dp_value", "mc_mean", "mc_se", "z"],
               rows)
    return {"simulate": cells, "A": kt.A}


def _cmd_settings():
    print(" id  kind      T    c4     gamma    delta   c2_bar")
    for s in settings.iter_settings():
        print(f"{s.id:3d}  {s.kind:8s}{s.horizon:4d}  {s.c4:5g}  {s.gamma:8g} "
              f"{s.delta:8g}  {s.c2_bar:6g}")


# ---------------------------------------------------------------------------

_CONFIG_COMMANDS = [
    ("solve", _cmd_solve, "solve configured models; write values/regions/taudist"),
    ("compare", _cmd_compare, "percentage cost grid of model_a over model_b"),
    ("sweep", _cmd_sweep, "aggregate a comparison over numbered settings"),
    ("regions", _cmd_regions, "emit per-period stop/order/continue regions"),
    ("taudist", _cmd_taudist, "stopping-time distribution of solved policies"),
    ("bounds", _cmd_bounds, "switching-time bounds and brute-force argmin"),
    ("simulate", _cmd_simulate, "Monte Carlo check of solved policies"),
]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves
    it as it was, so in-process callers of ``main`` share it."""
    ap = argparse.ArgumentParser(prog="eolstop",
                                 description="End-of-life inventory optimal stopping toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, func, text in _CONFIG_COMMANDS:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default="out", help="output directory (default ./out)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--paths", type=int, default=None, help="override Monte Carlo path count")
        p.add_argument("--convention", choices=["paper", "arrival"], default=None,
                       help="lost-sales accounting convention override")
        p.add_argument("--xmax", type=int, default=None, help="inventory cap override")
        if name in ("compare", "sweep"):
            p.add_argument("model_a")
            p.add_argument("model_b")
        if name == "sweep":
            p.add_argument("--settings", required=True, help="ids like '1-128' or '1,24,125'")
        p.set_defaults(func=func)

    p = sub.add_parser("settings", help="inspect the numbered parameter settings")
    p.add_argument("action", choices=["list"])
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "settings":  # the one command that reads no config
            _cmd_settings()
            return 0
        cfg = _load_config(args)
        out_dir, timings = Path(args.out), {}
        t0 = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):  # NonFinite (exit 3) reports these
            extra = args.func(args, cfg, out_dir, timings)
        timings["total"] = time.perf_counter() - t0
        _write_manifest(out_dir, args.command, cfg, timings, extra)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except EolstopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
