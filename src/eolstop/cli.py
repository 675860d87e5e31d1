"""Command-line front end: experiment orchestration and report emission.

Reports are CSV (one table per file, rows = setup cost K, columns = initial
inventory) plus a ``manifest.json`` carrying the config hash, git revision
and timings so runs can be diffed and reproduced.
"""

from __future__ import annotations

import argparse
import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, analytics, settings, sim
from .config import ExperimentConfig, kernels_with_K
from .errors import (
    AssumptionViolated,
    CapSaturated,
    ConfigError,
    EolstopError,
    NotFound,
)
from .solver import (
    CONTINUE,
    ORDER,
    STOP,
    ModelSpec,
    StopMode,
    extract_regions,
    solve,
    solve_values,
)

_VALIDATION_ERRORS = (ConfigError,)
_NUMERICAL_ERRORS = (CapSaturated, NotFound, AssumptionViolated)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5, check=False,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _write_manifest(out_dir: Path, command: str, cfg: ExperimentConfig | None,
                    timings: dict, extra: dict | None = None):
    manifest = {
        "command": command,
        "package_version": __version__,
        "git_revision": _git_revision(),
        "config_digest": cfg.digest() if cfg else None,
        "config": cfg.to_dict() if cfg else None,
        "timings_s": {k: round(v, 3) for k, v in timings.items()},
    }
    if extra:
        manifest.update(extra)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _write_grid_csv(path: Path, row_label: str, rows, col_labels, cells):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([row_label] + [str(c) for c in col_labels])
        for r, row in zip(rows, cells):
            w.writerow([r] + [f"{v:.6f}" for v in row])


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("--config is required for this command")
    cfg = ExperimentConfig.from_json(args.config)
    overrides = {}
    if getattr(args, "convention", None):
        overrides["convention"] = args.convention
    if getattr(args, "xmax", None):
        overrides["x_max"] = args.xmax
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "paths", None):
        overrides["paths"] = args.paths
    if overrides:
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), **overrides})
    return cfg


def _solve_grid(cfg: ExperimentConfig, labels, kernels) -> dict:
    """total cost V(0, x0) + A per (model label, K, x0); one call per label
    covers every K."""
    out = {}
    for label in labels:
        vals = solve_values(ModelSpec.parse(label), kernels, cfg.setup_costs)
        for K, row in zip(cfg.setup_costs, vals):
            for x0 in cfg.x0:
                out[(label, K, x0)] = float(row[x0])
    return out


def _solve_each(cfg: ExperimentConfig, labels):
    """Solve each model label at each setup cost, at the first x0; yields
    (label, spec, K, kernels, result, file tag).  ``labels`` is read lazily."""
    base = cfg.build_kernels()
    for label in labels:
        spec = ModelSpec.parse(label)
        for K in cfg.setup_costs:
            kt = kernels_with_K(base, K)
            res = solve(spec, kt, cfg.x0[0])
            yield label, spec, K, kt, res, f"{label.replace('/', '')}_K{K:g}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out)
    t0 = time.perf_counter()
    values = {}
    for label, spec, K, kt, res, tag in _solve_each(cfg, cfg.models):
        # x0 enters only the choice of a STATIC switch epoch; each x0 takes its own best
        row = res.values_at_zero if res.switch_values is None else res.switch_values
        values.update({(label, K, x0): float(row[x0]) for x0 in cfg.x0})
        _write_regions_csv(out_dir / f"regions_{tag}.csv", res.policy)
        if spec.stop_mode is StopMode.DYNAMIC:
            for x0 in cfg.x0:
                dist = analytics.stopping_time_distribution(res.policy, kt.model, x0)
                _write_taudist_csv(out_dir / f"taudist_{tag}_x{x0}.csv", dist)
    t_solve = time.perf_counter() - t0
    rows = []
    for (label, K, x0), v in sorted(values.items()):
        rows.append({"model": label, "K": K, "x0": x0, "total_cost": v})
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "values.csv").open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["model", "K", "x0", "total_cost"])
        w.writeheader()
        for r in rows:
            w.writerow(r)
    _write_manifest(out_dir, "solve", cfg,
                    {"solve_grid": t_solve, "total": time.perf_counter() - t0})
    print(f"wrote {out_dir}/values.csv ({len(rows)} rows)")
    return 0


def _pct_grid(values: dict, a: str, b: str, cfg: ExperimentConfig):
    cells = []
    for K in cfg.setup_costs:
        row = []
        for x0 in cfg.x0:
            va, vb = values[(a, K, x0)], values[(b, K, x0)]
            row.append(100.0 * (va - vb) / vb)
        cells.append(row)
    return cells


def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    values = _solve_grid(cfg, (args.model_a, args.model_b), cfg.build_kernels())
    cells = _pct_grid(values, args.model_a, args.model_b, cfg)
    out_dir = Path(args.out)
    name = f"compare_{args.model_a.replace('/', '')}_vs_{args.model_b.replace('/', '')}.csv"
    _write_grid_csv(out_dir / name, "K\\x0", list(cfg.setup_costs), list(cfg.x0), cells)
    _write_manifest(out_dir, "compare", cfg, {"total": time.perf_counter() - t0},
                    {"model_a": args.model_a, "model_b": args.model_b})
    print(f"% increase of {args.model_a} over {args.model_b}")
    print("K\\x0  " + "  ".join(f"{x:>8d}" for x in cfg.x0))
    for K, row in zip(cfg.setup_costs, cells):
        print(f"{K:>5g} " + "  ".join(f"{v:8.1f}" for v in row))
    return 0


def _parse_setting_ids(spec: str):
    ids = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            ids.update(range(int(lo), int(hi) + 1))
        else:
            ids.add(int(part))
    out = sorted(ids)
    for sid in out:
        settings.setting_from_id(sid)  # validates
    return out


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    ids = _parse_setting_ids(args.settings)
    t0 = time.perf_counter()
    from .costs import LostSalesConvention
    from .kernels import build_kernel_table

    conv = LostSalesConvention.parse(cfg.convention)
    labels = (args.model_a, args.model_b)
    pct = {}  # (sid, K, x0) -> percentage
    for sid in ids:
        s = settings.setting_from_id(sid)
        kt = build_kernel_table(settings.setting_cost_params(s, cfg.setup_costs[0]),
                                settings.setting_intensity(s), conv, x_max=cfg.x_max)
        cells = _pct_grid(_solve_grid(cfg, labels, kt), *labels, cfg)
        for K, row in zip(cfg.setup_costs, cells):
            pct.update({(sid, K, x0): v for x0, v in zip(cfg.x0, row)})

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"sweep_{args.model_a.replace('/', '')}_vs_{args.model_b.replace('/', '')}.csv"
    with (out_dir / name).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["K", "x0", "max_pct", "max_setting", "avg_pct", "min_pct", "min_setting"])
        for K in cfg.setup_costs:
            for x0 in cfg.x0:
                vals = {sid: pct[(sid, K, x0)] for sid in ids}
                mx = max(vals, key=vals.get)
                mn = min(vals, key=vals.get)
                w.writerow([K, x0, f"{vals[mx]:.4f}", mx,
                            f"{np.mean(list(vals.values())):.4f}", f"{vals[mn]:.4f}", mn])
                print(f"K={K:g} x0={x0}: max {vals[mx]:.1f}% (set {mx})  "
                      f"avg {np.mean(list(vals.values())):.1f}%  min {vals[mn]:.1f}% (set {mn})")
    _write_manifest(out_dir, "sweep", cfg, {"total": time.perf_counter() - t0},
                    {"settings": ids, "model_a": args.model_a, "model_b": args.model_b})
    return 0


def _write_regions_csv(path: Path, policy):
    """One row per (t, x) at the starting budget layer, in the bytes
    ``csv.writer`` would write; each epoch's block is built as one string."""
    path.parent.mkdir(parents=True, exist_ok=True)
    names = {CONTINUE: "continue", STOP: "stop", ORDER: "order"}
    xs = range(policy.x_max + 1)
    blocks = ["t,x,action,order_up_to\r\n"]
    for t in range(policy.horizon + 1):
        act = policy.action[t, :, policy.z0].tolist()
        tgt = policy.target[t, :, policy.z0].tolist()
        blocks.append("".join(f"{t},{x},{names[a]},{g if a == ORDER else ''}\r\n"
                              for x, a, g in zip(xs, act, tgt)))
    path.write_text("".join(blocks), newline="")


def _cmd_regions(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    out_dir = Path(args.out)
    for label, _, K, _, res, tag in _solve_each(cfg, cfg.models):
        _write_regions_csv(out_dir / f"regions_{tag}.csv", res.policy)
        stop, order, cont = extract_regions(res.policy, 0)
        print(f"{label} K={K:g} t=0: |stop|={len(stop)} |order|={len(order)} "
              f"|continue|={len(cont)}")
    _write_manifest(out_dir, "regions", cfg, {"total": time.perf_counter() - t0})
    return 0


def _write_taudist_csv(path: Path, dist):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "mass"])
        for m, p in enumerate(dist.mass):
            w.writerow([m, f"{p:.12g}"])


def _cmd_taudist(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    out_dir = Path(args.out)

    def dynamic(label):  # runs as _solve_each reaches the label, so skip lines keep their place
        if ModelSpec.parse(label).stop_mode is StopMode.DYNAMIC:
            return True
        print(f"skipping {label}: stopping-time distribution needs dynamic stopping")
        return False

    for label, _, K, kt, res, tag in _solve_each(cfg, filter(dynamic, cfg.models)):
        for x0 in cfg.x0:
            dist = analytics.stopping_time_distribution(res.policy, kt.model, x0)
            _write_taudist_csv(out_dir / f"taudist_{tag}_x{x0}.csv", dist)
            print(f"{label} K={K:g} x0={x0}: mean stop {dist.mean():.2f}, "
                  f"mass sums to {dist.mass.sum():.9f}")
    _write_manifest(out_dir, "taudist", cfg, {"total": time.perf_counter() - t0})
    return 0


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    model = cfg.build_model()
    params = cfg.build_params(cfg.setup_costs[0])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "bounds.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "tau_lb", "tau_ub", "tau_argmin", "cost_at_argmin"])
        for x0 in cfg.x0:
            b = analytics.switch_time_bounds(params, model, x0, step=cfg.tau_step)
            tau_star, cost = analytics.brute_force_switch_argmin(
                params, model, x0, step=cfg.tau_step)
            w.writerow([x0, f"{b.lb:.4f}", f"{b.ub:.4f}", f"{tau_star:.4f}", f"{cost:.4f}"])
            print(f"x={x0}: lb={b.lb:.2f} <= argmin={tau_star:.2f} <= ub={b.ub:.2f}")
    _write_manifest(out_dir, "bounds", cfg, {"total": time.perf_counter() - t0})
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    base = cfg.build_kernels()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "simulate.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["model", "K", "x0", "dp_value", "mc_mean", "mc_se", "z"])
        for label in cfg.models:
            spec = ModelSpec.parse(label)
            for K in cfg.setup_costs:
                kt = kernels_with_K(base, K)
                for x0 in cfg.x0:
                    res = solve(spec, kt, x0)
                    est = sim.evaluate_policy(res.policy, kt.params, kt.model, x0,
                                              paths=cfg.paths, seed=cfg.seed)
                    z = (est.mean - res.total_cost) / est.std_error if est.std_error else 0.0
                    w.writerow([label, K, x0, f"{res.total_cost:.4f}",
                                f"{est.mean:.4f}", f"{est.std_error:.4f}", f"{z:.3f}"])
                    print(f"{label} K={K:g} x0={x0}: DP {res.total_cost:.1f}  "
                          f"MC {est.mean:.1f} +- {est.std_error:.1f}  (z={z:.2f})")
    _write_manifest(out_dir, "simulate", cfg, {"total": time.perf_counter() - t0})
    return 0


def _cmd_settings(args) -> int:
    if args.action != "list":
        raise ConfigError("only 'settings list' is supported")
    print(" id  kind      T    c4     gamma    delta   c2_bar")
    for s in settings.iter_settings():
        print(f"{s.id:3d}  {s.kind:8s}{s.horizon:4d}  {s.c4:5g}  {s.gamma:8g} "
              f"{s.delta:8g}  {s.c2_bar:6g}")
    return 0


# ---------------------------------------------------------------------------

def _add_common(p, config_required=True):
    p.add_argument("--config", required=config_required, help="experiment config JSON")
    p.add_argument("--out", default="out", help="output directory (default ./out)")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--paths", type=int, default=None, help="override Monte Carlo path count")
    p.add_argument("--convention", choices=["paper", "arrival"], default=None,
                   help="lost-sales accounting convention override")
    p.add_argument("--xmax", type=int, default=None, help="inventory cap override")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eolstop",
                                 description="End-of-life inventory optimal stopping toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve configured models; write values/regions/taudist")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("compare", help="percentage cost grid of model_a over model_b")
    _add_common(p)
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="aggregate a comparison over numbered settings")
    _add_common(p)
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--settings", required=True, help="ids like '1-128' or '1,24,125'")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("regions", help="emit per-period stop/order/continue regions")
    _add_common(p)
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("taudist", help="stopping-time distribution of solved policies")
    _add_common(p)
    p.set_defaults(func=_cmd_taudist)

    p = sub.add_parser("bounds", help="switching-time bounds and brute-force argmin")
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("simulate", help="Monte Carlo check of solved policies")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("settings", help="inspect the numbered parameter settings")
    p.add_argument("action", choices=["list"])
    p.set_defaults(func=_cmd_settings)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
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
