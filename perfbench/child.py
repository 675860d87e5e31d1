"""One benchmark run of one workload, inside a fresh process.

``run.py`` starts this script once per run.  It imports eolstop, loads the
workload's config and prints ``ready`` on stdout, so the parent can time
set-up.  It then repeats passes over the workload until its time is up (at
least ``MIN_PASSES`` of them), checks every pass's outputs against
``goldens.json`` and writes a result JSON.

A pass is a list of operations, each one CLI or library call of about a
second, timed on its own.  The shared hosts this runs on change speed by up
to 2x, in bursts of seconds and in phases of tens of seconds, so times are
calibrated: a fixed reference computation (``reference_work``, which no
change to eolstop touches) is timed between operations, and each operation's
time is scaled by ``REF_NOMINAL_S`` over the mean of the reference times just
before and after it.  The run's wall time is the sum over operations of each
one's median calibrated time over the run's passes.

With ``--trace 1`` the last pass runs with every layer function wrapped in a
span timer (see ``Tracer``); the spans are kept in memory and written out
when the run ends.  End-to-end numbers come only from untraced passes.

Only the standard library is imported at module level, so ``run.py`` and
``make_goldens.py`` can import the workload definitions without importing
eolstop.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import functools
import gzip
import hashlib
import importlib
import importlib.util
import io
import json
import math
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import typing
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

_BASE_CONFIG = {
    "schema_version": 1,
    "intensity": {"kind": "convex", "horizon": 50, "total_demand": 500.0},
    "costs": {"c_bar": 100.0, "c1": 1.0, "c2_bar": 200.0, "c3_bar": 200.0,
              "gamma": 0.01, "c4": 25.0, "delta": 0.005},
    "setup_costs": [0.0, 1000.0, 5000.0],
    "x0": [0, 100, 250],
    "models": ["D/1/Z", "D/inf/F"],
    "x_max": 1200,
}

SWEEP_MODELS = ("D/1/Z", "D/inf/F")
REPORT_MODELS = ["D/inf/F", "D/3/F", "S/1/Z", "T/1/Z"]
TAU_GRID = (10.0, 25.0, 40.0)
MC_PATHS = 15_000
Z_BOUND = 4.5  # |MC mean - DP value| / SE allowed per cell
PERCELL_SAMPLE = 16  # sweep settings re-solved per run to check per-cell values
SWEEP_CHUNK = 8  # sweep settings per CLI call
MIN_PASSES = 2  # untraced passes per run, so every operation has a repeat
MC_TARGET_REL_SE = 1e-3
# a typical reference_work() time on the 2-vCPU Xeon virtual machine of
# REPORT.md (Python 3.11, numpy 2.4); calibrated times are seconds at that speed
REF_NOMINAL_S = 0.040

# Paper reference grid for D/1/Z over D/inf/F across the 128 settings:
# (K, x0) -> (max %, max setting, avg %, min %, min setting); None = tied.
PAPER_SWEEP = {
    (0.0, 0): (60.4, 125, 24.7, 9.0, 11),
    (0.0, 100): (73.4, 125, 29.7, 11.2, 11),
    (0.0, 250): (70.5, 62, 32.3, 3.1, 121),
    (1000.0, 0): (31.9, 125, 10.0, 1.6, 11),
    (1000.0, 100): (43.3, 125, 14.2, 2.6, 12),
    (1000.0, 250): (45.3, 62, 17.7, 0.0, None),
    (5000.0, 0): (11.1, 125, 1.9, 0.0, None),
    (5000.0, 100): (22.3, 125, 6.2, 0.0, None),
    (5000.0, 250): (26.9, 109, 10.5, 0.0, None),
}
PAPER_TOL_PP = 0.05


def sweep_ids(tiny: bool) -> list[int]:
    return [1, 2] if tiny else list(range(1, 129))


def config_for(workload: str, seed: int, tiny: bool) -> dict:
    """The eolstop config a workload's CLI calls read."""
    cfg = json.loads(json.dumps(_BASE_CONFIG))
    if workload == "policy_report":
        cfg["models"] = ["D/inf/F", "S/1/Z"] if tiny else REPORT_MODELS
        if tiny:
            cfg["setup_costs"] = [1000.0]
    elif workload == "simulate_mc":
        cfg["models"] = ["D/inf/F", "D/1/Z"]
        cfg["setup_costs"] = [1000.0]
        cfg["paths"] = 300 if tiny else MC_PATHS
        cfg["seed"] = seed
    return cfg


def units_of(workload: str, cfg: dict, tiny: bool) -> int:
    """Work units one pass completes: settings, (model, K) reports or paths."""
    if workload == "sweep384":
        return len(sweep_ids(tiny))
    if workload == "policy_report":
        return len(cfg["models"]) * len(cfg["setup_costs"])
    return len(cfg["models"]) * len(cfg["setup_costs"]) * len(cfg["x0"]) * cfg["paths"]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _spec_family(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return "solver.solve." + spec.stop_mode.value


def _cells(kt) -> int:
    return kt.horizon * (kt.x_max + 1)


def _states(res) -> int:
    pol = res.policy
    return (pol.horizon + 1) * (pol.x_max + 1) * pol.spec.layers


def _paths(est) -> int:
    return est.paths


# (metric prefix, module, attribute, span namer, (work count, its size per result))
LAYERS = [
    ("kernels.build_kernel_table", "eolstop.kernels", "build_kernel_table", None,
     ("kernels.cells", _cells)),
    ("solver.solve", "eolstop.solver", "solve", _spec_family, ("solver.states", _states)),
    ("solver.static_switch_values", "eolstop.solver", "static_switch_values", None, None),
    ("backends.ev_clamped", "eolstop._backends", "ev_clamped", None, None),
    ("backends.suffix_min", "eolstop._backends", "suffix_min", None, None),
    ("backends.sim_period", "eolstop._backends", "sim_period", None, None),
    ("analytics.stopping_time_distribution", "eolstop.analytics",
     "stopping_time_distribution", None, None),
    ("analytics.order_up_to_of_tau", "eolstop.analytics", "order_up_to_of_tau", None, None),
    ("analytics.switch_cost_curve", "eolstop.analytics", "switch_cost_curve", None, None),
    ("analytics.switch_time_bounds", "eolstop.analytics", "switch_time_bounds", None, None),
    ("sim.evaluate_policy", "eolstop.sim", "evaluate_policy", None, ("sim.paths", _paths)),
]
SPAN_GROUPS = ([name for name, *_ in LAYERS]
               + ["solver.solve.D", "solver.solve.S", "solver.solve.T", "cli", "bench"])
WORK_COUNTS = {counter[0]: name for name, *_, counter in LAYERS if counter}


class Tracer:
    """Span timer.  Each span is ``[name, parent index, start, end]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.bindings: dict[str, int] = {}
        self.absent: list[str] = []
        self.uncountable: set[str] = set()  # work counts whose result lost the fields read
        self._stack = [-1]

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, self._stack[-1], 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, namer=None, counter=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        uncountable = self.uncountable

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [namer(args, kwargs) if namer else name, stack[-1], 0.0, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counter:
                key, size = counter
                try:
                    counts[key] += size(result)
                except AttributeError:
                    uncountable.add(key)
            return result

        return traced

    def install(self):
        """Wrap every layer function at every eolstop module that binds it.

        ``cli`` and ``config`` bind some of them by ``from ... import``;
        ``solver``, ``analytics`` and ``sim`` reach ``_backends`` by
        attribute.  Replacing each binding of the same function object covers
        both.  A layer function that no longer exists is recorded as absent.
        """
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "eolstop" or n.startswith("eolstop."))]
        for name, modname, attr, namer, counter in LAYERS:
            try:
                orig = getattr(importlib.import_module(modname), attr, None)
            except ModuleNotFoundError:
                orig = None
            if orig is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, orig, namer, counter)
            n = 0
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        n += 1
            self.bindings[name] = n

    def summary(self) -> dict:
        """calls, busy and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for (name, _, t0, t1), c in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - c
        fam = [out[k] for k in ("solver.solve.D", "solver.solve.S", "solver.solve.T") if k in out]
        if fam:
            out["solver.solve"] = {k: sum(f[k] for f in fam) for k in ("calls", "busy_s", "self_s")}
        return out

    def write(self, path: Path):
        """Spans as gzipped CSV: name, parent index, start and end in seconds
        from the first span."""
        t_ref = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "parent", "start_s", "end_s"])
            for name, parent, t0, t1 in self.spans:
                w.writerow([name, parent, f"{t0 - t_ref:.9f}", f"{t1 - t_ref:.9f}"])


def layer_metrics(tr: Tracer, traced_wall: float, traced_cal: float, untraced_cal: float,
                  mc: dict) -> dict:
    """Per-layer metrics of one traced pass; None marks an absent layer.

    ``traced_wall`` is the traced pass's raw wall time, which its spans add up
    to; the tracing overhead compares calibrated times (see ``one_pass``)."""
    summ = tr.summary()
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    m = {}
    for group in SPAN_GROUPS:
        if group == "bench":
            continue
        agg = summ.get(group, zero)
        gone = group in tr.absent or group.rsplit(".", 1)[0] in tr.absent
        for key in ("calls", "busy_s", "self_s"):
            m[f"{group}.{key}"] = None if gone else agg[key]
    for key, owner in WORK_COUNTS.items():
        m[key] = None if owner in tr.absent or key in tr.uncountable else tr.counts[key]
    m["bench.self_s"] = summ.get("bench", zero)["self_s"]
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_cal
    m["trace.overhead_s"] = traced_cal - untraced_cal
    m["trace.spans"] = len(tr.spans)
    m["sim.rel_se"] = mc.get("rel_se", 0.0)
    m["sim.time_to_target_s"] = mc.get("time_to_target_s", 0.0)
    return m


# ---------------------------------------------------------------------------
# workloads: a plan per workload lists one pass's operations, each a CLI or
# library call timed on its own, and the checks of what the pass wrote
# ---------------------------------------------------------------------------

class Pass:
    """Runs one pass's operations and records failures."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.done: set[str] = set()  # operations that completed
        self.results: dict = {}  # library return values, for the checks
        self.mc: dict = {}  # Monte Carlo precision, from simulate_mc's checks

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def cli(self, argv: list[str]) -> bool:
        import eolstop.cli

        self.attempted += 1
        try:
            with self.span("cli"), contextlib.redirect_stdout(io.StringIO()):
                rc = eolstop.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            self.failures.append(f"{argv[0]}: {type(exc).__name__}: {exc}")
            return False
        if rc != 0:
            self.failures.append(f"{argv[0]}: exit code {rc}")
            return False
        return True

    def call(self, label: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check(self, label: str, problems: list[str]):
        """Output checks of one operation; any problem fails that operation."""
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems[:5])
                                 + (f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""))


class Plan(typing.NamedTuple):
    """One pass of a workload: operations ``(label, fn(pass, out_dir) -> ok)``
    run in order, then ``check(pass, out_dir)`` on what they wrote."""

    ops: list
    check: typing.Callable


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def cell_key(*parts) -> str:
    return "|".join(str(p) for p in parts)


def _write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=1))
    return path


def _tag(model: str) -> str:
    return model.replace("/", "")


def _extreme_ok(vals: dict, reported: int, pick) -> bool:
    """The reported setting attains the extreme, up to ties within 1e-6 pp."""
    best = pick(vals.values())
    return reported in vals and abs(vals[reported] - best) <= 1e-6


def sweep_chunks(tiny: bool) -> list[list[int]]:
    ids = sweep_ids(tiny)
    return [ids[i:i + SWEEP_CHUNK] for i in range(0, len(ids), SWEEP_CHUNK)]


SWEEP_CSV = f"sweep_{_tag(SWEEP_MODELS[0])}_vs_{_tag(SWEEP_MODELS[1])}.csv"


def check_sweep_csvs(parts, cfg: dict, golden_pct: dict, paper: bool) -> list[str]:
    """Check each chunk's aggregates against the goldens, then, combined over
    all chunks, against the paper's grid.  ``parts`` holds (ids, csv path)."""
    problems = []
    combined = collections.defaultdict(list)  # (K, x0) -> [(n, max, max set, min, min set, avg)]
    for ids, path in parts:
        where = f"settings {ids[0]}-{ids[-1]}"
        if not path.is_file():
            problems.append(f"{where}: no sweep CSV written")
            continue
        rows = {(float(r["K"]), int(r["x0"])): r for r in _read_rows(path)}
        for K in cfg["setup_costs"]:
            for x0 in cfg["x0"]:
                r = rows.get((float(K), int(x0)))
                if r is None:
                    problems.append(f"{where}: missing row K={K} x0={x0}")
                    continue
                mx, mn, avg = float(r["max_pct"]), float(r["min_pct"]), float(r["avg_pct"])
                mx_set, mn_set = int(r["max_setting"]), int(r["min_setting"])
                vals = {sid: golden_pct[cell_key(sid, float(K), x0)] for sid in ids}
                want = (max(vals.values()), min(vals.values()), statistics.fmean(vals.values()))
                if not all(math.isclose(a, b, abs_tol=1e-4) for a, b in zip((mx, mn, avg), want)):
                    problems.append(f"{where} K={K} x0={x0}: aggregates differ from golden")
                if not (_extreme_ok(vals, mx_set, max) and _extreme_ok(vals, mn_set, min)):
                    problems.append(
                        f"{where} K={K} x0={x0}: extreme settings {mx_set}/{mn_set} differ")
                combined[(float(K), int(x0))].append((len(ids), mx, mx_set, mn, mn_set, avg))
    if paper and not problems:
        for (K, x0), chunks in combined.items():
            n = sum(c[0] for c in chunks)
            _, mx, mx_set, *_ = max(chunks, key=lambda c: c[1])
            _, _, _, mn, mn_set, _ = min(chunks, key=lambda c: c[3])
            avg = sum(c[0] * c[5] for c in chunks) / n
            ref = PAPER_SWEEP[(K, x0)]
            if not (abs(mx - ref[0]) <= PAPER_TOL_PP and abs(avg - ref[2]) <= PAPER_TOL_PP
                    and abs(mn - ref[3]) <= PAPER_TOL_PP):
                problems.append(f"K={K} x0={x0}: off the paper grid by more than 0.05pp")
            if mx_set != ref[1] or (ref[4] is not None and mn_set != ref[4]):
                problems.append(f"K={K} x0={x0}: extreme settings differ from the paper")
    return problems


def sweep_cell_pcts(cfg: dict, ids) -> dict:
    """Per-cell % increase of D/1/Z over D/inf/F through the library."""
    from eolstop import LostSalesConvention, ModelSpec, build_kernel_table, kernels_with_K, solve
    from eolstop import settings

    conv = LostSalesConvention.parse(cfg.get("convention", "arrival"))
    a, b = (ModelSpec.parse(m) for m in SWEEP_MODELS)
    out = {}
    for sid in ids:
        s = settings.setting_from_id(sid)
        base = build_kernel_table(settings.setting_cost_params(s, cfg["setup_costs"][0]),
                                  settings.setting_intensity(s), conv, x_max=cfg["x_max"])
        for K in cfg["setup_costs"]:
            kt = kernels_with_K(base, K)
            va = solve(a, kt, max(cfg["x0"])).values_at_zero
            vb = solve(b, kt, max(cfg["x0"])).values_at_zero
            for x0 in cfg["x0"]:
                out[cell_key(sid, float(K), x0)] = float(100.0 * (va[x0] - vb[x0]) / vb[x0])
    return out


def plan_sweep(cfg_path: Path, cfg: dict, golden: dict, tiny: bool, work: Path) -> Plan:
    """``eolstop sweep`` over the settings, SWEEP_CHUNK settings per call."""
    chunks = sweep_chunks(tiny)

    def op(ids):
        return lambda p, out: p.cli(["sweep", "--config", str(cfg_path),
                                     "--out", str(out / f"sweep{ids[0]}"),
                                     "--settings", f"{ids[0]}-{ids[-1]}", *SWEEP_MODELS])

    def check(p: Pass, out: Path):
        if all(f"sweep {c[0]}-{c[-1]}" in p.done for c in chunks):
            p.check("sweep", check_sweep_csvs([(c, out / f"sweep{c[0]}" / SWEEP_CSV)
                                               for c in chunks], cfg, golden["pct"],
                                              paper=not tiny))

    return Plan([(f"sweep {c[0]}-{c[-1]}", op(c)) for c in chunks], check)


def check_percell_sample(p: Pass, cfg: dict, golden: dict, seed: int, tiny: bool):
    """Re-solve a seeded sample of sweep settings and compare every cell."""
    ids = sweep_ids(tiny)
    sample = sorted(random.Random(seed).sample(ids, min(PERCELL_SAMPLE, len(ids))))
    got = p.call("percell", sweep_cell_pcts, cfg, sample)
    if got is not None:
        ref = golden["pct"]
        p.check("percell", [f"cell {k}: {v!r} != golden {ref.get(k)!r}" for k, v in got.items()
                            if k not in ref
                            or not math.isclose(v, ref[k], rel_tol=1e-9, abs_tol=1e-9)])


def policy_outputs(dirs) -> dict:
    """What the policy_report solve calls wrote, merged over their output
    directories, in the form goldens store."""
    values, regions, taudist = {}, {}, {}
    for out in dirs:
        values.update({cell_key(r["model"], float(r["K"]), int(r["x0"])): float(r["total_cost"])
                       for r in _read_rows(out / "values.csv")})
        regions.update({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.glob("regions_*.csv"))})
        taudist.update({p.name: [float(r["mass"]) for r in _read_rows(p)]
                        for p in sorted(out.glob("taudist_*.csv"))})
    return {"values": values, "regions_sha256": regions, "taudist": taudist}


def check_policy(obs: dict, golden: dict, cfg: dict) -> list[str]:
    problems = []
    tags = [(m, _tag(m), K) for m in cfg["models"] for K in cfg["setup_costs"]]
    want_values = {cell_key(m, float(K), x0) for m, _, K in tags for x0 in cfg["x0"]}
    want_regions = {f"regions_{t}_K{K:g}.csv" for _, t, K in tags}
    want_tau = {f"taudist_{t}_K{K:g}_x{x0}.csv" for m, t, K in tags if m.startswith("D")
                for x0 in cfg["x0"]}
    if set(obs["values"]) != want_values:
        problems.append("values.csv rows differ from the config grid")
    if set(obs["regions_sha256"]) != want_regions or set(obs["taudist"]) != want_tau:
        problems.append("regions/taudist file set differs from the config grid")
    for k, v in obs["values"].items():
        if k not in golden["values"] or not math.isclose(v, golden["values"][k], rel_tol=1e-12):
            problems.append(f"value {k}: {v!r} != golden {golden['values'].get(k)!r}")
    for name, h in obs["regions_sha256"].items():
        if golden["regions_sha256"].get(name) != h:
            problems.append(f"{name}: content hash differs from golden")
    for name, mass in obs["taudist"].items():
        ref = golden["taudist"].get(name)
        if abs(math.fsum(mass) - 1.0) > 1e-9:
            problems.append(f"{name}: mass sums to {math.fsum(mass)!r}")
        if ref is None or len(ref) != len(mass) or not all(
                math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12) for a, b in zip(mass, ref)):
            problems.append(f"{name}: mass differs from golden")
    return problems


def check_bounds(out: Path, cfg: dict) -> list[str]:
    rows = _read_rows(out / "bounds.csv")
    problems = [] if len(rows) == len(cfg["x0"]) else ["bounds.csv rows differ from x0 grid"]
    for r in rows:
        if not float(r["tau_lb"]) <= float(r["tau_argmin"]) <= float(r["tau_ub"]):
            problems.append(f"x={r['x']}: lb <= argmin <= ub fails")
    return problems


def plan_policy_report(cfg_path: Path, cfg: dict, golden: dict, tiny: bool, work: Path) -> Plan:
    """``eolstop solve`` once per (model, K) report, ``eolstop bounds``, then
    ``order_up_to_of_tau`` on the switch-time grid."""
    import eolstop

    reports = [(m, K) for m in cfg["models"] for K in cfg["setup_costs"]]
    solve_dirs = [f"solve_{_tag(m)}_K{K:g}" for m, K in reports]
    configs = [_write_config(work / f"{d}.json", dict(cfg, models=[m], setup_costs=[K]))
               for d, (m, K) in zip(solve_dirs, reports)]
    ec = eolstop.ExperimentConfig.from_json(cfg_path)
    params, model = ec.build_params(ec.setup_costs[0]), ec.build_model()
    taus = TAU_GRID[1:2] if tiny else TAU_GRID

    def solve_op(path, d):
        return lambda p, out: p.cli(["solve", "--config", str(path), "--out", str(out / d)])

    def tau_op(tau):
        def run(p, out):
            p.results[tau] = p.call(f"order_up_to_of_tau({tau})",
                                    eolstop.analytics.order_up_to_of_tau, params, model, tau)
            return p.results[tau] is not None
        return run

    solves = [f"solve {m} K={K:g}" for m, K in reports]
    ops = [(label, solve_op(path, d)) for label, path, d in zip(solves, configs, solve_dirs)]
    ops.append(("bounds", lambda p, out: p.cli(["bounds", "--config", str(cfg_path),
                                                "--out", str(out / "bounds")])))
    ops += [(f"order_up_to_of_tau({tau})", tau_op(tau)) for tau in taus]

    def check(p: Pass, out: Path):
        if all(label in p.done for label in solves):
            p.check("solve", check_policy(policy_outputs(out / d for d in solve_dirs),
                                          golden, cfg))
        if "bounds" in p.done:
            p.check("bounds", check_bounds(out / "bounds", cfg))
        for tau in taus:
            if p.results.get(tau) is not None:
                ref = golden["order_up_to"].get(str(tau))
                x = p.results[tau]
                p.check(f"order_up_to_of_tau({tau})", [] if x == ref else [f"{x} != golden {ref}"])

    return Plan(ops, check)


def simulate_cells(dirs) -> list[dict]:
    return [r for out in dirs for r in _read_rows(out / "simulate.csv")]


def check_simulate(rows: list[dict], golden: dict, cfg: dict) -> tuple[list[str], dict]:
    problems, rel = [], []
    want = {cell_key(m, float(K), x0) for m in cfg["models"] for K in cfg["setup_costs"]
            for x0 in cfg["x0"]}
    got = {cell_key(r["model"], float(r["K"]), int(r["x0"])): r for r in rows}
    if set(got) != want or len(rows) != len(want):
        problems.append("simulate.csv rows differ from the config grid")
    for k, r in got.items():
        dp, se, z = float(r["dp_value"]), float(r["mc_se"]), float(r["z"])
        ref = golden["dp_value"].get(k)
        if ref is None or not math.isclose(dp, ref, rel_tol=1e-12, abs_tol=1.5e-4):
            problems.append(f"{k}: dp_value {dp!r} != golden {ref!r}")
        if not abs(z) <= Z_BOUND:
            problems.append(f"{k}: |z| = {abs(z):.2f} > {Z_BOUND}")
        rel.append(se / abs(dp))
    return problems, {"rel_se": statistics.fmean(rel) if rel else 0.0}


def plan_simulate_mc(cfg_path: Path, cfg: dict, golden: dict, tiny: bool, work: Path) -> Plan:
    """``eolstop simulate`` once per (model, x0) cell; every cell draws its
    paths from the config seed, as in a single call over the grid."""
    cells = [(m, x0) for m in cfg["models"] for x0 in cfg["x0"]]
    dirs = [f"simulate_{_tag(m)}_x{x0}" for m, x0 in cells]
    configs = [_write_config(work / f"{d}.json", dict(cfg, models=[m], x0=[x0]))
               for d, (m, x0) in zip(dirs, cells)]

    def op(path, d):
        return lambda p, out: p.cli(["simulate", "--config", str(path), "--out", str(out / d)])

    ops = [(f"simulate {m} x0={x0}", op(path, d)) for (m, x0), path, d in zip(cells, configs, dirs)]

    def check(p: Pass, out: Path):
        if all(op in p.done for op, _ in ops):
            problems, p.mc = check_simulate(simulate_cells(out / d for d in dirs), golden, cfg)
            p.check("simulate", problems)

    return Plan(ops, check)


WORKLOADS = {
    "sweep384": plan_sweep,
    "policy_report": plan_policy_report,
    "simulate_mc": plan_simulate_mc,
}


def reference_work() -> float:
    """A fixed computation that measures the host's current speed and that no
    change to eolstop touches (it uses numpy and the standard library only).
    Its three parts, of about 20 ms each, slow down with different kinds of
    contention, as eolstop's work does: Bellman steps on a 1201-state value
    vector (small numpy calls), passes over an 8 MB array (memory bandwidth),
    and dict, string and CSV work (the interpreter)."""
    import numpy as np

    rng = np.random.default_rng(20210122)
    n = 1201
    V = rng.random(n)
    pmf = rng.random(41)
    pmf /= pmf.sum()
    tail = 1.0 - np.cumsum(pmf)
    idx = np.minimum(np.arange(n), len(pmf) - 1)
    acc = 0.0
    for _ in range(480):
        ev = np.convolve(V, pmf)[:n] + V[0] * tail[idx]
        acc += float(np.minimum.accumulate(ev[::-1])[-1])
        V = ev / ev[-1]

    a = rng.random(1_000_000)
    for _ in range(2):
        np.cumsum(a, out=a)
        a /= a[-1]
        acc += float(np.sort(a[::5])[1])

    d: dict = {}
    for i in range(25_000):
        d[i % 977] = d.get(i % 977, 0) + len(str(i))
    buf = io.StringIO()
    csv.writer(buf).writerows((i, i * 0.5, f"{i:x}") for i in range(4_000))
    return acc + len(d) + len(buf.getvalue())


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def one_pass(plan: Plan, work_dir: Path, tracer=None) -> tuple[dict, dict, Pass]:
    """Run, time and check one pass in a fresh output directory.  Returns the
    calibrated seconds of each operation, and the raw seconds of each
    operation and of the reference timings around them."""
    p = Pass(tracer)
    out = Path(tempfile.mkdtemp(prefix="out-", dir=work_dir))
    times, refs = {}, [time_reference()]
    try:
        for label, op in plan.ops:
            t0 = time.perf_counter()
            with p.span("bench"):
                ok = op(p, out)
            times[label] = time.perf_counter() - t0
            refs.append(time_reference())
            if ok:
                p.done.add(label)
        try:
            plan.check(p, out)  # untimed
        except Exception as exc:  # unreadable output fails the pass, not the run
            p.failures.append(f"checks: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    # each operation at the host speed the reference read just before and after it
    cal = {label: t * REF_NOMINAL_S * 2.0 / (refs[i] + refs[i + 1])
           for i, (label, t) in enumerate(times.items())}
    return cal, {"ops": times, "refs": refs}, p


# ---------------------------------------------------------------------------

def machine_info() -> dict:
    import numpy
    import scipy

    import eolstop

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "active_backend": eolstop.active_backend(),
        "eolstop_file": eolstop.__file__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True, type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--goldens", type=Path, default=GOLDENS)
    ap.add_argument("--work", type=Path, help="directory for configs and CLI outputs")
    ap.add_argument("--result", type=Path, help="where to write the result JSON")
    ap.add_argument("--spans", type=Path, help="where to write the traced spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import eolstop
    import eolstop.cli  # noqa: F401  (the CLI imports every layer)

    eolstop.ExperimentConfig.from_json(args.config)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    cfg = json.loads(args.config.read_text())
    golden = json.loads(args.goldens.read_text())[args.workload]
    plan = WORKLOADS[args.workload](args.config, cfg, golden, args.tiny, args.work)
    attempted, failures, passes, raws, mc = 0, [], [], [], {}
    t_start = time.perf_counter()
    while True:  # untraced passes; a traced run keeps room for one traced pass
        times, raw, p = one_pass(plan, args.work)
        passes.append(times)
        raws.append(raw)
        attempted, failures, mc = attempted + p.attempted, failures + p.failures, p.mc or mc
        spent, pass_s = time.perf_counter() - t_start, sum(raw["ops"].values()) + sum(raw["refs"])
        if (len(passes) >= (1 if args.trace else MIN_PASSES)
                and spent + pass_s * (2.1 if args.trace else 1.0) > args.seconds):
            break

    if args.workload == "sweep384":
        p = Pass(None)
        check_percell_sample(p, cfg, golden, args.seed, args.tiny)
        attempted, failures = attempted + p.attempted, failures + p.failures

    # each operation's median calibrated time, summed: one pass at the
    # reference speed
    op_median = {label: statistics.median(t[label] for t in passes) for label in passes[0]}
    wall = sum(op_median.values())
    if mc:
        mc["time_to_target_s"] = wall * (mc["rel_se"] / MC_TARGET_REL_SE) ** 2
    result = {"wall_s": wall, "op_median_s": op_median,
              "raw_pass_walls_s": [sum(r["ops"].values()) for r in raws],
              "calibrated_pass_walls_s": [sum(t.values()) for t in passes],
              "raw_passes": raws, "machine": machine_info()}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        times, raw, p = one_pass(plan, args.work, tracer)
        attempted, failures = attempted + p.attempted, failures + p.failures
        result["layers"] = layer_metrics(tracer, sum(raw["ops"].values()), sum(times.values()),
                                         wall, mc)
        result["bindings"] = tracer.bindings
        result["absent"] = tracer.absent
        if args.spans:
            tracer.write(args.spans)
    result.update(attempted=attempted, failures=failures, mc=mc,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
