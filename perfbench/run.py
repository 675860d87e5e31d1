"""eolstop benchmark: one run of one workload.

    python3 perfbench/run.py --workload sweep384 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; eolstop is imported from ``src/``.
Every run starts fresh child processes one at a time (``child.py``): a few
that only import eolstop and load the config, to time set-up, then one that
repeats passes over the workload for ``--seconds`` and checks their outputs.
``wall_s`` is the wall time of one pass, taken as the sum over its operations
(CLI calls of about a second each) of each one's median time in the run.
Times, ``setup_s`` too, are calibrated against a fixed reference computation
timed next to them (``child.reference_work``), as seconds at the reference
speed ``child.REF_NOMINAL_S``, because the shared hosts this runs on change
speed by up to 2x; the raw times go to the run record.
The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of one traced pass with ``--trace 1``.  A record of the run, with the
machine it ran on, goes to ``perfbench/results/``.

Workloads (all on the base case: convex demand, T=50, total demand 500,
x_max 1200):

* ``sweep384``: ``eolstop sweep D/1/Z D/inf/F`` over settings 1-128, eight
  settings per call: the paper's 384-run grid.  Kernel builds and many small
  dynamic solves; no analytics, no Monte Carlo.
* ``policy_report``: ``eolstop solve`` for each (model, K) report of D/inf/F,
  D/3/F, S/1/Z and T/1/Z, then ``eolstop bounds`` and ``order_up_to_of_tau``
  on three switch times.  The static switch-epoch sweep and policy analytics.
* ``simulate_mc``: ``eolstop simulate`` for each (model, x0) cell of D/inf/F
  and D/1/Z at K=1000, seeded by ``--seed``.  Mostly the exact-accrual Monte
  Carlo.

The DP workloads are deterministic, so their outputs are pinned to
``goldens.json`` (written by ``make_goldens.py``) and to the paper's grid.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
import child  # noqa: E402  (stdlib-only at import)

SETUP_SAMPLES = 4  # set-up-only children per run, plus the workload child
SETUP_REFS = 3  # reference timings between set-up children
DEADLINE_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        # the CLI asks git for a revision: stop the search at the checkout
        GIT_CEILING_DIRECTORIES=str(ROOT.parent),
    )
    return env


def _git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=_child_env(),
                             capture_output=True, text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "eolstop").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _reference_block() -> list[float]:
    return [child.time_reference() for _ in range(SETUP_REFS)]


def _start(cmd: list[str]):
    """Start a child and time it until it reports eolstop imported and the
    config loaded.  Returns (process, set-up seconds or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    return proc, (setup if line.strip() == "ready" else None)


def _finish(proc, timeout: float) -> bool:
    try:
        proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return False
    return proc.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(child.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes: 2 settings, fewer models, 300 paths")
    ap.add_argument("--goldens", type=Path, default=child.GOLDENS)
    args = ap.parse_args(argv)

    if not (SRC / "eolstop" / "__init__.py").is_file():
        print(f"error: no eolstop sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    t_begin = time.perf_counter()
    load_before = os.getloadavg()
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    (HERE / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work"))
    stem = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}"
    try:
        cfg = child.config_for(args.workload, args.seed, args.tiny)
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=1))
        base = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
                "--config", str(cfg_path), "--seed", str(args.seed)]

        # each set-up is calibrated by the reference timed just before and after it
        setups, raw_setups, before = [], [], _reference_block()
        for _ in range(1 if args.tiny else SETUP_SAMPLES):
            proc, setup = _start(base + ["--setup-only"])
            ok = _finish(proc, DEADLINE_S - (time.perf_counter() - t_begin))
            after = _reference_block()
            if setup is not None and ok:
                raw_setups.append(setup)
                setups.append(setup * child.REF_NOMINAL_S / statistics.median(before + after))
            before = after

        res_path = work / "result.json"
        spans_path = results_dir / f"{stem}.spans.csv.gz"
        proc, setup = _start(base + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--goldens", str(args.goldens.resolve()), "--work", str(work),
            "--result", str(res_path), "--spans", str(spans_path),
        ] + (["--tiny"] if args.tiny else []))
        ok = _finish(proc, DEADLINE_S - (time.perf_counter() - t_begin))
        if setup is not None:
            raw_setups.append(setup)
            setups.append(setup * child.REF_NOMINAL_S / statistics.median(before))
        res = json.loads(res_path.read_text()) if ok and res_path.is_file() else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if res is None:
        res = {"attempted": 1, "failures": ["benchmark child failed or timed out"]}
    failed = len(res["failures"])
    attempted = max(res["attempted"], failed, 1)
    correct = failed == 0 and bool(setups)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        metrics = {m["name"]: res.get("layers", {}).get(m["name"]) for m in spec["per_layer"]}
    else:
        wall = res.get("wall_s")
        metrics = {
            "setup_s": statistics.median(setups) if setups else None,
            "wall_s": wall,
            "units_per_s": child.units_of(args.workload, cfg, args.tiny) / wall if wall else None,
            "peak_rss_mb": res.get("peak_rss_mb"),
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "git_revision": _git_revision(), "source_digest": _source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "setup_samples_s": setups, "raw_setup_samples_s": raw_setups,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "metrics": metrics,
        "failures": dict(collections.Counter(res["failures"])),
        **{k: v for k, v in res.items() if k not in ("attempted", "failures", "layers")},
    }
    (results_dir / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for msg, n in collections.Counter(res["failures"]).items():
        print(f"FAILED {msg}" + (f" ({n} times)" if n > 1 else ""))
    for name, value in metrics.items():
        print(f"{name} = {'absent' if value is None else value} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
