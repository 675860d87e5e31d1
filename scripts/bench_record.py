"""Write BENCH_<PR>.json from the perfbench run records of two checkouts.

    python3 scripts/bench_record.py --parent ../parent --change . --pr 24

``--parent`` and ``--change`` are source checkouts in which
``python3 perfbench/run.py --trace 0`` has run; their run records are read
from ``<checkout>/perfbench/results/*.json``.  Only full-size untraced
records count (``tiny`` and ``--trace 1`` runs are skipped).  Runs of one
workload pair up by seed, so run both sides with the same seeds and the same
``--seconds``, alternating which side runs first; a seed only one side ran
is left out.  The script exits 2 when no seed pairs, when a side's paired
records come from more than one revision (stale records of an earlier
commit), or when one workload's paired runs differ in ``--seconds``.

The file records the machine (``nproc`` and the Python, numpy and scipy
versions of each side's records), each side's revision and, per workload and
end-to-end metric of ``BENCHMARK.json``: each side's median and quartiles
over the paired runs, how many pairs the change wins (strictly better in
the metric's direction) and a label, against the metric's ``bound``:

* ``regressed``: the change's median is worse than the parent's by more
  than the bound, relative to the parent's median;
* ``unresolved``: the parent's interquartile range is wider than the bound,
  relative to its median, and not every change run beats every parent run;
* ``ok``: otherwise.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_records(checkout: Path) -> list[dict]:
    """The full-size untraced run records under ``checkout``."""
    records = []
    for path in sorted((checkout / "perfbench" / "results").glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0 and not rec.get("tiny"):
            records.append(rec)
    return records


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def machine(records: list[dict]) -> dict:
    """Each distinct machine description among ``records``."""
    seen = []
    for rec in records:
        m = {"nproc": rec.get("nproc"),
             **{k: rec.get("machine", {}).get(k) for k in ("python", "numpy", "scipy")}}
        if m not in seen:
            seen.append(m)
    return seen[0] if len(seen) == 1 else {"mixed": seen}


def pair(parent: list[dict], change: list[dict]) -> dict:
    """Per workload, the parent's and the change's records of the seeds both
    sides ran, in seed order; records of a seed only one side ran are left
    out."""
    out = {}
    for workload in sorted({r["workload"] for r in parent + change}):
        by_seed = [{r["seed"]: r for r in side if r["workload"] == workload}
                   for side in (parent, change)]
        seeds = sorted(set(by_seed[0]) & set(by_seed[1]))
        if seeds:
            out[workload] = tuple([side[s] for s in seeds] for side in by_seed)
    return out


def mismatch(pairs: dict) -> str | None:
    """Why the paired records cannot be compared, or None: a side's records
    come from more than one revision, or one workload's runs did not all
    run for the same ``--seconds``."""
    for i, side in enumerate(("parent", "change")):
        revisions = {str(r.get("git_revision")) for recs in pairs.values() for r in recs[i]}
        if len(revisions) > 1:
            return f"the {side}'s paired records come from revisions {sorted(revisions)}"
    for workload, recs in pairs.items():
        seconds = {r.get("seconds") for side in recs for r in side}
        if len(seconds) > 1:
            return f"the {workload} runs ran for different --seconds: {sorted(map(str, seconds))}"
    return None


def label(metric: dict, parent: list[float], change: list[float]) -> str:
    """``regressed``, ``unresolved`` or ``ok`` for one metric's paired runs;
    see the module docstring."""
    sign = 1.0 if metric["better"] == "lower" else -1.0  # sign * (c - p) < 0: c is better
    p_sum, bound = summary(parent), metric["bound"]
    if sign * (statistics.median(change) / p_sum["median"] - 1.0) > bound:
        return "regressed"
    all_beat = all(sign * (c - p) < 0 for c in change for p in parent)
    if (p_sum["q3"] - p_sum["q1"]) / p_sum["median"] > bound and not all_beat:
        return "unresolved"
    return "ok"


def compare(pairs: dict, metrics: list[dict]) -> dict:
    """Per workload and metric, over the seed pairs that both report it: both
    sides' summaries, the change's median relative to the parent's, the
    change's wins and the label."""
    out = {}
    for workload, (parent, change) in pairs.items():
        rows = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            both = [(p["metrics"].get(name), c["metrics"].get(name))
                    for p, c in zip(parent, change)]
            both = [(p, c) for p, c in both if p is not None and c is not None]
            if not both:
                continue
            wins = sum((c < p) if lower else (c > p) for p, c in both)
            p_sum, c_sum = summary([p for p, _ in both]), summary([c for _, c in both])
            rows[name] = {"unit": metric["unit"], "better": metric["better"],
                          "parent": p_sum, "change": c_sum,
                          "median_change": c_sum["median"] / p_sum["median"] - 1.0,
                          "wins": wins, "pairs": len(both),
                          "label": label(metric, [p for p, _ in both], [c for _, c in both])}
        out[workload] = {"seeds": [r["seed"] for r in parent], "seconds": parent[0].get("seconds"),
                         "metrics": rows,
                         "failed": [sum(r["failed"] for r in side) for side in (parent, change)]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent source checkout")
    ap.add_argument("--change", type=Path, required=True, help="change source checkout")
    ap.add_argument("--pr", required=True, help="number in the output name BENCH_<PR>.json")
    ap.add_argument("--out", type=Path, default=None, help="output path (default ./BENCH_<PR>.json)")
    args = ap.parse_args(argv)

    pairs = pair(load_records(args.parent), load_records(args.change))
    error = mismatch(pairs) if pairs else (
        f"no seed-paired untraced full-size run records under {args.parent} and {args.change}")
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = [[r for recs in pairs.values() for r in recs[i]] for i in (0, 1)]
    bench = {
        "pr": args.pr,
        "machine": {"parent": machine(sides[0]), "change": machine(sides[1])},
        "revisions": {"parent": sides[0][0].get("git_revision"),
                      "change": sides[1][0].get("git_revision")},
        "workloads": compare(pairs, metrics),
    }
    out = args.out or Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    for workload, row in bench["workloads"].items():
        for name, m in row["metrics"].items():
            print(f"{workload} {name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
                  f"{m['unit']} ({100 * m['median_change']:+.1f}%), "
                  f"change better in {m['wins']} of {m['pairs']} pairs: {m['label']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
