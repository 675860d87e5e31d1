"""Write ``goldens.json``: the outputs every benchmark run is checked against.

    python3 perfbench/make_goldens.py

Run it only when the program's outputs change on purpose; the goldens in the
repository were written by this script from the code they pin.  It refuses
to write if the sweep does not reproduce the paper's grid.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
import child  # noqa: E402


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="goldens-", dir=HERE))
    try:
        cfgs = {w: child.config_for(w, seed=1, tiny=False) for w in child.WORKLOADS}
        cfgs["simulate_mc"]["paths"] = 1000  # the DP values do not depend on it
        pct = child.sweep_cell_pcts(cfgs["sweep384"], child.sweep_ids(False))
        goldens = {"sweep384": {"pct": pct}, "policy_report": {}, "simulate_mc": {}}

        # run one pass of every workload and keep what it wrote
        for w, cfg in cfgs.items():
            path = work / f"{w}.json"
            path.write_text(json.dumps(cfg))
            out = work / f"out-{w}"
            out.mkdir()
            plan = child.WORKLOADS[w](path, cfg, goldens[w], False, work)
            p = child.Pass(None)
            for _, op in plan.ops:
                op(p, out)
            if p.failures:
                raise SystemExit(f"{w} failed: {p.failures}")
            if w == "sweep384":
                parts = [(c, out / f"sweep{c[0]}" / child.SWEEP_CSV)
                         for c in child.sweep_chunks(False)]
                problems = child.check_sweep_csvs(parts, cfg, pct, paper=True)
                if problems:
                    raise SystemExit(f"sweep does not reproduce the paper grid: {problems}")
            elif w == "policy_report":
                goldens[w].update(child.policy_outputs(sorted(out.glob("solve_*"))))
                goldens[w]["order_up_to"] = {str(tau): p.results[tau] for tau in child.TAU_GRID}
            else:
                goldens[w]["dp_value"] = {
                    child.cell_key(r["model"], float(r["K"]), int(r["x0"])): float(r["dp_value"])
                    for r in child.simulate_cells(sorted(out.glob("simulate_*")))}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    child.GOLDENS.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n")
    print(f"wrote {child.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
