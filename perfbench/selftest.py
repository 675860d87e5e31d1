"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

* Every workload runs once untraced and once traced; each run must pass its
  output checks and emit exactly the metrics ``BENCHMARK.json`` names.
* With one golden value corrupted, each workload must report a failed
  operation instead of passing.
* Without the program's sources next to it, the benchmark must exit non-zero
  and print no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# one golden value per workload, and how to corrupt it
CORRUPT = {
    "sweep384": ("pct", "1|0.0|0", lambda v: v + 0.5),
    "policy_report": ("values", "D/inf/F|1000.0|100", lambda v: v * (1 + 1e-9)),
    "simulate_mc": ("dp_value", "D/1/Z|1000.0|100", lambda v: v + 1.0),
}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1",
                           "--tiny", *args], cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    failures = []

    def expect(ok: bool, what: str):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in CORRUPT:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            rc, out = bench("--workload", w, "--trace", str(trace))
            res = result(out)
            names = [m["name"] for m in SPEC[kind]]
            expect(rc == 0 and res["correct"] and res["failed"] == 0,
                   f"{w} trace={trace}: runs and passes its checks")
            expect(list(res["metrics"]) == names
                   and all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                   f"{w} trace={trace}: emits every {kind} metric")

    (HERE / "work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "work"))
    try:
        goldens = json.loads((HERE / "goldens.json").read_text())
        for w, (table, key, bad) in CORRUPT.items():
            corrupted = json.loads(json.dumps(goldens))
            corrupted[w][table][key] = bad(corrupted[w][table][key])
            path = scratch / f"goldens-{w}.json"
            path.write_text(json.dumps(corrupted))
            rc, out = bench("--workload", w, "--trace", "0", "--goldens", str(path))
            res = result(out)
            expect(rc == 0 and not res["correct"] and res["failed"] > 0,
                   f"{w}: a corrupted golden is reported as a failure")

        bare = scratch / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, out = bench("--workload", "sweep384", "--trace", "0", cwd=bare)
        expect(rc != 0 and not out.strip(), "without sources: non-zero exit and no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
