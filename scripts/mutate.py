"""Mutation check of the numeric core: does some test fail on each mutant?

    python3 scripts/mutate.py            # every mutant of the catalogue
    python3 scripts/mutate.py tie-rule   # only the named ones

Each entry of ``CATALOGUE`` names one source mutation: a file, a text that
occurs in it exactly once, its replacement, and the test files that cover
the code.  For each entry the script copies ``src/``, ``tests/``,
``scripts/`` and ``pyproject.toml`` to a temporary directory, applies the
mutation there and runs pytest on the entry's test files, stopping at the
first failure.  A mutant is ``killed`` when pytest fails and ``survived``
when it passes.  Before the mutants, each distinct set of test files runs
once on an unmutated copy; if one of those runs fails, the script exits 2,
since a kill would then mean nothing.  The repository itself is never
written.

It prints one Markdown table row per mutant with the seconds its run took,
and exits 1 when a mutant survives.  A survivor means a missing test, or
code that changes nothing and can go.  Standard library only; the tests
need the project's own test dependencies.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "pyproject.toml")
SIM = "src/eolstop/sim.py"
LAW = "src/eolstop/analytics.py"
SOLVER = "src/eolstop/solver.py"
CLI = "src/eolstop/cli.py"
FORWARD_TESTS = ("tests/test_sim.py", "tests/test_analytics.py")
SOLVER_TESTS = ("tests/test_solver.py", "tests/test_analytics.py")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple


CATALOGUE = [
    Mutant("budget-offset", SIM,
           "base[:, :S] -= W * order", "base[:, :S] -= 0 * order", FORWARD_TESTS),
    Mutant("stop-post", SIM,
           "np.copyto(post[:, :S], -1, where=stop)", "np.copyto(post[:, :S], 0, where=stop)",
           FORWARD_TESTS),
    Mutant("bad-flag", SIM,
           "bad = order & ((tgt <= x)", "bad = order & ((tgt < x)", FORWARD_TESTS),
    Mutant("no-order-left", SIM,
           "(base[:, :S] < 0))", "(base[:, :S] < -W))", FORWARD_TESTS),
    Mutant("law-base", LAW,
           "np.bincount((rows + (base + post))", "np.bincount((rows + (post))",
           ("tests/test_analytics.py",)),
    Mutant("law-start", LAW,
           "policy.z0 * W + np.asarray(x0s", "policy.z0 * (W - 1) + np.asarray(x0s",
           ("tests/test_analytics.py",)),
    Mutant("tie-rule", SOLVER,
           "ordering = J[0] < G[0, ..., :-1]", "ordering = J[0] <= G[0, ..., :-1]",
           SOLVER_TESTS),
    Mutant("cap-tie", SOLVER,
           "taken = at_m & (Jx < G[..., lo:X])", "taken = at_m & (Jx <= G[..., lo:X])",
           SOLVER_TESTS),
    Mutant("first-live", SOLVER,
           'np.searchsorted(epochs, np.arange(T), side="right")',
           'np.searchsorted(epochs, np.arange(T), side="left")', SOLVER_TESTS),
    Mutant("row-stop-fill", SOLVER,
           "V[e:, r] = stop_vec[0, 0]", "V[epochs[0]:, r] = stop_vec[0, 0]", SOLVER_TESTS),
    Mutant("K-column", SOLVER,
           "np.r_[0, 1 + i:1 + nK * b:nK]", "np.r_[0, i:1 + nK * b:nK]", SOLVER_TESTS),
    Mutant("target-where", SOLVER,
           "np.copyto(target[t, live:, :, :-1], order_to, where=ordering)",
           "np.copyto(target[t, live:, :, :-1], order_to)", SOLVER_TESTS),
    Mutant("run-cut", CLI,
           "cut = (act[:, 1:] != act[:, :-1]) | (tgt[:, 1:] != tgt[:, :-1])",
           "cut = (act[:, 1:] != act[:, :-1])", ("tests/test_config_cli.py",)),
]


def _copy(dest: Path):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def _pytest(tree: Path, tests) -> tuple[bool, float]:
    """Whether pytest passes on ``tests`` in ``tree``, and its seconds."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    t0 = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          *tests], cwd=tree, env=env, capture_output=True, text=True)
    return run.returncode == 0, time.perf_counter() - t0


def _mutate(tree: Path, m: Mutant):
    path = tree / m.path
    text = path.read_text()
    if text.count(m.old) != 1:
        raise SystemExit(f"{m.name}: {m.old!r} occurs {text.count(m.old)} times in {m.path}")
    path.write_text(text.replace(m.old, m.new))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = ap.parse_args(argv)
    unknown = set(args.names) - {m.name for m in CATALOGUE}
    if unknown:
        ap.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in CATALOGUE if not args.names or m.name in args.names]

    with tempfile.TemporaryDirectory(prefix="eolstop-mutate-") as tmp:
        clean = Path(tmp) / "clean"
        clean.mkdir()
        _copy(clean)
        for tests in dict.fromkeys(m.tests for m in chosen):
            passed, secs = _pytest(clean, tests)
            if not passed:
                print(f"unmutated tests fail: {' '.join(tests)} ({secs:.1f} s)", file=sys.stderr)
                return 2
        print("| mutant | file | mutation | tests | result | s |")
        print("|---|---|---|---|---|---|")
        survivors = 0
        for m in chosen:
            tree = Path(tmp) / m.name
            tree.mkdir()
            _copy(tree)
            _mutate(tree, m)
            passed, secs = _pytest(tree, m.tests)
            survivors += passed
            tests = ", ".join(Path(t).name for t in m.tests)
            old, new = (text.replace("|", "\\|") for text in (m.old, m.new))  # Markdown cells
            print(f"| {m.name} | {Path(m.path).name} | `{old}` → `{new}` | {tests} | "
                  f"{'survived' if passed else 'killed'} | {secs:.1f} |", flush=True)
            shutil.rmtree(tree)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
