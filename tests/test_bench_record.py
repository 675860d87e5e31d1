import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
MACHINE = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "numba_importable": False}


def _record(seed, wall, mb=71.0, revision="r", seconds=20.0, **over):
    """An untraced sweep384 run record as perfbench/run.py writes it."""
    return {"workload": "sweep384", "seed": seed, "seconds": seconds, "trace": 0, "tiny": False,
            "nproc": 2, "git_revision": revision, "failed": 0, "machine": MACHINE,
            "metrics": {"setup_s": 0.3, "wall_s": wall, "units_per_s": 128 / wall,
                        "peak_rss_mb": mb}, **over}


def _write(checkout: Path, records):
    results = checkout / "perfbench" / "results"
    results.mkdir(parents=True)
    for i, rec in enumerate(records):
        (results / f"run{i}.json").write_text(json.dumps(rec))


def _run(tmp_path, out="BENCH_7.json"):
    return subprocess.run([sys.executable, str(SCRIPT), "--parent", str(tmp_path / "parent"),
                           "--change", str(tmp_path / "change"), "--pr", "7",
                           "--out", str(tmp_path / out)], capture_output=True, text=True)


def test_records_two_synthetic_runs(tmp_path):
    parent = [_record(s, w, revision="p") for s, w in enumerate([1.6, 1.7, 1.5, 1.8, 1.65], 1)]
    # skipped: a traced run, a tiny run, and a stale run of a seed the change did not run
    parent += [_record(1, 99.0, trace=1), _record(2, 99.0, tiny=True),
               _record(9, 99.0, revision="old")]
    _write(tmp_path / "parent", parent)
    # the change is faster on seeds 1-4 and slower on seed 5, and its peak RSS ties
    _write(tmp_path / "change",
           [_record(s, w, revision="c") for s, w in enumerate([1.5, 1.55, 1.45, 1.7, 1.7], 1)])
    run = _run(tmp_path)
    assert run.returncode == 0, run.stderr
    assert "wall_s: 1.65 -> 1.55 s" in run.stdout
    bench = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert bench["pr"] == "7"
    assert bench["machine"]["parent"] == bench["machine"]["change"] == {
        "nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}
    assert bench["revisions"] == {"parent": "p", "change": "c"}
    row = bench["workloads"]["sweep384"]
    assert row["seeds"] == [1, 2, 3, 4, 5] and row["failed"] == [0, 0]
    assert row["seconds"] == 20.0
    wall = row["metrics"]["wall_s"]
    assert wall["parent"] == {"n": 5, "median": 1.65, "q1": 1.6, "q3": 1.7}
    assert wall["change"]["median"] == 1.55
    assert wall["median_change"] == pytest.approx(1.55 / 1.65 - 1)
    assert (wall["wins"], wall["pairs"]) == (4, 5)
    assert row["metrics"]["units_per_s"]["wins"] == 4  # higher is better there
    assert row["metrics"]["peak_rss_mb"]["wins"] == 0  # a tie is no win


@pytest.mark.parametrize("parent, change, message", [
    ([], [_record(1, 1.5)], "no seed-paired"),
    ([_record(1, 1.6)], [_record(2, 1.5)], "no seed-paired"),
    ([_record(1, 1.6, revision="a"), _record(2, 1.6, revision="b")],
     [_record(1, 1.5), _record(2, 1.5)], "parent's paired records come from revisions"),
    ([_record(1, 1.6)], [_record(1, 1.5, seconds=10.0)], "different --seconds"),
], ids=["no-parent", "no-common-seed", "mixed-revisions", "seconds-differ"])
def test_unpairable_records_exit_2(tmp_path, parent, change, message):
    _write(tmp_path / "parent", parent)
    _write(tmp_path / "change", change)
    run = _run(tmp_path)
    assert run.returncode == 2 and message in run.stderr
    assert not (tmp_path / "BENCH_7.json").exists()


@pytest.mark.parametrize("parent, change, want", [
    # the median is 30% worse, past wall_s's bound of 0.25
    ([1.6, 1.7, 1.5, 1.8, 1.65], [2.1, 2.2, 2.0, 2.3, 2.15], "regressed"),
    # 15% worse: within the bound
    ([1.6, 1.7, 1.5, 1.8, 1.65], [1.9, 1.95, 1.85, 2.0, 1.9], "ok"),
    # the parent's runs spread by 0.8 / 1.5 of their median, and the runs overlap
    ([1.0, 2.0, 1.5, 3.0, 1.2], [1.5, 1.6, 1.4, 1.7, 1.5], "unresolved"),
    # as widely spread, but every change run beats every parent run, by far
    # more than the parent's interquartile range of 0.8
    ([2.0, 3.0, 2.5, 4.0, 2.2], [1.0, 1.1, 1.2, 1.3, 1.4], "improved"),
    # every change run beats every parent run, but the medians are 0.65 apart
    ([2.0, 3.0, 2.5, 4.0, 2.2], [1.75, 1.8, 1.85, 1.9, 1.95], "ok"),
    # the change wins 9 of 10 pairs, its median 0.3 better against an
    # interquartile range of 0.1
    ([1.6, 1.7, 1.5, 1.8, 1.65, 1.6, 1.7, 1.55, 1.75, 1.65],
     [1.3, 1.4, 1.2, 1.5, 1.35, 1.3, 1.4, 1.25, 1.45, 1.7], "improved"),
    # as far apart, but 8 wins and 2 ties in 10 pairs: a tie wins for neither
    ([1.6, 1.7, 1.5, 1.8, 1.65, 1.6, 1.7, 1.55, 1.75, 1.65],
     [1.3, 1.4, 1.2, 1.5, 1.35, 1.3, 1.4, 1.25, 1.75, 1.65], "ok"),
    # 5 of 5 pairs won, but the medians differ by 0.05 within a range of 0.1
    ([1.6, 1.7, 1.5, 1.8, 1.65], [1.55, 1.65, 1.45, 1.75, 1.6], "ok"),
], ids=["regressed", "within-bound", "unresolved", "separated", "separated-within-iqr",
        "nine-of-ten", "eight-of-ten-and-ties", "all-pairs-within-iqr"])
def test_each_metric_is_labelled(tmp_path, parent, change, want):
    _write(tmp_path / "parent", [_record(s, w, revision="p") for s, w in enumerate(parent, 1)])
    _write(tmp_path / "change", [_record(s, w, revision="c") for s, w in enumerate(change, 1)])
    run = _run(tmp_path)
    assert run.returncode == 0, run.stderr
    metrics = json.loads((tmp_path / "BENCH_7.json").read_text())["workloads"]["sweep384"]["metrics"]
    assert metrics["wall_s"]["label"] == want
    assert metrics["setup_s"]["label"] == metrics["peak_rss_mb"]["label"] == "ok"  # equal runs
    line = next(ln for ln in run.stdout.splitlines() if ln.startswith("sweep384 wall_s:"))
    assert line.endswith(f"pairs: {want}")
