"""tools/bench_ab.py on two fake trees whose perfbench/run.py prints fixed metrics."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_ab.py"

# Each fake run.py prints metrics of its side and seed, writes the details
# file run.py writes, and logs its side, seed and child environment.
FAKE_RUN = """\
import json, os, sys
from pathlib import Path

side, failing = {side!r}, {failing!r}
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(os.environ["FAKE_RUN_LOG"], "a") as fh:
    fh.write(json.dumps([side, seed, os.environ.get("OPENBLAS_NUM_THREADS"),
                         os.environ.get("PYTHONDONTWRITEBYTECODE")]) + "\\n")
change = side == "change"
metrics = {{
    "ops_per_s": 100.0 + seed + 10.0 * change,
    "latency_p50_ms": 1.0 + 0.1 * seed - 0.05 * change,
    "latency_p90_ms": 2.0 + (0.01 if seed % 2 else -0.01) * change,
    "setup_s": 1.0 + 0.3 * change,
    "peak_rss_mb": 50.0 + 10.0 * (seed % 2),
}}
results = Path(__file__).resolve().parent.parent / ".perfbench_work" / "results"
results.mkdir(parents=True, exist_ok=True)
(results / f"weights-seed{{seed}}-trace0.json").write_text(
    json.dumps({{"import_s": 0.1 + 0.01 * change, "setup_s": [0.1 * seed, 0.3 * seed, 0.2 * seed]}}))
failed = int(failing and seed == 2)
print("a line that is not the result")
print(json.dumps({{"correct": not failed, "attempted": 10, "failed": failed,
                  "metrics": {{k: {{"value": v, "unit": "u"}} for k, v in metrics.items()}}}}))
"""


def _tree(path: Path, side: str, failing: bool = False) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(FAKE_RUN.format(side=side, failing=failing))
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    (path / ".perfbench_work").mkdir()
    (path / ".perfbench_work" / "stale").write_text("left behind by an earlier run")
    return path


def _ab(tmp_path, parent, change, pairs=4):
    log = tmp_path / "log.jsonl"
    proc = subprocess.run([sys.executable, str(TOOL), str(parent), str(change), "weights",
                           "--pairs", str(pairs), "--seconds", "1", "--seed", "1"],
                          capture_output=True, text=True, timeout=120, check=False,
                          env={**os.environ, "FAKE_RUN_LOG": str(log)})
    return proc, [json.loads(line) for line in log.read_text().splitlines()]


def _line(out: str, prefix: str) -> str:
    (line,) = [s for s in out.splitlines() if s.startswith(prefix)]
    return line


def test_medians_wins_and_verdicts(tmp_path):
    parent, change = _tree(tmp_path / "a", "parent"), _tree(tmp_path / "b", "change")
    proc, log = _ab(tmp_path, parent, change)
    # Pair k runs seed k on both sides, the parent first on odd pairs, each
    # child with one BLAS thread and no byte code written.
    assert [entry[:2] for entry in log] == [["parent", 1], ["change", 1], ["change", 2], ["parent", 2],
                                            ["parent", 3], ["change", 3], ["change", 4], ["parent", 4]]
    assert all(entry[2:] == ["1", "1"] for entry in log)
    out = proc.stdout
    # Seeds 1-4: the parent's ops_per_s are 101-104, median 102.5, quartiles 101.75 and 103.25.
    assert _line(out, "ops_per_s:") == (
        "ops_per_s: 102.5 [101.75, 103.25] -> 112.5 [111.75, 113.25] (+9.8 %), 4/4 pairs won, bound 24%: gain")
    # Better in every pair, but by 0.05, within the parent's interquartile range of 0.15.
    assert _line(out, "latency_p50_ms:").endswith("(-4.0 %), 4/4 pairs won, bound 24%: no claim")
    assert _line(out, "latency_p90_ms:").endswith("2/4 pairs won, bound 24%: no claim")
    assert _line(out, "setup_s:").endswith("(+30.0 %), 0/4 pairs won, bound 25%: WORSE")
    # The parent's runs spread by 10/55 = 18 %, wider than the 10 % bound.
    assert _line(out, "peak_rss_mb:") == (
        "peak_rss_mb: 55 [50, 60] -> 55 [50, 60] (+0.0 %), 0/4 pairs won, bound 10%: unresolved")
    assert "  pairs: 101/111, 102/112, 103/113, 104/114" in out.splitlines()
    assert _line(out, "setup_s part import_s").endswith("0.1 [0.1, 0.1] -> 0.11 [0.11, 0.11] (+10.0 %)")
    assert _line(out, "setup_s part setup_median_s").endswith("0.5 [0.35, 0.65] -> 0.5 [0.35, 0.65] (+0.0 %)")
    assert proc.returncode == 1  # setup_s is worse beyond its bound
    # The trees are copied, not run in place: neither gets a results file.
    assert not (parent / ".perfbench_work" / "results").exists()


def test_failed_runs_are_reported_and_left_out(tmp_path):
    parent, change = _tree(tmp_path / "a", "parent"), _tree(tmp_path / "b", "change", failing=True)
    proc, log = _ab(tmp_path, parent, change, pairs=3)
    assert len(log) == 6
    assert "pair 2 change: exit 0, correct False, failed 1" in proc.stdout
    assert "2 pairs; parent median" in proc.stdout
    assert _line(proc.stdout, "ops_per_s:").endswith("2/2 pairs won, bound 24%: gain")
    assert proc.returncode == 1


def test_undeclared_workload_is_refused(tmp_path):
    parent, change = _tree(tmp_path / "a", "parent"), _tree(tmp_path / "b", "change")
    proc = subprocess.run([sys.executable, str(TOOL), str(parent), str(change), "nope"],
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 2 and "not declared" in proc.stderr
