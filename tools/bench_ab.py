"""A/B comparison of two source trees on one workload of perfbench/run.py.

    python tools/bench_ab.py PARENT CHANGE WORKLOAD [--pairs 10] [--seconds 30] [--seed 1]

Each tree is copied once into a temporary directory, without .git, byte code
or earlier benchmark output, and `perfbench/run.py --workload WORKLOAD` runs
from each copy in alternating pairs: pair k uses seed SEED + k - 1 for both
runs, and odd pairs run the parent first. The child processes get one BLAS
thread and PYTHONDONTWRITEBYTECODE=1; nothing else is set, and no setting of
the machine is changed. They inherit this process's CPU list, which is
printed (run.py pins itself to the first CPU of it).

For each end-to-end metric that CHANGE/BENCHMARK.json declares, it prints the
parent's median [lower quartile, upper quartile] -> the change's median
[quartiles], the relative change of the medians, the per-pair values and the
pairs the change won, and a verdict:

- `gain`: the change is better in at least nine pairs in ten, and its median
  is better than the parent's by more than the parent's interquartile range;
- `WORSE`: the change's median is worse than the parent's by more than the
  metric's bound;
- `unresolved`: the parent's interquartile range is wider than the bound, and
  not every run of the change is better than every run of the parent;
- `no claim`: anything else.

The wall-clock import and median set-up times that run.py records with each
run follow, as the parts of `setup_s`. The exit status is 1 if a run failed,
reported an incorrect result or a failed op, or if any metric is `WORSE`.
A typical comparison of a change against its parent commit:

    git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/bench_ab.py /tmp/parent . weights --pairs 10 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
WIN_SHARE = 0.9
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".perfbench_work", ".pytest_cache", ".hypothesis")
SETUP_PARTS = ("import_s", "setup_median_s")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    """The verdict on one metric and the number of pairs the change won; values
    are compared as sign * value, so that larger is better."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p_med, p3 = quartiles(parent)
    gain = sign * (statistics.median(change) - p_med)
    if won >= math.ceil(WIN_SHARE * len(parent)) and gain > p3 - p1:
        return "gain", won
    if p_med and -gain / abs(p_med) > bound:
        return "WORSE", won
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_med and (p3 - p1) / abs(p_med) > bound and not all_better:
        return "unresolved", won
    return "no claim", won


def _run(tree: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """Metrics of one run (name -> value), or {"error": reason}."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {proc.returncode}, no result line: {proc.stderr.strip()[-300:]}"}
    if proc.returncode or result.get("correct") is not True or result.get("failed"):
        return {"error": f"exit {proc.returncode}, correct {result.get('correct')}, failed {result.get('failed')}"}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    details = tree / ".perfbench_work" / "results" / f"{workload}-seed{seed}-trace0.json"
    if details.is_file():
        record = json.loads(details.read_text(encoding="utf-8"))
        values["import_s"] = record["import_s"]
        values["setup_median_s"] = statistics.median(record["setup_s"])
    return values


def _row(name: str, parent: list[float], change: list[float]) -> str:
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    rel = f"{100 * (c_med / p_med - 1):+.1f} %" if p_med else "n/a"
    return f"{name}: {p_med:.6g} [{p1:.6g}, {p3:.6g}] -> {c_med:.6g} [{c1:.6g}, {c3:.6g}] ({rel})"


def compare(trees: dict, workload: str, pairs: int, seconds: float, seed: int, metrics: list) -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    print(f"workload {workload}, {pairs} pairs of {seconds:g} s, seeds {seed}-{seed + pairs - 1}, "
          f"CPUs {sorted(os.sched_getaffinity(0))}", flush=True)
    runs = {side: [] for side in SIDES}
    failed = []
    for k in range(1, pairs + 1):
        for side in SIDES if k % 2 else SIDES[::-1]:
            values = _run(trees[side], workload, seed + k - 1, seconds, env)
            runs[side].append(values)
            if "error" in values:
                failed.append(f"pair {k} {side}: {values['error']}")
            print(f"pair {k} {side}: " + ", ".join(f"{n} {v}" if n == "error" else f"{n} {v:.6g}"
                                                  for n, v in values.items()), flush=True)
    ok = [k for k in range(pairs) if all("error" not in runs[side][k] for side in SIDES)]
    status = 0
    if failed:
        print("FAILED runs, left out of the comparison:\n  " + "\n  ".join(failed))
        status = 1
    if not ok:
        return 1
    print(f"\n{len(ok)} pairs; parent median [quartiles] -> change median [quartiles]:")
    for m in metrics:
        parent, change = ([runs[side][k][m["name"]] for k in ok] for side in SIDES)
        result, won = verdict(parent, change, m["better"], m["bound"])
        status = status or result == "WORSE"
        print(f"{_row(m['name'], parent, change)}, {won}/{len(ok)} pairs won, "
              f"bound {m['bound']:.0%}: {result}")
        print("  pairs: " + ", ".join(f"{p:.6g}/{c:.6g}" for p, c in zip(parent, change)))
    for name in SETUP_PARTS:
        if all(name in runs[side][k] for side in SIDES for k in ok):
            parent, change = ([runs[side][k][name] for k in ok] for side in SIDES)
            print(f"{_row('setup_s part ' + name + ' (wall)', parent, change)}")
    return status


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"workload {args.workload!r} is not declared in {args.change / 'BENCHMARK.json'}")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: shutil.copytree(getattr(args, side), Path(tmp) / side, ignore=IGNORED) for side in SIDES}
        return compare(trees, args.workload, args.pairs, args.seconds, args.seed, bench["end_to_end"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
