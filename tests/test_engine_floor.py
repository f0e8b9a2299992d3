"""tools/engine_floor.py runs end to end and prints one row per engine."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "engine_floor.py"


def test_prints_op_floor_and_ratio_per_engine():
    result = subprocess.run([sys.executable, str(TOOL), "--dims", "8", "--reps", "3"],
                            capture_output=True, text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["engine", "d", "op", "ms", "floor", "ms", "ratio"]
    assert [row.split()[:2] for row in rows] == [
        [engine, "8"] for engine in ("gram_schmidt", "lowdin_symmetric", "lowdin_canonical")
    ]
    for row in rows:
        op_ms, floor_ms, ratio = map(float, row.split()[2:])
        assert op_ms > 0 and floor_ms > 0 and ratio > 0
