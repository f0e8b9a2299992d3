"""tools/cli_compare.py runs end to end: write, run and compare."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cli_compare.py"


def _tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120, check=False)


def test_write_run_compare(tmp_path):
    corpus, records = tmp_path / "corpus", tmp_path / "records.json"
    assert _tool("write", corpus).returncode == 0
    names = ["weights.d2.dense.rho.full", "ortho.bad.text", "sweep.out_field"]
    assert _tool("run", corpus, ROOT / "src", records, *names).returncode == 0
    run = json.loads(records.read_text())
    assert sorted(run) == sorted(names)
    assert _tool("compare", records, records).returncode == 0
    run[names[0]]["stdout"] = "0" * 64
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(run))
    result = _tool("compare", records, changed)
    assert result.returncode == 1
    assert result.stdout.startswith(f"{names[0]}: stdout differ")
