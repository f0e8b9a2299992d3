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
    assert sorted(run["commands"]) == sorted(names)
    assert sorted(run["environment"]) == ["blas", "blas_threads", "numpy"]
    assert _tool("compare", records, records).returncode == 0
    run["commands"][names[0]]["stdout"] = "0" * 64
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(run))
    result = _tool("compare", records, changed)
    assert result.returncode == 1
    assert result.stdout.startswith(f"{names[0]}: stdout differ")


def test_compare_refuses_runs_from_different_environments(tmp_path):
    # Bytes may differ across numpy, BLAS or thread count whatever the code,
    # so such records are not compared at all, even where every hash matches.
    corpus, records = tmp_path / "corpus", tmp_path / "records.json"
    assert _tool("write", corpus).returncode == 0
    assert _tool("run", corpus, ROOT / "src", records, "weights.d2.dense.pure").returncode == 0
    run = json.loads(records.read_text())
    for key, value in (("blas_threads", "2"), ("numpy", "0.0"), ("blas", "other")):
        other = tmp_path / f"other_{key}.json"
        other.write_text(json.dumps(dict(run, environment=dict(run["environment"], **{key: value}))))
        result = _tool("compare", records, other)
        assert result.returncode == 1
        assert result.stderr.startswith("refused: the runs' environments differ")
        assert result.stdout == ""
    del run["environment"]
    other = tmp_path / "other_none.json"
    other.write_text(json.dumps(run))
    assert _tool("compare", other, records).returncode == 1


def test_corpus_covers_d256_orthogonalize(tmp_path):
    assert _tool("write", tmp_path).returncode == 0
    names = {c["name"] for c in json.loads((tmp_path / "commands.json").read_text())["commands"]}
    assert {"ortho.d256.gram-schmidt", "ortho.d256.lowdin-sym", "ortho.d256.lowdin-can",
            "ortho.d256.gs.order"} <= names


def test_corpus_covers_signed_zeros(tmp_path):
    # Zeros whose signs eigh reads: purely imaginary overlaps with -0.0 real
    # parts, rho with -0.0 off-diagonal real parts, an unspecified pair and
    # exactly orthogonal basis columns.
    assert _tool("write", tmp_path).returncode == 0
    names = {c["name"] for c in json.loads((tmp_path / "commands.json").read_text())["commands"]}
    assert {"weights.zero_real.d5.pure", "weights.zero_real.d5.rho", "weights.zero_real.d16.pure",
            "weights.zero_real.d16.rho", "weights.zero_real.rho_offdiagonal", "weights.unspecified_pair.pure",
            "weights.unspecified_pair.rho", "ortho.orthogonal_pairs.gram-schmidt",
            "ortho.orthogonal_pairs.lowdin-sym", "ortho.orthogonal_pairs.lowdin-can"} <= names
    for f in ("state_d5_imaginary_pure.json", "state_d16_imaginary_rho.json", "state_d4_rho_imaginary.json"):
        assert "[-0.0, -0." in (tmp_path / f).read_text()
    overlaps = json.loads((tmp_path / "state_unspecified_rho.json").read_text())["gram"]["overlaps"]
    assert len(overlaps) == 5 and [1, 3] not in [p[:2] for p in overlaps]


def test_corpus_covers_echoed_edges_and_zero_entries(tmp_path):
    # The report writer's edge numbers in an echoed extra key, and a basis
    # with exact zeros under --order.
    assert _tool("write", tmp_path).returncode == 0
    names = {c["name"] for c in json.loads((tmp_path / "commands.json").read_text())["commands"]}
    assert {"ortho.echo_edges.gram-schmidt", "ortho.echo_edges.lowdin-sym", "ortho.echo_edges.lowdin-can",
            "weights.echo_edges.pure", "weights.echo_edges.rho", "ortho.zeros.gs.order"} <= names
    for f in ("basis_echo_edges.json", "state_echo_edges_pure.json", "state_echo_edges_rho.json"):
        text = (tmp_path / f).read_text()
        for number in (" 3,", " 9007199254740993,", " -0.0,", " 999999999999.5,", " 1e+16,", " 5e-324,", " 1e-310,",
                       " 1.7976931348623157e+308,", " Infinity,", " NaN,"):
            assert number in text
    vectors = json.loads((tmp_path / "basis_zeros.json").read_text())["vectors"]
    assert sum(p == [0.0, 0.0] for col in vectors for p in col) == 15


def test_corpus_covers_replayed_sweep_refusals(tmp_path):
    # A density sweep that ends in DegenerateTrace and a pure sweep whose
    # a+ O a overflows: both refused by the library when the step is replayed.
    assert _tool("write", tmp_path).returncode == 0
    commands = {c["name"]: c["argv"] for c in json.loads((tmp_path / "commands.json").read_text())["commands"]}
    assert commands["sweep.density_degenerate"][:3] == ["sweep", "--spec", "sweep_density_degenerate.json"]
    assert commands["sweep.pure_overflow"][:3] == ["sweep", "--spec", "sweep_pure_overflow.json"]
    assert json.loads((tmp_path / "sweep_density_degenerate.json").read_text()) == {
        "parameter": "s", "range": [0.99999999998, 0.99999999999], "steps": 5,
        "fixed": {"p": 0.5, "q": -0.500000000005}}
    assert json.loads((tmp_path / "sweep_pure_overflow.json").read_text()) == {
        "parameter": "gamma", "range": [1e154, 1e155], "steps": 5, "fixed": {"s": 0.3}}
