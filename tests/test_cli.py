import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import shared_component_columns
from lowdin_kit.cli import AnalysisReport, main

SQRT3_2 = 0.8660254037844386


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def plane_basis_file(tmp_path):
    return write_json(
        tmp_path / "basis.json",
        {
            "ambient_dim": 2,
            "vectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.5, 0.0], [SQRT3_2, 0.0]]],
        },
    )


@pytest.fixture
def beta_state_file(tmp_path):
    return write_json(
        tmp_path / "state.json",
        {
            "gram": {"dim": 2, "overlaps": [[1, 2, 0.4, 0.0]]},
            "pure": [[1.0, 0.0], [0.6, 0.0]],
        },
    )


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOrthogonalize:
    def test_lowdin_sym_report(self, capsys, plane_basis_file):
        code, out, _ = run_cli(
            capsys, ["orthogonalize", "--basis", plane_basis_file, "--method", "lowdin-sym"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "orthogonalize"
        assert report["method"] == "lowdin-sym"
        assert report["distortion"] == pytest.approx(0.3691838225650291, abs=1e-9)
        assert report["orthonormality_error"] < 1e-12
        e1 = [pair[0] for pair in report["basis"][0]]
        assert e1 == pytest.approx([0.9659258262890683, -0.2588190451025208], abs=1e-9)

    def test_orthonormal_input_zero_distortion(self, capsys, tmp_path):
        basis = write_json(
            tmp_path / "ortho.json",
            {"ambient_dim": 2, "vectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        )
        for method in ("gram-schmidt", "lowdin-sym", "lowdin-can"):
            code, out, _ = run_cli(capsys, ["orthogonalize", "--basis", basis, "--method", method])
            assert code == 0
            assert json.loads(out)["distortion"] == pytest.approx(0.0, abs=1e-12)

    def test_gram_schmidt_order_dependence(self, capsys, plane_basis_file):
        outputs = []
        for order in ("1,2", "2,1"):
            code, out, _ = run_cli(
                capsys,
                [
                    "orthogonalize",
                    "--basis",
                    plane_basis_file,
                    "--method",
                    "gram-schmidt",
                    "--order",
                    order,
                ],
            )
            assert code == 0
            outputs.append(json.loads(out))
        b1 = np.array(outputs[0]["basis"], dtype=float)
        b2 = np.array(outputs[1]["basis"], dtype=float)
        assert np.max(np.abs(b1 - b2)) > 0.1
        assert outputs[0]["order"] == [1, 2]
        assert outputs[1]["order"] == [2, 1]

    def test_order_rejected_for_lowdin(self, capsys, plane_basis_file):
        code, _, err = run_cli(
            capsys,
            ["orthogonalize", "--basis", plane_basis_file, "--method", "lowdin-sym", "--order", "2,1"],
        )
        assert code == 2
        assert err.startswith("error:")

    def test_bad_order_rejected(self, capsys, plane_basis_file):
        code, _, _ = run_cli(
            capsys,
            ["orthogonalize", "--basis", plane_basis_file, "--method", "gram-schmidt", "--order", "3,1"],
        )
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["orthogonalize", "--basis", str(tmp_path / "nope.json"), "--method", "lowdin-sym"]
        )
        assert code == 2
        assert err.count("\n") == 1

    def test_unparseable_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(capsys, ["orthogonalize", "--basis", str(bad), "--method", "lowdin-sym"])
        assert code == 2

    def test_bad_schema(self, capsys, tmp_path):
        bad = write_json(tmp_path / "bad2.json", {"ambient_dim": 2, "vectors": "zap"})
        code, _, _ = run_cli(capsys, ["orthogonalize", "--basis", bad, "--method", "lowdin-sym"])
        assert code == 2

    def test_dependent_basis_is_math_error(self, capsys, tmp_path):
        dep = write_json(
            tmp_path / "dep.json",
            {"ambient_dim": 2, "vectors": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
        )
        code, _, err = run_cli(capsys, ["orthogonalize", "--basis", dep, "--method", "lowdin-sym"])
        assert code == 3
        assert "LinearlyDependent" in err

    def test_engine_output_failure_is_math_error(self, capsys, tmp_path):
        cols = shared_component_columns(1e-3)
        basis = write_json(
            tmp_path / "near_dep.json",
            {"ambient_dim": 60,
             "vectors": [[[float(x), 0.0] for x in col] for col in cols.T]},
        )
        code, out, err = run_cli(
            capsys, ["orthogonalize", "--basis", basis, "--method", "lowdin-sym"]
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: InvalidParameters: lowdin-sym result is not orthonormal")
        assert "lambda_min 7.8" in err and "kappa(O)" in err
        assert err.count("\n") == 1

    def test_unknown_method_exits_2(self, plane_basis_file):
        with pytest.raises(SystemExit) as exc:
            main(["orthogonalize", "--basis", plane_basis_file, "--method", "qr"])
        assert exc.value.code == 2

    def test_deterministic_output(self, tmp_path, plane_basis_file):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert (
                main(
                    [
                        "orthogonalize",
                        "--basis",
                        plane_basis_file,
                        "--method",
                        "lowdin-can",
                        "--out",
                        str(p),
                    ]
                )
                == 0
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestWeights:
    def test_beta_state_report(self, capsys, beta_state_file):
        code, out, _ = run_cli(capsys, ["weights", "--state", beta_state_file])
        assert code == 0
        report = json.loads(out)
        assert report["weights"] == pytest.approx([0.66, 0.34], abs=1e-2)
        assert report["measures"]["entropy_bits"] == pytest.approx(0.925, abs=2e-3)
        assert "lowdin_coefficients" in report
        assert "rho_lowdin" not in report

    def test_maximally_mixed_density(self, capsys, tmp_path):
        state = write_json(
            tmp_path / "mixed.json",
            {
                "gram": {"dim": 2, "overlaps": [[1, 2, 0.5, 0.0]]},
                "rho": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
            },
        )
        code, out, _ = run_cli(capsys, ["weights", "--state", state])
        assert code == 0
        report = json.loads(out)
        assert report["weights"] == pytest.approx([0.5, 0.5], abs=1e-9)
        rho_l = np.array(report["rho_lowdin"], dtype=float)[:, 0].reshape(2, 2)
        assert np.allclose(rho_l, [[0.5, 0.25], [0.25, 0.5]], atol=1e-9)
        artifact = np.array(report["offdiagonal_artifact"], dtype=float)[:, 0].reshape(2, 2)
        genuine = np.array(report["offdiagonal_genuine"], dtype=float)[:, 0].reshape(2, 2)
        assert artifact[0, 1] == pytest.approx(0.25, abs=1e-9)
        assert np.max(np.abs(genuine)) <= 1e-9

    def test_orthogonal_point_mass(self, capsys, tmp_path):
        state = write_json(
            tmp_path / "point.json",
            {"gram": {"dim": 2, "overlaps": []}, "pure": [[1.0, 0.0], [0.0, 0.0]]},
        )
        code, out, _ = run_cli(capsys, ["weights", "--state", state])
        assert code == 0
        report = json.loads(out)
        assert report["weights"] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert report["measures"]["entropy_bits"] == 0.0

    def test_dense_gram_form(self, capsys, tmp_path):
        state = write_json(
            tmp_path / "dense.json",
            {
                "gram": {
                    "dim": 2,
                    "matrix": [[1.0, 0.0], [0.4, 0.0], [0.4, 0.0], [1.0, 0.0]],
                },
                "pure": [[1.0, 0.0], [0.6, 0.0]],
            },
        )
        code, out, _ = run_cli(capsys, ["weights", "--state", state])
        assert code == 0
        assert json.loads(out)["weights"] == pytest.approx([0.66, 0.34], abs=1e-2)

    def test_non_psd_rho_is_math_error(self, capsys, tmp_path):
        state = write_json(
            tmp_path / "bad_rho.json",
            {
                "gram": {"dim": 2, "overlaps": [[1, 2, 0.5, 0.0]]},
                "rho": [[1.2, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.2, 0.0]],
            },
        )
        code, _, err = run_cli(capsys, ["weights", "--state", state])
        assert code == 3
        assert "InvalidParameters" in err

    def test_both_pure_and_rho_rejected(self, capsys, tmp_path):
        state = write_json(
            tmp_path / "both.json",
            {
                "gram": {"dim": 2, "overlaps": []},
                "pure": [[1.0, 0.0], [0.0, 0.0]],
                "rho": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            },
        )
        code, _, _ = run_cli(capsys, ["weights", "--state", state])
        assert code == 2

    def test_report_round_trips(self, capsys, beta_state_file):
        _, out, _ = run_cli(capsys, ["weights", "--state", beta_state_file])
        report = AnalysisReport.from_dict(json.loads(out))
        assert report.to_json() == out


class TestSweep:
    def test_beta_family_two_points(self, capsys, tmp_path):
        spec = write_json(
            tmp_path / "sweep.json",
            {"parameter": "s", "range": [0.1, 0.4], "steps": 2, "fixed": {"gamma": 0.6}},
        )
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, ["sweep", "--spec", spec, "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "param,w_1,w_2,entropy,pr,ipr"
        row1 = [float(x) for x in lines[1].split(",")]
        row2 = [float(x) for x in lines[2].split(",")]
        assert row1[0] == 0.1 and row2[0] == 0.4
        assert row1[1] == pytest.approx(0.715, abs=1e-3)
        assert row1[3] == pytest.approx(0.862, abs=2e-3)
        assert row2[1] == pytest.approx(0.66, abs=1e-2)
        assert row2[3] == pytest.approx(0.925, abs=2e-3)

    def test_degenerate_range_rejected(self, capsys, tmp_path):
        spec = write_json(
            tmp_path / "deg.json",
            {"parameter": "s", "range": [0.0, 0.0], "steps": 2, "fixed": {"gamma": 1.0}},
        )
        code, _, err = run_cli(capsys, ["sweep", "--spec", spec, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert err.startswith("error:")

    def test_p_sweep_equals_param_column(self, capsys, tmp_path):
        spec = write_json(
            tmp_path / "p.json",
            {"parameter": "p", "range": [0.0, 1.0], "steps": 5, "fixed": {"q": 0.0, "s": 0.0}},
        )
        out_csv = tmp_path / "p.csv"
        code, _, _ = run_cli(capsys, ["sweep", "--spec", spec, "--out", str(out_csv)])
        assert code == 0
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert len(rows) == 5
        for row in rows:
            assert float(row[1]) == pytest.approx(float(row[0]), abs=1e-12)

    def test_family_must_be_complete(self, capsys, tmp_path):
        spec = write_json(
            tmp_path / "bad_family.json",
            {"parameter": "s", "range": [0.1, 0.2], "steps": 2, "fixed": {"p": 0.5}},
        )
        code, _, _ = run_cli(capsys, ["sweep", "--spec", spec, "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unknown_parameter(self, capsys, tmp_path):
        spec = write_json(
            tmp_path / "unk.json",
            {"parameter": "theta", "range": [0.0, 1.0], "steps": 2, "fixed": {}},
        )
        code, _, _ = run_cli(capsys, ["sweep", "--spec", spec, "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_out_path_from_spec(self, capsys, tmp_path):
        out_csv = tmp_path / "from_spec.csv"
        spec = write_json(
            tmp_path / "with_out.json",
            {
                "parameter": "gamma",
                "range": [0.5, 1.5],
                "steps": 3,
                "fixed": {"s": 0.2},
                "out": str(out_csv),
            },
        )
        code, _, _ = run_cli(capsys, ["sweep", "--spec", spec])
        assert code == 0
        assert out_csv.exists()

    def test_no_out_anywhere(self, capsys, tmp_path):
        spec = write_json(
            tmp_path / "no_out.json",
            {"parameter": "gamma", "range": [0.5, 1.5], "steps": 3, "fixed": {"s": 0.2}},
        )
        code, _, _ = run_cli(capsys, ["sweep", "--spec", spec])
        assert code == 2

    def test_deterministic_csv(self, capsys, tmp_path):
        spec = write_json(
            tmp_path / "det.json",
            {"parameter": "q", "range": [-0.2, 0.2], "steps": 7, "fixed": {"p": 0.6, "s": 0.3}},
        )
        outs = []
        for name in ("d1.csv", "d2.csv"):
            path = tmp_path / name
            assert run_cli(capsys, ["sweep", "--spec", spec, "--out", str(path)])[0] == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestPaperCheck:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run_cli(capsys, ["paper-check"])
        assert code == 0
        lines = out.splitlines()
        pass_rows = [ln for ln in lines if ln.endswith("PASS")]
        assert len(pass_rows) >= 15
        assert not any(ln.endswith("FAIL") for ln in lines)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lowdin_kit", "paper-check"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "passed, 0 failed" in proc.stdout
