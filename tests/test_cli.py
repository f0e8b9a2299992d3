import json
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import corpus_rng, edge_psd_densities, shared_component_columns
from lowdin_kit import (DensityOperator, LowdinKitError, OverlapSpec, closed_form_2d_weights, gram_from_overlaps,
                        measure_report, normalize_pure, weights_density, weights_pure)
from lowdin_kit import cli, measures, states
from lowdin_kit.cli import AnalysisReport, main, parse_sweep_spec, run_sweep
from lowdin_kit.fileformats import parse_state

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

    def test_gram_schmidt_without_order_takes_natural_order(self, capsys, monkeypatch, plane_basis_file):
        argv = ["orthogonalize", "--basis", plane_basis_file, "--method", "gram-schmidt"]
        _, explicit, _ = run_cli(capsys, argv + ["--order", "1,2"])
        orders, engine = [], cli.gram_schmidt

        def spy(basis, order=None):
            orders.append(order)
            return engine(basis, order)

        monkeypatch.setattr(cli, "gram_schmidt", spy)
        code, out, _ = run_cli(capsys, argv)
        assert (code, orders) == (0, [None])  # no identity permutation for the engine to apply
        assert out == explicit
        assert json.loads(out)["order"] == [1, 2]

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

    def test_negative_metric_trace_is_degenerate(self, capsys, tmp_path):
        # rho is PSD within its tolerance, yet Tr(O rho) = 1 + 2qs is about
        # -7e-11: the one trace rule refuses it, naming the normalizing trace.
        s, q = 1 - 1e-11, -0.5 - 4e-11
        state = write_json(
            tmp_path / "rho.json",
            {
                "gram": {"dim": 2, "overlaps": [[1, 2, s, 0.0]]},
                "rho": [[0.5, 0.0], [q, 0.0], [q, 0.0], [0.5, 0.0]],
            },
        )
        assert run_cli(capsys, ["weights", "--state", state]) == (3, "", (
            "error: DegenerateTrace: Tr(O rho) = -6.999999197775247e-11 is too small to normalize\n"))

    @pytest.mark.parametrize("name", ["weight", "congruence"])
    def test_accepted_edge_density_reports(self, capsys, tmp_path, name):
        # rho passes the -1e-10 PSD floor; its weights and rho_L are not
        # re-checked against it (the weight case exited 2, the congruence 3).
        s, rho = edge_psd_densities()[name]
        state = write_json(
            tmp_path / f"{name}.json",
            {
                "gram": {"dim": 2, "overlaps": [[1, 2, s, 0.0]]},
                "rho": [[float(x), 0.0] for x in rho.reshape(-1)],
            },
        )
        code, out, err = run_cli(capsys, ["weights", "--state", state])
        assert (code, err) == (0, "")
        weights = json.loads(out)["weights"]
        assert min(weights) >= 0.0 and sum(weights) == pytest.approx(1.0, abs=1e-9)

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
        report = AnalysisReport(**json.loads(out))
        assert report.to_json() == out


def _sweep_reference(spec: dict) -> str:
    """The sweep as a fresh parameter dict and an OverlapSpec-assembled
    Gram matrix per step."""
    lines = ["param,w_1,w_2,entropy,pr,ipr"]
    for value in np.linspace(*spec["range"], spec["steps"]):
        params = {**spec["fixed"], spec["parameter"]: float(value)}
        gram = gram_from_overlaps(OverlapSpec(2, [(1, 2, params["s"])]))
        if "gamma" in params:
            w = weights_pure(normalize_pure(gram, [1.0, params["gamma"]]))
        else:
            p, q = params["p"], params["q"]
            w = weights_density(DensityOperator(gram, np.array([[p, q], [q, 1.0 - p]])))
        m = measure_report(w)
        cells = (value, *w.weights, m.entropy, m.participation_ratio, m.inverse_participation_ratio)
        lines.append(",".join(format(float(x), ".12g") for x in cells))
    return "\n".join(lines) + "\n"


FAILING_SWEEPS = [
    # q^2 = p(1 - p) is crossed mid-range: steps 1-6 pass, step 7 does not.
    {"parameter": "q", "range": [0.0, 0.9], "steps": 10, "fixed": {"p": 0.5, "s": 0.3}},
    # rho leaves the PSD cone at step 86 of 90.
    {"parameter": "p", "range": [0.1, 0.99], "steps": 90, "fixed": {"q": 0.2, "s": -0.4}},
    {"parameter": "p", "range": [0.5, 1.0], "steps": 6, "fixed": {"q": 0.3, "s": 0.2}},
    {"parameter": "gamma", "range": [0.5, 1.5], "steps": 3, "fixed": {"s": 0.9999999999999}},
    {"parameter": "s", "range": [0.1, 0.4], "steps": 2, "fixed": {"gamma": 1e200}},
]


# Within rounding of the largest float: linspace's last product (steps - 1) * step
# overflows before hi overwrites it, and step 2 overflows a+ O a.
WIDE_SWEEP = {"parameter": "gamma", "range": [-1e-300, 1.7976931348623157e308], "steps": 7,
              "fixed": {"s": 0.3}}


def _outcome(sweep, spec):
    """Type and message of the error the sweep raises, and its numpy warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises((LowdinKitError, ValueError)) as info:
            sweep(spec)
    return type(info.value), str(info.value), [str(w.message) for w in caught]


def _result(sweep, spec):
    """The sweep's CSV, or the type and message of its error; and its numpy warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = sweep(spec)
        except (LowdinKitError, ValueError) as exc:
            out = type(exc), str(exc)
    return out, [str(w.message) for w in caught]


_SIGN = st.sampled_from([-1.0, 1.0])
# Overlaps anywhere in (-1, 1), and 1 - 10^-e in magnitude up to the largest double below 1.
_S = st.one_of(st.floats(-0.99, 0.99), st.builds(lambda sign, e: sign * (1.0 - 10.0**-e), _SIGN,
                                                 st.floats(0.5, 15.9)))
# gamma or q from 1e-3 to 1e300 in magnitude, or 0.
_HUGE = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0**e, _SIGN, st.floats(-3, 300)))
_P = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


def _q_near_edge(p):
    """q with q^2 within a relative 1e-16 ... 1e-8 of p(1 - p), either side, or anywhere."""
    edge = st.builds(lambda sign, e, side: sign * np.sqrt(p * (1.0 - p)) * (1.0 + side * 10.0**-e),
                     _SIGN, st.floats(8, 16), _SIGN)
    return st.one_of(edge, _HUGE)


@st.composite
def accepted_sweep_specs(draw):
    """Sweep specs that parse_sweep_spec accepts, over both families."""
    parameter = draw(st.sampled_from(["s", "gamma", "p", "q"]))
    if parameter == "gamma" or (parameter == "s" and draw(st.booleans())):
        fixed = {"s": draw(_S), "gamma": draw(_HUGE)}
    else:
        p = draw(_P)
        fixed = {"s": draw(_S), "p": p, "q": draw(_q_near_edge(p))}
    values = _q_near_edge(fixed["p"]) if parameter == "q" else {"s": _S, "gamma": _HUGE, "p": _P}[parameter]
    lo, hi = sorted(draw(st.lists(values, min_size=2, max_size=2)))
    assume(lo < hi)
    del fixed[parameter]
    return {"parameter": parameter, "range": [lo, hi], "steps": draw(st.integers(2, 64)),
            "fixed": fixed}


class TestSweep:
    @pytest.mark.parametrize("spec", [
        {"parameter": "s", "range": [-0.95, 0.95], "steps": 301, "fixed": {"gamma": -1.7}},
        {"parameter": "s", "range": [-0.95, 0.95], "steps": 301, "fixed": {"p": 0.6, "q": 0.2}},
        {"parameter": "gamma", "range": [-3.0, 3.0], "steps": 121, "fixed": {"s": -0.6}},
        {"parameter": "q", "range": [-0.45, 0.45], "steps": 91, "fixed": {"p": 0.5, "s": 0.9}},
        {"parameter": "p", "range": [0.1, 0.9], "steps": 81, "fixed": {"q": -0.2, "s": 0.3}},
        # Weights below the entropy's zero clamp, and a point mass at gamma = 0.
        {"parameter": "gamma", "range": [-1e-7, 1e-7], "steps": 21, "fixed": {"s": 0.0}},
        # The README example and the two shapes the benchmark's `cli` workload runs.
        {"parameter": "s", "range": [0.1, 0.4], "steps": 7, "fixed": {"gamma": 0.6}},
        {"parameter": "s", "range": [-0.8, 0.8], "steps": 2400, "fixed": {"gamma": 0.8731}},
        {"parameter": "s", "range": [-0.8, 0.8], "steps": 1600, "fixed": {"p": 0.41, "q": -0.137}},
    ])
    def test_matches_per_step_reference(self, spec):
        assert run_sweep(parse_sweep_spec(spec)) == _sweep_reference(spec)

    def test_blocks_join_seamlessly(self, monkeypatch):
        spec = {"parameter": "q", "range": [-0.45, 0.45], "steps": 91, "fixed": {"p": 0.5, "s": 0.9}}
        monkeypatch.setattr(cli, "_SWEEP_BLOCK", 7)
        assert run_sweep(parse_sweep_spec(spec)) == _sweep_reference(spec)

    @pytest.mark.parametrize("block", [7, cli._SWEEP_BLOCK])
    @pytest.mark.parametrize("spec", FAILING_SWEEPS)
    def test_failing_step_matches_reference(self, spec, block, monkeypatch):
        # The first step the library rejects raises its error, with the same
        # numpy warnings, whatever block it falls in.
        monkeypatch.setattr(cli, "_SWEEP_BLOCK", block)
        assert _outcome(run_sweep, parse_sweep_spec(spec)) == _outcome(_sweep_reference, spec)

    def test_grid_does_not_warn(self):
        # Not even the failing step warns: its ValueError is the whole report.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"^state coefficients overflow a\+Oa = inf$"):
                run_sweep(parse_sweep_spec(WIDE_SWEEP))
        assert [(str(w.message), Path(w.filename).name) for w in caught] == []

    def test_stacked_pass_never_accepts_what_the_library_rejects(self):
        # Steps at every boundary of the library's checks: the eigenvalue
        # floor of O, ||O - I||_F = 1 at |s| = 1/sqrt(2), a+ O a
        # overflow, rho's PSD tolerance and the degenerate trace, which
        # refuses Tr(O rho) <= 0 too. A step the stacked pass proves valid must be valid, with the
        # library's row to the bit.
        rng = np.random.default_rng(11)
        n = 1500

        def near(x, ulps):
            return x + rng.integers(-ulps, ulps + 1, size=n) * np.spacing(x)

        sign = rng.choice([-1.0, 1.0], n)
        s = np.concatenate([near(1 - 1e-12, 2000)[:500], rng.uniform(-1, 1, 500), near(0.5**0.5, 3)[:500]])
        s *= sign
        gamma = sign * 10 ** rng.uniform(-3, 160, n)
        gamma[:300] = near(-1.0, 5)[:300] / s[:300]
        p = rng.uniform(0, 1, n)
        p[:40], p[40:80] = 0.0, 1.0
        q = np.sqrt(p * (1 - p)) * rng.choice([-1.0, 1.0], n) + rng.normal(size=n) * 10 ** rng.uniform(-13, -8, n)
        deg = slice(1000, 1400)  # Tr(O rho) = 1 - 2|q s| straddles 0 and 1e-12
        p[deg] = 0.5
        s[deg] = sign[deg] * near(1 - 1e-11, 4000)[deg]
        q[deg] = -sign[deg] * (0.5 + rng.uniform(4e-12, 5.5e-12, 400))
        band = slice(500, 600)  # a+ O a = 1 + 2 s gamma + gamma^2 overflows from |gamma| ~ 1.34e154
        gamma[band] = sign[band] * 10 ** rng.uniform(154, 154.5, 100)
        seen = Counter()
        for params in ({"s": s, "gamma": gamma}, {"s": s, "p": p, "q": q}):
            table, proven = cli._sweep_table(params, n)
            for i in range(n):
                step = {name: float(column[i]) for name, column in params.items()}
                try:
                    with np.errstate(all="ignore"):
                        row = cli._sweep_step(step)
                except (LowdinKitError, ValueError) as exc:
                    assert not proven[i], (step, exc)
                    # Pure weights are a distribution by construction.
                    assert "weights sum to" not in str(exc), (step, exc)
                    seen[type(exc).__name__] += 1
                    continue
                seen["valid", bool(proven[i])] += 1
                if proven[i]:
                    assert [float(x) for x in row] == table[i].tolist(), step
        assert seen["valid", True] > 1500 and not seen["valid", False], seen
        assert min(seen[name] for name in ("NotPositiveDefinite", "ValueError", "InvalidParameters",
                                           "DegenerateTrace")) >= 50, seen

    def test_sweep_and_library_share_kernels(self, monkeypatch):
        # One arithmetic: the stacked pass reaches the state layer's kernels
        # with stacks of n = 7 steps, the per-state ops reach the same kernels
        # with one d = 3 state, and nothing else computes weights or traces.
        calls = defaultdict(list)
        for module, name in ((states, "_norm2"), (states, "_pure_weights"), (states, "_congruence"),
                             (states, "_lowdin_transform"), (states, "_density_weights"), (measures, "_ipr")):
            def recorded(*args, kernel=getattr(module, name), name=name):
                calls[name].append(tuple(np.shape(x) for x in args))
                return kernel(*args)
            monkeypatch.setattr(module, name, recorded)
        for fixed in ({"gamma": 0.6}, {"p": 0.6, "q": 0.2}):
            run_sweep(parse_sweep_spec({"parameter": "s", "range": [-0.5, 0.5], "steps": 7, "fixed": fixed}))
        assert dict(calls) == {
            "_norm2": [((7, 2, 2), (7, 2))], "_pure_weights": [((7, 2, 2), (7, 2))],
            "_congruence": [((7, 2, 2), (7, 2, 2))], "_lowdin_transform": [((7, 2, 2), (7, 1, 1))],
            "_density_weights": [((7, 2, 2),)], "_ipr": [((7, 2),), ((7, 2),)]}
        calls.clear()
        g = gram_from_overlaps(OverlapSpec(3, [(1, 2, 0.3), (2, 3, -0.2j)]))
        measure_report(weights_pure(normalize_pure(g, [1.0, 0.5j, -0.2])))
        op = DensityOperator(g, np.diag([0.5, 0.3, 0.2]))
        measure_report(weights_density(op))
        assert dict(calls) == {
            "_norm2": [((3, 3), (3,))], "_pure_weights": [((3, 3), (3,))],
            "_congruence": [((3, 3), (3, 3))], "_lowdin_transform": [((3, 3), ())],
            "_density_weights": [((3, 3),)], "_ipr": [((3,),), ((3,),)]}

    def test_rows_match_exact_2x2_oracle(self):
        # Sharing no code with the library, so that a kernel slip that moves the
        # sweep and the library together still fails: O = [[1, s], [s, 1]] has
        # O^{1/2} = [[c, t], [t, c]] with c = (r+ + r-) / 2 and t = s / (r+ + r-),
        # r+- = sqrt(1 +- s), a form with no cancellation. Pure rows are
        # (c + t gamma)^2 and (t + c gamma)^2 over their sum; density rows are
        # the closed-form 2-d weights.
        rng = corpus_rng(71)
        n = 4000
        s = rng.uniform(-0.99, 0.99, n)
        gamma = rng.normal(0.0, 3.0, n)
        p = rng.uniform(0.0, 1.0, n)
        q = rng.uniform(-1.0, 1.0, n) * np.sqrt(p * (1.0 - p))
        r = np.sqrt(1.0 + s) + np.sqrt(1.0 - s)
        c, t = r / 2.0, s / r
        pure = np.column_stack([(c + t * gamma) ** 2, (t + c * gamma) ** 2])
        pure /= pure.sum(axis=1, keepdims=True)
        density = np.array([closed_form_2d_weights(*x).weights for x in zip(p.tolist(), q.tolist(), s.tolist())])
        for params, w in (({"s": s, "gamma": gamma}, pure), ({"s": s, "p": p, "q": q}, density)):
            table, proven = cli._sweep_table(params, n)
            assert proven.all()
            entropy = [-sum(x * np.log2(x) for x in row if x > 1e-15) for row in w.tolist()]
            ipr = w[:, 0] ** 2 + w[:, 1] ** 2
            oracle = np.column_stack([w, entropy, 1.0 / ipr, ipr])
            assert np.abs(table - oracle).max() <= 1e-13

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(spec=accepted_sweep_specs())
    def test_accepted_specs_match_reference(self, spec):
        # The stacked pass trusts parse_sweep_spec for each step's domain:
        # across extreme gamma and q, s near +-1 and q^2 near p(1 - p), every
        # accepted spec gives the per-step reference's CSV, or its error and
        # numpy warnings.
        assert _result(run_sweep, parse_sweep_spec(spec)) == _result(_sweep_reference, spec)

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


class TestInputNumbers:
    """Every number in an input file is a JSON number; anything else is an
    input error (exit 2), never a traceback."""

    PURE = [[1.0, 0.0], [0.6, 0.0]]

    @pytest.mark.parametrize("entry", [
        [True, 2, 0.4, 0.0],
        [1, False, 0.4, 0.0],
        [1, 2.0, 0.4, 0.0],
        [1, 2, "0.4", 0],
        [1, 2, [0.4], 0],
        [1, 2, 0.4, None],
        [1, 2, True, 0],
    ])
    def test_overlap_entry_rejected(self, capsys, tmp_path, entry):
        # A bad index is reported by OverlapSpec, a bad value by the file parser.
        bad_index = any(type(i) is not int for i in entry[:2])
        prefix = "overlap pair" if bad_index else "gram.overlaps"
        state = write_json(
            tmp_path / "state.json",
            {"gram": {"dim": 2, "overlaps": [entry]}, "pure": self.PURE},
        )
        code, out, err = run_cli(capsys, ["weights", "--state", state])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: ValueError: {prefix}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("entry, pair", [
        ([True, 2, 0.4, 0.0], "(True, 2, (0.4+0j))"),
        ([1, False, 0.4, 0.0], "(1, False, (0.4+0j))"),
        ([1, 2.0, 0.4, 0.0], "(1, 2.0, (0.4+0j))"),
        ([1.5, 2, 0.3, 0], "(1.5, 2, (0.3+0j))"),
    ])
    def test_overlap_index_rejected(self, capsys, tmp_path, entry, pair):
        # OverlapSpec is the one place that checks the pair indices.
        state = write_json(
            tmp_path / "state.json",
            {"gram": {"dim": 2, "overlaps": [entry]}, "pure": self.PURE},
        )
        assert run_cli(capsys, ["weights", "--state", state]) == (
            2, "", f"error: ValueError: overlap pair {pair} needs integer indices\n")

    def test_integer_overlap_values_accepted(self, capsys, tmp_path):
        state = write_json(
            tmp_path / "state.json",
            {"gram": {"dim": 2, "overlaps": [[1, 2, 0, 0]]}, "pure": self.PURE},
        )
        assert run_cli(capsys, ["weights", "--state", state])[0] == 0

    @pytest.mark.parametrize("change", [
        {"fixed": {"gamma": [0.6]}},
        {"fixed": {"gamma": None}},
        {"fixed": {"gamma": "0.6"}},
        {"fixed": {"gamma": True}},
        {"range": ["0.1", 0.4]},
        {"range": [0.1, [0.4]]},
        {"range": [False, 0.4]},
        {"parameter": ["s"]},
        {"out": 1},
    ])
    def test_sweep_field_rejected(self, capsys, tmp_path, change):
        spec = {"parameter": "s", "range": [0.1, 0.4], "steps": 2, "fixed": {"gamma": 0.6},
                "out": str(tmp_path / "x.csv")}
        spec.update(change)
        code, out, err = run_cli(capsys, ["sweep", "--spec", write_json(tmp_path / "s.json", spec)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ValueError: sweep")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("pure", [[float("nan"), 0.0], [1.0, 0.0]], "state coefficients contain"),
        ("pure", [[1.0, float("inf")], [1.0, 0.0]], "state coefficients contain"),
        ("rho", [[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
         "coefficient matrix contains"),
    ])
    def test_non_finite_coefficients_rejected(self, capsys, tmp_path, field, value, message):
        state = write_json(
            tmp_path / "state.json", {"gram": {"dim": 2, "overlaps": []}, field: value}
        )
        code, out, err = run_cli(capsys, ["weights", "--state", state])
        assert (code, out) == (2, "")
        assert err == f"error: ValueError: {message} non-finite entries\n"

    BIG = 10**400  # written as a 401-digit JSON integer, beyond the largest float

    @pytest.mark.parametrize("command, flag, obj, field", [
        ("orthogonalize", "--basis",
         {"ambient_dim": 2, "vectors": [[[1, 0], [0, 0]], [[0, 0], [BIG, 0]]]}, "basis.vectors[1]"),
        ("weights", "--state",
         {"gram": {"dim": 2, "matrix": [[1, 0], [0, BIG], [0, 0], [1, 0]]}, "pure": PURE}, "gram.matrix"),
        ("weights", "--state",
         {"gram": {"dim": 2, "overlaps": [[1, 2, -BIG, 0]]}, "pure": PURE}, "gram.overlaps"),
        ("weights", "--state", {"gram": {"dim": 2, "overlaps": []}, "pure": [[1, 0], [BIG, 0]]},
         "state.pure"),
        ("weights", "--state",
         {"gram": {"dim": 2, "overlaps": []}, "rho": [[BIG, 0], [0, 0], [0, 0], [0, 0]]}, "state.rho"),
        ("sweep", "--spec", {"parameter": "s", "range": [0.1, BIG], "steps": 2, "fixed": {"gamma": 0.6}},
         "sweep.range"),
        ("sweep", "--spec", {"parameter": "s", "range": [0.1, 0.4], "steps": 2, "fixed": {"gamma": BIG}},
         "sweep.fixed.gamma"),
    ])
    def test_integer_too_large_for_a_float(self, capsys, tmp_path, command, flag, obj, field):
        # float() overflows on each; the command still ends with one error line and exit 2.
        argv = [command, flag, write_json(tmp_path / "in.json", obj), "--out", str(tmp_path / "out")]
        if command == "orthogonalize":
            argv += ["--method", "lowdin-sym"]
        assert run_cli(capsys, argv) == (
            2, "", f"error: ValueError: {field}: integer too large for a float\n")
        assert not (tmp_path / "out").exists()

    def test_overflowing_pure_norm_rejected(self, capsys, tmp_path):
        state = write_json(
            tmp_path / "state.json",
            {"gram": {"dim": 2, "overlaps": []}, "pure": [[1e200, 0.0], [0.0, 0.0]]},
        )
        code, out, err = run_cli(capsys, ["weights", "--state", state])
        assert (code, out) == (2, "")
        assert err == "error: ValueError: state coefficients overflow a+Oa = inf\n"

    def test_overflowing_sweep_state_rejected(self, capsys, tmp_path):
        spec = {"parameter": "s", "range": [0.1, 0.4], "steps": 2, "fixed": {"gamma": 1e200},
                "out": str(tmp_path / "x.csv")}
        code, out, err = run_cli(capsys, ["sweep", "--spec", write_json(tmp_path / "s.json", spec)])
        assert (code, out) == (2, "")
        assert err == "error: ValueError: state coefficients overflow a+Oa = inf\n"
        assert not (tmp_path / "x.csv").exists()


def sweep_spec(**change):
    return {"parameter": "s", "range": [0.1, 0.4], "steps": 2, "fixed": {"gamma": 0.6}, **change}


class TestInputErrors:
    """Each malformed input, and each sweep that steps outside the library's
    domain, exits with its code and one fixed stderr line."""

    PURE = [[1.0, 0.0], [0.6, 0.0]]
    PLANE = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]

    def _sweep(self, capsys, tmp_path, spec):
        out_csv = tmp_path / "x.csv"
        spec_path = write_json(tmp_path / "spec.json", spec)
        result = run_cli(capsys, ["sweep", "--spec", spec_path, "--out", str(out_csv)])
        assert not out_csv.exists()
        return result

    @pytest.mark.parametrize("spec, message", [
        ([0.1, 0.4], "sweep: expected a JSON object"),
        ({"parameter": "s"}, "sweep: missing fields ['range', 'steps']"),
        (sweep_spec(range=[0.1, 0.2, 0.3]), "sweep: 'range' must be [lo, hi]"),
        (sweep_spec(fixed=[["gamma", 0.6]]), "sweep: 'fixed' must be an object"),
        (sweep_spec(parameter="theta"), "sweep: unknown parameter 'theta'"),
        (sweep_spec(range=[0.4, 0.1]), "sweep: range [0.4, 0.1] needs lo < hi"),
        (sweep_spec(steps=2.0), "sweep: steps must be an integer >= 2"),
        (sweep_spec(steps=1), "sweep: steps must be an integer >= 2"),
        (sweep_spec(range=[0.1, 1.0]), "sweep: bound 1.0 outside the domain of 's'"),
        (sweep_spec(fixed={"gamma": 0.6, "theta": 1.0}), "sweep: unknown fixed parameter 'theta'"),
        (sweep_spec(fixed={"gamma": 0.6, "s": 0.2}), "sweep: 's' is both swept and fixed"),
        (sweep_spec(parameter="gamma", range=[0.0, 1.0], fixed={"s": 1.0}),
         "sweep: fixed s = 1.0 outside its domain"),
        (sweep_spec(parameter="q", range=[0.0, 0.1], fixed={"p": 1.5, "s": 0.0}),
         "sweep: fixed p = 1.5 outside its domain"),
        (sweep_spec(fixed={"p": 0.5}),
         "sweep: parameters must form {gamma, s} or {p, q, s}, got ['p', 's']"),
        # Two faults: the check that runs first names its own.
        (sweep_spec(parameter="theta", fixed={"gamma": "x"}),
         "sweep.fixed.gamma: expected a number, got 'x'"),
        (sweep_spec(parameter="theta", range=[0.4, 0.1]), "sweep: unknown parameter 'theta'"),
        (sweep_spec(range=[0.4, 0.1], steps=1), "sweep: range [0.4, 0.1] needs lo < hi"),
        (sweep_spec(range=[0.1, 1.0], steps=1), "sweep: steps must be an integer >= 2"),
        (sweep_spec(range=[0.1, 1.0], fixed={"theta": 1.0}),
         "sweep: bound 1.0 outside the domain of 's'"),
        # np.linspace would overflow forming hi - lo, and warn.
        (sweep_spec(parameter="gamma", range=[-1e308, 1e308], steps=3, fixed={"s": 0.3}),
         "sweep: range [-1e+308, 1e+308] is wider than the largest float"),
        (sweep_spec(parameter="q", range=[-1e308, 1e308], fixed={"p": 0.5, "s": 0.3}),
         "sweep: range [-1e+308, 1e+308] is wider than the largest float"),
        # Two faults: the width is checked before the fixed values.
        (sweep_spec(parameter="q", range=[-1e308, 1e308], fixed={"p": 0.5, "s": 1.0}),
         "sweep: range [-1e+308, 1e+308] is wider than the largest float"),
    ])
    def test_sweep_spec_rejected(self, capsys, tmp_path, spec, message):
        assert self._sweep(capsys, tmp_path, spec) == (2, "", f"error: ValueError: {message}\n")

    @pytest.mark.parametrize("spec, error", [
        (sweep_spec(parameter="gamma", range=[0.5, 1.5], steps=3, fixed={"s": 0.9999999999999}),
         "NotPositiveDefinite: smallest eigenvalue 1.000e-13 is at or below 1e-12 "
         "(largest eigenvalue 2.000e+00, dimension 2)"),
        (sweep_spec(parameter="p", range=[0.5, 1.0], steps=6, fixed={"q": 0.3, "s": 0.2}),
         "InvalidParameters: coefficient matrix has eigenvalue -8.310e-02 below -1e-10"),
        (FAILING_SWEEPS[0], "InvalidParameters: coefficient matrix has eigenvalue -1.000e-01 below -1e-10"),
        (FAILING_SWEEPS[1], "InvalidParameters: coefficient matrix has eigenvalue -1.597e-03 below -1e-10"),
    ])
    def test_sweep_step_outside_domain(self, capsys, tmp_path, spec, error):
        assert self._sweep(capsys, tmp_path, spec) == (3, "", f"error: {error}\n")

    def test_sweep_too_large_to_allocate(self, capsys, tmp_path):
        # 8 PB of step values lie beyond a 47-bit address space, so the
        # allocation fails at once whatever the overcommit policy.
        code, out, err = self._sweep(capsys, tmp_path, sweep_spec(steps=10**15))
        assert (code, out) == (2, "")
        assert err.startswith("error: MemoryError: Unable to allocate ") and err.count("\n") == 1

    @pytest.mark.parametrize("state, message", [
        ([1], "state: expected a JSON object"),
        ({"pure": PURE}, "state: missing field 'gram'"),
        ({"gram": [2], "pure": PURE}, "gram: expected a JSON object"),
        ({"gram": {"dim": 2.0, "overlaps": []}, "pure": PURE},
         "gram: field 'dim' must be an integer"),
        ({"gram": {"dim": 2, "overlaps": {"1": 0.4}}, "pure": PURE},
         "gram: field 'overlaps' must be a list"),
        ({"gram": {"dim": 2, "overlaps": [[1, 2, 0.4]]}, "pure": PURE},
         "gram.overlaps: expected [i, j, re, im], got [1, 2, 0.4]"),
        ({"gram": {"dim": 2, "matrix": [[1.0, 0.0], [0.4, 0.0], [1.0, 0.0]]}, "pure": PURE},
         "gram.matrix: expected 4 entries, got 3"),
        ({"gram": {"dim": 2, "overlaps": []}, "pure": []},
         "state.pure: expected a non-empty list of [re, im] pairs"),
    ])
    def test_state_rejected(self, capsys, tmp_path, state, message):
        path = write_json(tmp_path / "state.json", state)
        assert run_cli(capsys, ["weights", "--state", path]) == (
            2, "", f"error: ValueError: {message}\n")

    @pytest.mark.parametrize("form", ["matrix", "overlaps"])
    @pytest.mark.parametrize("dim", [-2, -1, 0, 1])
    def test_dim_below_two_rejected(self, capsys, tmp_path, dim, form):
        # Both forms say so alike; the dense form used to reach numpy's reshape.
        entries = [[1, 0]] * max(dim * dim, 1) if form == "matrix" else []
        path = write_json(tmp_path / "state.json", {"gram": {"dim": dim, form: entries}, "pure": self.PURE})
        assert run_cli(capsys, ["weights", "--state", path]) == (
            2, "", "error: ValueError: dim must be >= 2\n")

    @pytest.mark.parametrize("gram", [
        {"dim": 2, "overlaps": [[1, 2, 1.2, 0.0]]},
        {"dim": 2, "matrix": [[1.0, 0.0], [1.2, 0.0], [1.2, 0.0], [1.0, 0.0]]},
    ])
    def test_unit_magnitude_overlap_is_math_error(self, capsys, tmp_path, gram):
        # Both forms of the Gram fail in GramMatrix, naming the pair.
        path = write_json(tmp_path / "state.json", {"gram": gram, "pure": self.PURE})
        assert run_cli(capsys, ["weights", "--state", path]) == (3, "", (
            "error: NotPositiveDefinite: an off-diagonal overlap has magnitude >= 1: "
            "|O_ij| = 1.2 at (1, 2)\n"))

    def test_overflowing_asymmetry_is_math_error(self, capsys, tmp_path):
        # ||O||_F overflows; the identity Gram's weights used to come out.
        gram = {"dim": 2, "matrix": [[1, 0], [1e308, 0], [-1e308, 0], [1, 0]]}
        path = write_json(tmp_path / "state.json", {"gram": gram, "pure": self.PURE})
        assert run_cli(capsys, ["weights", "--state", path]) == (
            3, "", "error: NotHermitian: overlap matrix asymmetry inf exceeds 1.414e+298\n")

    @pytest.mark.parametrize("command, flag, obj", [
        ("weights", "--state", {"gram": {"dim": 2, "overlaps": []}, "pure": [[1e200, 0.0], [0.0, 0.0]]}),
        ("sweep", "--spec", WIDE_SWEEP),
    ])
    def test_failure_writes_one_stderr_line(self, tmp_path, command, flag, obj):
        # numpy's overflow warnings do not reach the process's stderr.
        argv = [command, flag, write_json(tmp_path / "in.json", obj), "--out", str(tmp_path / "out")]
        proc = subprocess.run([sys.executable, "-m", "lowdin_kit", *argv], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: ValueError: state coefficients overflow a+Oa = inf\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("basis, message", [
        ([1], "basis: expected a JSON object"),
        ({"ambient_dim": 2, "vectors": [[[1.0, 0.0]], PLANE[1]]},
         "basis.vectors[0]: length 1 != ambient_dim 2"),
        ({"ambient_dim": 2, "vectors": [[[1.0, 0.0], [float("nan"), 0.0]], PLANE[1]]},
         "basis vectors contain non-finite entries"),
        ({"ambient_dim": 2, "vectors": [[[1.0, 0.0], [0.0, float("inf")]], PLANE[1]]},
         "basis vectors contain non-finite entries"),
    ])
    def test_basis_rejected(self, capsys, tmp_path, basis, message):
        path = write_json(tmp_path / "basis.json", basis)
        assert run_cli(capsys, ["orthogonalize", "--basis", path, "--method", "lowdin-sym"]) == (
            2, "", f"error: ValueError: {message}\n")

    @pytest.mark.parametrize("field, entries, message", [
        ("pure", [[1, 0], [0, 0]], "coefficient length 2 != overlap dimension 1000000"),
        ("rho", [[1, 0], [0, 0], [0, 0], [0, 0]], "state.rho: expected 1000000000000 entries, got 4"),
    ])
    def test_entries_counted_before_gram_is_built(self, capsys, tmp_path, field, entries, message):
        # A 10^6 x 10^6 complex Gram needs 14.6 TiB: the allocation fails at
        # once if the count check does not come first.
        path = write_json(tmp_path / "state.json",
                          {"gram": {"dim": 1000000, "overlaps": []}, field: entries})
        assert run_cli(capsys, ["weights", "--state", path]) == (
            2, "", f"error: ValueError: {message}\n")

    def test_parse_state_peak_memory(self):
        # A 16 KB file names a 500 x 500 Gram. At its peak parse_state holds
        # four complex d x d arrays: the assembled O, its Hermitian part, the
        # Cholesky operand O - sigma I and its factor.
        d = 500
        tracemalloc.start()
        try:
            parse_state({"gram": {"dim": d, "overlaps": []}, "pure": [[1, 0]] * d})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.25 * 16 * d * d

    def test_deep_nesting_in_file(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, ["weights", "--state", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: RecursionError: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    def test_deep_nesting_in_echoed_input(self, capsys, tmp_path):
        note = 0
        for _ in range(500):
            note = [note]
        path = write_json(tmp_path / "basis.json",
                          {"ambient_dim": 2, "vectors": self.PLANE, "note": note})
        code, out, err = run_cli(capsys, ["orthogonalize", "--basis", path, "--method", "lowdin-sym"])
        assert (code, out) == (2, "")
        assert err.startswith("error: RecursionError: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    def test_non_integer_order_rejected(self, capsys, plane_basis_file):
        argv = ["orthogonalize", "--basis", plane_basis_file, "--method", "gram-schmidt",
                "--order", "1,x"]
        assert run_cli(capsys, argv) == (
            2, "", "error: ValueError: --order must be comma-separated integers, got '1,x'\n")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command, flag, source, expected", [
    ("sweep", "--spec", "readme_sweep.json", "readme_sweep.csv"),
    ("sweep", "--spec", "density_sweep.json", "density_sweep.csv"),
    ("weights", "--state", "readme_pure.json", "readme_pure.report.json"),
    ("weights", "--state", "readme_rho.json", "readme_rho.report.json"),
    ("weights", "--state", "complex_rho.json", "complex_rho.report.json"),
    ("weights", "--state", "zero_overlap.json", "zero_overlap.report.json"),
])
def test_output_matches_golden_bytes(tmp_path, command, flag, source, expected):
    # Files written by an earlier version of the CLI. All are 2x2 or 3x3
    # cases, so the bytes do not depend on which BLAS kernels run.
    # zero_overlap's pairwise Gram leaves the pair (1, 3) unspecified, a zero
    # overlap whose signs eigh reads.
    out = tmp_path / expected
    assert main([command, flag, str(GOLDEN / source), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / expected).read_bytes()


def test_replayed_sweep_refusal_matches_golden(capsys, tmp_path):
    # Step 9's O has lambda_min 1e-13, which the stacked pass cannot prove; its
    # replay through the library refuses it, and nothing is written.
    out = tmp_path / "singular.csv"
    assert run_cli(capsys, ["sweep", "--spec", str(GOLDEN / "singular_sweep.json"), "--out", str(out)]) == (
        3, "", (GOLDEN / "singular_sweep.stderr").read_text())
    assert not out.exists()


@pytest.mark.parametrize("options, expected", [
    (["--method", "gram-schmidt"], "readme_basis.gram-schmidt.report.json"),
    (["--method", "gram-schmidt", "--order", "2,1"], "readme_basis.gram-schmidt.order-2-1.report.json"),
    (["--method", "lowdin-sym"], "readme_basis.lowdin-sym.report.json"),
    (["--method", "lowdin-can"], "readme_basis.lowdin-can.report.json"),
    (["--method", "gram-schmidt"], "edge_basis.gram-schmidt.report.json"),
    (["--method", "gram-schmidt", "--order", "3,1,2"], "edge_basis.gram-schmidt.order-3-1-2.report.json"),
    (["--method", "lowdin-sym"], "edge_basis.lowdin-sym.report.json"),
    (["--method", "lowdin-can"], "edge_basis.lowdin-can.report.json"),
])
def test_orthogonalize_matches_golden_bytes(tmp_path, options, expected):
    # README's 2x2 basis and a 3x3 basis through each engine, as written by an
    # earlier version. The 3x3 basis has int and exactly zero entries, and an
    # extra key whose echo holds ints, signed zeros, e+12 to e+16, subnormals
    # and the largest double.
    out = tmp_path / expected
    basis = GOLDEN / f"{expected.split('.')[0]}.json"
    assert main(["orthogonalize", "--basis", str(basis), *options, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / expected).read_bytes()


class TestPaperCheck:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run_cli(capsys, ["paper-check"])
        assert code == 0
        lines = out.splitlines()
        pass_rows = [ln for ln in lines if ln.endswith("PASS")]
        assert len(pass_rows) >= 15
        assert not any(ln.endswith("FAIL") for ln in lines)

    def test_checks_load_only_where_they_run(self, tmp_path, beta_state_file, plane_basis_file):
        # A fresh process: weights, orthogonalize and a sweep whose failing
        # step is replayed leave the reference checks unloaded; paper-check loads them.
        singular = write_json(tmp_path / "singular.json", {"parameter": "s", "range": [0.5, 0.9999999999999],
                                                           "steps": 9, "fixed": {"gamma": 1.0}})
        script = f"""
import contextlib, io, sys
import numpy as np
from lowdin_kit import cli
loaded = [("lowdin_kit.checks" in sys.modules)]
with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
    codes = [cli.main(["weights", "--state", {beta_state_file!r}]),
             cli.main(["orthogonalize", "--basis", {plane_basis_file!r}, "--method", "gram-schmidt"])]
    loaded.append("lowdin_kit.checks" in sys.modules)
    table, proven = cli._sweep_table({{"gamma": 0.6, "s": np.array([0.4])}}, 1)
    row = cli._sweep_step({{"gamma": 0.6, "s": 0.4}})
    codes.append(cli.main(["sweep", "--spec", {singular!r}, "--out", {str(tmp_path / "out.csv")!r}]))
    loaded.append("lowdin_kit.checks" in sys.modules)
    codes.append(cli.main(["paper-check"]))
    loaded.append("lowdin_kit.checks" in sys.modules)
print(loaded, codes, bool(proven.all()), tuple(table[0]) == row, out.getvalue().endswith(" 0 failed\\n"))
print(err.getvalue(), end="")
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == [
            "[False, False, False, True] [0, 0, 3, 0] True True True",
            "error: NotPositiveDefinite: smallest eigenvalue 1.000e-13 is at or below 1e-12 "
            "(largest eigenvalue 2.000e+00, dimension 2)"]

    def test_console_script_entry_point(self, capsys, monkeypatch):
        # [project.scripts] lowdin-kit = "lowdin_kit.cli:entrypoint"
        monkeypatch.setattr(sys, "argv", ["lowdin-kit", "paper-check"])
        with pytest.raises(SystemExit) as exit_info:
            cli.entrypoint()
        assert exit_info.value.code == 0
        assert "passed, 0 failed" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lowdin_kit", "paper-check"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "passed, 0 failed" in proc.stdout
