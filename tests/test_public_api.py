import enum
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

import lowdin_kit
from lowdin_kit import checks, cli

README = Path(__file__).resolve().parent.parent / "README.md"

# The public API. A change to lowdin_kit.__all__ is a deliberate edit of this list.
PUBLIC_NAMES = [
    "BasisSet",
    "ConvergenceFailure",
    "DegenerateTrace",
    "DensityOperator",
    "DimensionMismatch",
    "GramMatrix",
    "HermitianEigenDecomposition",
    "InvalidParameters",
    "LinearlyDependent",
    "LowdinKitError",
    "LowdinTransformedState",
    "MeasureReport",
    "NotHermitian",
    "NotNormalized",
    "NotPositiveDefinite",
    "OrthoMethod",
    "OrthoResult",
    "OverlapSpec",
    "PureState",
    "UnsupportedDimension",
    "WeightDistribution",
    "ZeroState",
    "chirgwin_coulson_weights",
    "closed_form_2d_weights",
    "distortion",
    "golden_state_3d",
    "gram_from_overlaps",
    "gram_from_vectors",
    "gram_schmidt",
    "hermitian_eig",
    "induce_nonorthogonal",
    "inverse_participation_ratio",
    "lowdin_canonical",
    "lowdin_coeffs",
    "lowdin_density",
    "lowdin_symmetric",
    "maximally_coherent_image",
    "measure_report",
    "normalize_pure",
    "offdiagonal_decomposition",
    "participation_ratio",
    "random_gram",
    "shannon_entropy",
    "weights_density",
    "weights_pure",
]


def test_all_is_the_pinned_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert lowdin_kit.__all__ == PUBLIC_NAMES


def test_every_public_name_imports():
    namespace = {}
    exec("from lowdin_kit import *", namespace)
    assert set(PUBLIC_NAMES) <= namespace.keys()


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n+```python\n(.*?)^```$", text, re.M | re.S)
    assert block, "README has no python block under 'Library quick start'"
    exec(compile(block.group(1), str(README), "exec"), {})
    numbers = [float(x) for x in re.findall(r"\d+\.\d+(?:e[-+]?\d+)?", capsys.readouterr().out)]
    # The block's comments promise weights ~ (0.66, 0.34) and an entropy ~ 0.925 bits.
    assert numbers[:2] == pytest.approx([0.66, 0.34], abs=5e-3)
    assert numbers[2:] == pytest.approx([0.925], abs=5e-4)


_BIG = 10**400  # a Python integer beyond the largest float
_G2 = lowdin_kit.GramMatrix([[1.0, 0.2], [0.2, 1.0]])
_OVERFLOWING_ENTRIES = {
    "PureState": (lambda: lowdin_kit.PureState(_G2, [_BIG, 0]), "state coefficients"),
    "normalize_pure": (lambda: lowdin_kit.normalize_pure(_G2, [_BIG, 0]), "state coefficients"),
    "DensityOperator": (lambda: lowdin_kit.DensityOperator(_G2, [[_BIG, 0], [0, 1]]), "coefficient matrix"),
    "GramMatrix": (lambda: lowdin_kit.GramMatrix([[1, _BIG], [_BIG, 1]]), "overlap matrix"),
    "BasisSet": (lambda: lowdin_kit.BasisSet([[_BIG, 0], [0, 1]]), "basis vectors"),
    "gram_from_vectors": (lambda: lowdin_kit.gram_from_vectors([[_BIG, 0], [0, 1]]), "basis vectors"),
    "WeightDistribution": (lambda: lowdin_kit.WeightDistribution([_BIG, 0]), "weights"),
    "hermitian_eig": (lambda: lowdin_kit.hermitian_eig([[_BIG, 0], [0, 1]]), "matrix"),
    "LowdinTransformedState": (
        lambda: lowdin_kit.LowdinTransformedState([[_BIG, 0], [0, 1]]), "transformed state",
    ),
    "shannon_entropy": (lambda: lowdin_kit.shannon_entropy([_BIG, 0]), "weights"),
    "measure_report": (lambda: lowdin_kit.measure_report([_BIG, 0]), "weights"),
}


@pytest.mark.parametrize("entry", _OVERFLOWING_ENTRIES)
def test_integer_beyond_float_range_is_a_value_error(entry):
    # Each entry names its argument, as OverlapSpec names its pair.
    call, what = _OVERFLOWING_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{what}: entry too large for a float$"):
        call()


# numpy's array conversion and Python's float() parse text; the library does not,
# as the file parser does not. Its scalar arguments are held to the parser's rule.
_NOT_NUMBERS = {
    "GramMatrix": (lambda: lowdin_kit.GramMatrix([["1", "0"], ["0", "1"]]),
                   "overlap matrix: expected numbers, got text"),
    "normalize_pure": (lambda: lowdin_kit.normalize_pure(_G2, ["1", "0"]),
                       "state coefficients: expected numbers, got text"),
    "closed_form_2d_weights": (lambda: lowdin_kit.closed_form_2d_weights("0.5", 0.1, 0.3),
                               "p: expected a number, got '0.5'"),
    "random_gram": (lambda: lowdin_kit.random_gram(3, 1, ("-0.2", "0.2")),
                    "overlap_range: expected a number, got '-0.2'"),
    "golden_state_3d": (lambda: lowdin_kit.golden_state_3d("-0.2"), "s: expected a number, got '-0.2'"),
    "object array": (lambda: lowdin_kit.DensityOperator(_G2, np.array([[0.5, "0"], [0, 0.5]], dtype=object)),
                     "coefficient matrix: expected numbers, got text"),
    "bytes": (lambda: lowdin_kit.WeightDistribution([b"0.5", b"0.5"]), "weights: expected numbers, got text"),
    "bool scalar": (lambda: lowdin_kit.golden_state_3d(False), "s: expected a number, got False"),
    "bool range": (lambda: lowdin_kit.random_gram(3, 1, (False, 0.2)), "overlap_range: expected a number, got False"),
    "big scalar": (lambda: lowdin_kit.closed_form_2d_weights(_BIG, 0.1, 0.3), "p: integer too large for a float"),
    "big range": (lambda: lowdin_kit.random_gram(3, 1, (-_BIG, 0.2)), "overlap_range: integer too large for a float"),
}


@pytest.mark.parametrize("entry", _NOT_NUMBERS)
def test_text_and_bools_are_value_errors(entry):
    call, message = _NOT_NUMBERS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# The package's records: each class, its constructor's parameters with their
# defaults (EMPTY: required), a factory of valid arguments, and whether it
# compares by value (its fields) or by identity.
EMPTY = inspect.Parameter.empty


def _params(*required, **defaults):
    return [(name, EMPTY) for name in required] + list(defaults.items())


# AnalysisReport's fields after command and input, each None unless set.
_REPORT_OPTIONAL = dict.fromkeys(["method", "order", "basis", "transform", "distortion", "orthonormality_error",
                                  "lowdin_coefficients", "weights", "rho_lowdin", "offdiagonal_artifact",
                                  "offdiagonal_genuine", "measures"])
_RECORDS = {
    "GramMatrix": (lowdin_kit.GramMatrix, _params("matrix"), lambda: ([[1.0, 0.2], [0.2, 1.0]],), False),
    "OverlapSpec": (lowdin_kit.OverlapSpec, _params("dim", pairs=()), lambda: (2, [(1, 2, 0.2)]), True),
    "HermitianEigenDecomposition": (lowdin_kit.HermitianEigenDecomposition,
                                    _params("eigenvalues", "eigenvectors"), lambda: (np.ones(2), np.eye(2)), False),
    "MeasureReport": (lowdin_kit.MeasureReport,
                      _params("entropy", "participation_ratio", "inverse_participation_ratio"),
                      lambda: (1.0, 2.0, 0.5), True),
    "BasisSet": (lowdin_kit.BasisSet, _params("vectors"), lambda: (np.eye(2),), False),
    "OrthoResult": (lowdin_kit.OrthoResult,
                    _params("basis", "transform", "method", "distortion", "orthonormality_error"),
                    lambda: (lowdin_kit.BasisSet(np.eye(2)), np.eye(2), lowdin_kit.OrthoMethod.LOWDIN_SYMMETRIC,
                             0.0, 0.0), False),
    "PureState": (lowdin_kit.PureState, _params("gram", "coeffs"), lambda: (_G2, [1.0, 0.0]), False),
    "DensityOperator": (lowdin_kit.DensityOperator, _params("gram", "coeffs"),
                        lambda: (_G2, [[0.5, 0.0], [0.0, 0.5]]), False),
    "LowdinTransformedState": (lowdin_kit.LowdinTransformedState, _params("matrix"),
                               lambda: ([[0.5, 0.0], [0.0, 0.5]],), False),
    "WeightDistribution": (lowdin_kit.WeightDistribution, _params("weights"), lambda: ([0.5, 0.5],), False),
    "CheckRow": (checks.CheckRow, _params("name", "expected", "computed", "tol"),
                 lambda: ("row", np.ones(1), np.ones(1), 1e-12), False),
    "AnalysisReport": (cli.AnalysisReport, _params("command", "input", **_REPORT_OPTIONAL),
                       lambda: ("weights", {"dim": 2}, None, None, None, None, None, None, None, [0.5, 0.5]), False),
    "SweepSpec": (cli.SweepSpec, _params("parameter", "lo", "hi", "steps", "fixed", out=None),
                  lambda: ("s", 0.1, 0.4, 7, {"gamma": 0.6}), True),
}


def test_every_record_is_pinned():
    public = {name for name in lowdin_kit.__all__ if isinstance(getattr(lowdin_kit, name), type)
              and not issubclass(getattr(lowdin_kit, name), (Exception, enum.Enum))}
    assert public | {"CheckRow", "AnalysisReport", "SweepSpec"} == _RECORDS.keys()


@pytest.mark.parametrize("name", _RECORDS)
class TestRecordContract:
    """What a caller and the benchmark tracer rely on, record by record."""

    def test_signature(self, name):
        cls, params, _, _ = _RECORDS[name]
        found = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
        assert found == params
        # The tracer times a construction by wrapping the class's own __init__.
        assert "__init__" in vars(cls)

    def test_frozen(self, name):
        cls, params, args, _ = _RECORDS[name]
        obj = cls(*args())
        for field in [p for p, _ in params] + ["unknown"]:
            with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{field}'$"):
                setattr(obj, field, None)
            with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{field}'$"):
                delattr(obj, field)

    def test_repr(self, name):
        cls, params, args, _ = _RECORDS[name]
        obj = cls(*args())
        fields = ", ".join(f"{p}={getattr(obj, p)!r}" for p, _ in params)
        assert repr(obj) == f"{name}({fields})"

    def test_equality_and_hash(self, name):
        cls, params, args, by_value = _RECORDS[name]
        a, b = cls(*args()), cls(*args())
        assert a == a and not (a != a)
        if not by_value:
            assert a != b and not (a == b)
            assert hash(a) == object.__hash__(a)
            return
        assert a == b and not (a != b)
        values = tuple(getattr(a, p) for p, _ in params)
        try:
            hash(values)
        except TypeError as exc:  # a dict field, as a dataclass holding one
            with pytest.raises(TypeError, match=re.escape(str(exc))):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(values)
        first = vars(a)[params[0][0]]
        other = cls(*((first + "x" if isinstance(first, str) else first + 1),) + args()[1:])
        assert a != other and other != a
        assert (a == values) is False  # another type: NotImplemented both ways


def test_no_record_has_a_second_construction_phase():
    assert [name for name, (cls, *_) in _RECORDS.items() if hasattr(cls, "__post_init__")] == []


# The validating records, with arguments whose arrays are writeable arrays the
# caller keeps (complex or float already, so that no dtype conversion copies them).
_VALIDATING = {
    "GramMatrix": lambda: (np.array([[1.0, 0.2], [0.2, 1.0]], dtype=complex),),
    "OverlapSpec": lambda: (2, [(1, 2, 0.2)]),
    "BasisSet": lambda: (np.eye(2, dtype=complex),),
    "PureState": lambda: (_G2, np.array([1.0, 0.0], dtype=complex)),
    "DensityOperator": lambda: (_G2, np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)),
    "LowdinTransformedState": lambda: (np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex),),
    "WeightDistribution": lambda: (np.array([0.5, 0.5]),),
}


@pytest.mark.parametrize("name", _VALIDATING)
def test_validating_records_store_read_only_fields_of_their_own(name):
    args = _VALIDATING[name]()
    obj = _RECORDS[name][0](*args)
    caller = [a for a in args if isinstance(a, np.ndarray)]
    stored = [v for v in vars(obj).values() if isinstance(v, np.ndarray)]
    assert len(stored) == len(caller) + (name == "DensityOperator")  # and its rho_L
    for value in stored:
        assert not value.flags.writeable
        assert not any(np.shares_memory(value, a) for a in caller)
    assert all(a.flags.writeable for a in caller)
    for field, arg in zip(obj._fields, args):
        if isinstance(arg, (np.ndarray, list)):
            assert vars(obj)[field] is not arg


def test_decompositions_and_check_rows_compare_by_identity(monkeypatch):
    # Records holding arrays compare as objects; comparing their arrays
    # elementwise raised numpy's "truth value of an array is ambiguous".
    a, b = lowdin_kit.hermitian_eig(np.eye(2)), lowdin_kit.hermitian_eig(np.eye(2))
    assert a == a and a != b
    assert len({a, a, b}) == 2
    rows, again = checks.reference_rows(), checks.reference_rows()
    assert rows[0] == rows[0] and rows[0] != again[0]
    assert len(set(rows + again)) == 2 * len(rows)
    # The CLI's reports hold the engines' arrays: each command run twice.
    reports = []
    monkeypatch.setattr(cli.AnalysisReport, "to_json", lambda self: reports.append(self) or "")
    golden = README.parent / "tests" / "golden"
    for argv in (["weights", "--state", "readme_pure.json"], ["weights", "--state", "readme_rho.json"],
                 ["orthogonalize", "--basis", "readme_basis.json", "--method", "lowdin-sym"]):
        argv[2] = str(golden / argv[2])
        assert cli.main(argv) == cli.main(argv) == 0
    for report, again in zip(reports[::2], reports[1::2]):
        assert report == report and report != again
        assert len({report, report, again}) == 2


def test_cli_process_does_not_import_dataclasses(tmp_path):
    # Decorating the package's records as dataclasses cost about 10 ms of every
    # CLI process's start-up; the records are plain classes instead.
    script = (
        "import json, sys\n"
        "import numpy\n"
        "before = 'dataclasses' in sys.modules\n"
        "from lowdin_kit.cli import main\n"
        "code = main(['weights', '--state', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(json.dumps([code, before, 'dataclasses' in sys.modules]))\n"
    )
    golden = README.parent / "tests" / "golden"
    out = tmp_path / "report.json"
    src = str(README.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, str(golden / "readme_pure.json"), str(out)],
                          env=env, capture_output=True, text=True, check=True)
    code, before, after = json.loads(done.stdout)
    assert code == 0
    assert out.read_bytes() == (golden / "readme_pure.report.json").read_bytes()
    if before:
        pytest.skip("dataclasses was imported before lowdin_kit, by numpy or a site hook")
    assert not after
