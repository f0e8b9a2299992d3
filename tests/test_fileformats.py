"""Report encoding checked against the two-pass encoder it replaced.

The reference below is the former encoder: every element rounded as it is
converted (`complex_to_pair`), then the whole report rounded again by
`round_tree` and written by `json.dumps(indent=2)`. The vectorized encoders
plus the one-pass `to_json`, which formats each float once, must give the
same bytes, since 12-digit rounding is idempotent. The one-call pair
parser is checked the same way, against the per-pair parser it bypasses.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_basis
from lowdin_kit import cli, fileformats
from lowdin_kit.cli import AnalysisReport, main
from lowdin_kit.fileformats import basis_to_dict, matrix_to_pairs, vector_to_pairs

_OLD_REPORT_FIELDS = (
    "command",
    "input",
    "method",
    "order",
    "basis",
    "transform",
    "distortion",
    "orthonormality_error",
    "lowdin_coefficients",
    "weights",
    "rho_lowdin",
    "offdiagonal_artifact",
    "offdiagonal_genuine",
    "measures",
)


def _round12_old(x):
    return float(f"{float(x):.12g}")


def _round_tree_old(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _round12_old(obj)
    if isinstance(obj, dict):
        return {k: _round_tree_old(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree_old(v) for v in obj]
    return obj


def _complex_to_pair_old(z):
    return [_round12_old(z.real), _round12_old(z.imag)]


def _vector_to_pairs_old(v):
    return [_complex_to_pair_old(complex(z)) for z in np.asarray(v).reshape(-1)]


def _matrix_to_pairs_old(m):
    return _vector_to_pairs_old(np.asarray(m).reshape(-1))


def _basis_to_dict_old(b):
    return {
        "ambient_dim": b.ambient_dim,
        "vectors": [_vector_to_pairs_old(b.vectors[:, k]) for k in range(b.num_vectors)],
    }


def _to_json_old(report):
    out = {}
    for name in _OLD_REPORT_FIELDS:
        value = getattr(report, name)
        if value is not None:
            out[name] = _round_tree_old(value)
    return json.dumps(out, indent=2) + "\n"


def _floats(obj) -> int:
    if isinstance(obj, float):
        return 1
    if isinstance(obj, dict):
        return sum(_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(_floats(v) for v in obj)
    return 0


# Signed zero, the smallest subnormal, extreme exponents, and exact binary
# values whose 13th significant digit is a 5 (ties at 12 digits).
SPECIAL = np.array([
    -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
    1234567890125.0, 1234567890135.0, -123456789012.5, 123456789013.5, 2.0**-18, 0.1, 1.0 / 3.0,
])


def _arrays(seed: int):
    rng = np.random.default_rng(seed)
    mags = 10.0 ** rng.uniform(-300, 300, size=(2, 40))
    special = rng.permutation(SPECIAL)
    re = np.concatenate([special, rng.standard_normal(40) * mags[0]])
    im = np.concatenate([rng.permutation(SPECIAL), rng.standard_normal(40) * mags[1]])
    z = re + 1j * im
    return {
        "vector": z,
        "matrix": z[:49].reshape(7, 7),
        "real_vector": re,
        "real_matrix": re[:36].reshape(6, 6),
        "tiny_matrix": rng.standard_normal((3, 3)) * 1e-310,
    }


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _pairs_in(v):
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex).reshape(-1)]


def _cli_outputs(capsys, commands):
    outs = []
    for argv in commands:
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    return outs


@pytest.fixture
def report_commands(tmp_path):
    """orthogonalize (three methods and a Gram-Schmidt order) on a seeded
    d=8 basis, and weights for a pure state and for rho."""
    rng = np.random.default_rng(8)
    cols = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
    cols /= np.linalg.norm(cols, axis=0)
    basis = _write(tmp_path / "basis.json",
                   {"ambient_dim": 16, "vectors": [_pairs_in(c) for c in cols.T]})
    o = cols.conj().T @ cols
    gram = {"dim": 8, "matrix": _pairs_in(o)}
    x = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    rho = x @ x.conj().T
    pure = _write(tmp_path / "pure.json", {"gram": gram, "pure": _pairs_in(rng.standard_normal(8))})
    mixed = _write(tmp_path / "rho.json", {"gram": gram, "rho": _pairs_in(rho / np.trace(rho).real)})
    order = ",".join(str(k) for k in rng.permutation(8) + 1)
    return [
        *(["orthogonalize", "--basis", basis, "--method", m]
          for m in ("gram-schmidt", "lowdin-sym", "lowdin-can")),
        ["orthogonalize", "--basis", basis, "--method", "gram-schmidt", "--order", order],
        ["weights", "--state", pure],
        ["weights", "--state", mixed],
    ]


class TestEncoders:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_report_matches_old_encoder(self, seed):
        arrays = _arrays(seed)
        inputs = {"note": 0.1, "flag": True, "dim": 3}
        new = AnalysisReport(
            command="check", input=inputs,
            lowdin_coefficients=vector_to_pairs(arrays["vector"]),
            transform=matrix_to_pairs(arrays["matrix"]),
            rho_lowdin=matrix_to_pairs(arrays["real_matrix"]),
            offdiagonal_artifact=matrix_to_pairs(arrays["tiny_matrix"]),
            weights=arrays["real_vector"].tolist(),
        )
        old = AnalysisReport(
            command="check", input=inputs,
            lowdin_coefficients=_vector_to_pairs_old(arrays["vector"]),
            transform=_matrix_to_pairs_old(arrays["matrix"]),
            rho_lowdin=_matrix_to_pairs_old(arrays["real_matrix"]),
            offdiagonal_artifact=_matrix_to_pairs_old(arrays["tiny_matrix"]),
            weights=[float(x) for x in arrays["real_vector"]],
        )
        assert new.to_json() == _to_json_old(old)

    def test_encoders_return_plain_unrounded_floats(self):
        z = np.array([[1.0 / 3.0 - 2j, -0.0], [5e-324j, 7.0]])
        pairs = matrix_to_pairs(z)
        assert pairs == [[1.0 / 3.0, -2.0], [-0.0, 0.0], [0.0, 5e-324], [7.0, 0.0]]
        assert vector_to_pairs(z) == pairs
        ints = vector_to_pairs(np.array([2, 3]))
        assert ints == [[2.0, 0.0], [3.0, 0.0]]
        assert all(type(x) is float for p in pairs + ints for x in p)

    def test_basis_matches_old_encoder(self):
        b = random_basis(np.random.default_rng(5), 6, ambient=9)
        assert basis_to_dict(b) == {
            "ambient_dim": 9,
            "vectors": [[[float(z.real), float(z.imag)] for z in col] for col in b.vectors.T],
        }
        new = AnalysisReport(command="basis", input=basis_to_dict(b), basis=basis_to_dict(b)["vectors"])
        old = _basis_to_dict_old(b)
        assert new.to_json() == _to_json_old(AnalysisReport(command="basis", input=old, basis=old["vectors"]))

    def test_round12_is_fmt12(self):
        for x in SPECIAL:
            assert fileformats.round12(x) == float(fileformats.fmt12(x))
            assert fileformats.round12(fileformats.round12(x)) == fileformats.round12(x)


class TestReportsThroughMain:
    def test_byte_identical_to_old_encoder(self, capsys, monkeypatch, report_commands):
        new = _cli_outputs(capsys, report_commands)
        with monkeypatch.context() as m:
            m.setattr(cli, "vector_to_pairs", _vector_to_pairs_old)
            m.setattr(cli, "matrix_to_pairs", _matrix_to_pairs_old)
            m.setattr(cli, "basis_to_dict", _basis_to_dict_old)
            m.setattr(AnalysisReport, "to_json", _to_json_old)
            old = _cli_outputs(capsys, report_commands)
        assert new == old

    def test_each_float_rounded_once(self, capsys, monkeypatch, report_commands):
        calls = []
        real = fileformats._float_texts

        def counted(xs):
            calls.extend(xs)
            return real(xs)

        monkeypatch.setattr(fileformats, "_float_texts", counted)
        for argv in report_commands:
            calls.clear()
            assert main(argv) == 0
            report = json.loads(capsys.readouterr().out)
            assert len(calls) == _floats(report) > 0

    def test_special_values_match_old_encoder(self, capsys, monkeypatch, tmp_path):
        # Extra keys of an input file are echoed in the report as they were read.
        extra = {
            "floats": EDGE_FLOATS,
            "pairs": [EDGE_FLOATS[k:k + 2] for k in range(0, len(EDGE_FLOATS) - 1, 2)],
            "literals": [float("nan"), float("inf"), float("-inf")],
            "int_pairs": [[1, 0], [0, 1]],
            "mixed_pair": [1, 0.5],
            "flags": [True, False, None],
            "text": "Löwdin – ψ",
            "empty": [[], {}],
        }
        basis = {"ambient_dim": 3, "vectors": [[[1.0, 0.0], [0.0, -0.0], [0.0, 0.0]],
                                               [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]]], **extra}
        state = {"gram": {"dim": 2, "overlaps": [[1, 2, 0.5, 0.0]]}, "pure": [[1.0, 0.0], [0.0, 0.0]],
                 **extra}
        commands = [
            ["orthogonalize", "--basis", _write(tmp_path / "basis.json", basis), "--method", "gram-schmidt"],
            ["weights", "--state", _write(tmp_path / "state.json", state)],
        ]
        new = _cli_outputs(capsys, commands)
        with monkeypatch.context() as m:
            m.setattr(AnalysisReport, "to_json", _to_json_old)
            assert _cli_outputs(capsys, commands) == new
        for text in ("-0.0,", "1000000000000.0,", "1e+16,", "5e-324,", "NaN,", "-Infinity\n",
                     '"L\\u00f6wdin \\u2013 \\u03c8"', "[]", "{}"):
            assert text in new[0] and text in new[1]

        direct = AnalysisReport(command="edge", input=extra, weights=EDGE_FLOATS,
                                transform=extra["pairs"], measures={"x": -0.0, "n": 3})
        assert direct.to_json() == _to_json_old(direct)


# Floats on each edge of the writer's one-format path: integral values,
# exponents e+12 to e+15 (999999999999.5 rounds up to 1e12) and e+16 just
# past them, subnormals (2.225073858507e-308 is one), and the largest double.
EDGE_FLOATS = [0.0, -0.0, 1.0, 3.0, 123.0, -7.0, 999999999999.5, 1e12, 1e15, 1e16, 5e-324,
               2.225073858507e-308, 1.7976931348623157e308, 0.1, -1e-5]

json_floats = st.floats() | st.sampled_from(EDGE_FLOATS + [float(x) for x in SPECIAL])
json_leaves = st.none() | st.booleans() | st.integers() | json_floats | st.text(max_size=8)
json_trees = st.recursive(
    json_leaves
    | st.lists(json_floats, max_size=6)
    | st.lists(st.lists(json_floats, min_size=2, max_size=2) | st.tuples(json_floats, json_floats), max_size=6)
    | st.lists(st.lists(json_floats | st.integers() | st.booleans(), min_size=2, max_size=2), max_size=3),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tree=json_trees, fields=json_trees)
def test_json_trees_match_old_encoder(tree, fields):
    report = AnalysisReport(command="tree", input={"tree": tree}, basis=fields, weights=[tree])
    assert report.to_json() == _to_json_old(report)


def _pairs_to_vector_reference(items, what):
    """The per-pair parser that pairs_to_vector's one-call path replaces."""
    if not isinstance(items, list) or not items:
        raise ValueError(f"{what}: expected a non-empty list of [re, im] pairs")
    return np.array([fileformats._as_pair(p, what) for p in items], dtype=complex)


# Numbers a JSON file can hold, and entries it can hold that are not numbers.
pair_numbers = (
    st.floats()
    | st.sampled_from([0.0, -0.0, 5e-324, -2.225073858507e-308, float("nan"), float("inf"), -float("inf")])
    | st.integers(min_value=-(2**64), max_value=2**64)
    | st.sampled_from([2**53 + 1, -(2**63) - 1, 2**1023 * 3 // 2, 10**400, -(10**400)])
)
pair_entries = pair_numbers | st.booleans() | st.none() | st.text(max_size=3) | st.lists(pair_numbers, max_size=2)
pair_lists = (
    st.lists(st.lists(pair_numbers, min_size=2, max_size=2), max_size=8)
    | st.lists(st.lists(pair_entries, min_size=2, max_size=2), min_size=1, max_size=8)
    | st.lists(st.lists(pair_entries, min_size=1, max_size=3) | st.tuples(pair_numbers, pair_numbers)
               | pair_numbers, min_size=1, max_size=8)
    | st.tuples(st.lists(pair_numbers, min_size=2, max_size=2))
    | pair_numbers
)


def _parsed(parse, items):
    try:
        v = parse(items, "field")
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return v.dtype, v.shape, v.tobytes()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(items=pair_lists)
def test_pairs_to_vector_matches_per_pair_reference(items):
    assert _parsed(fileformats.pairs_to_vector, items) == _parsed(_pairs_to_vector_reference, items)
