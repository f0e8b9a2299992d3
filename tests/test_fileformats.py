"""Report encoding checked against the two-pass encoder it replaced.

The reference below is the former encoder: every element of an array
rounded as it is converted to a list (`complex_to_pair`), then the whole
report rounded again by `round_tree` and written by `json.dumps(indent=2)`.
The one-pass `to_json`, which formats each float of an array or a list once,
must give the same bytes, since 12-digit rounding is idempotent. The
one-call pair parser is checked the same way, against the per-pair parser
it bypasses.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_basis
from lowdin_kit import fileformats
from lowdin_kit.cli import AnalysisReport, main

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


def _basis_to_dict_old(b):
    return {
        "ambient_dim": b.ambient_dim,
        "vectors": [_vector_to_pairs_old(b.vectors[:, k]) for k in range(b.num_vectors)],
    }


def _array_to_list_old(a):
    """An array field as the former encoder wrote it: _vector_to_pairs_old
    over its last axis (plain floats, if real), nested like its other axes."""
    if a.ndim > 1:
        return [_array_to_list_old(row) for row in a]
    return _vector_to_pairs_old(a) if a.dtype.kind == "c" else [float(x) for x in a]


def _to_json_old(report):
    out = {}
    for name in _OLD_REPORT_FIELDS:
        value = getattr(report, name)
        if isinstance(value, np.ndarray):
            value = _array_to_list_old(value)
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
        # The arrays as the CLI hands them over: complex ones flat, as pairs.
        arrays = _arrays(seed)
        report = AnalysisReport(
            command="check", input={"note": 0.1, "flag": True, "dim": 3},
            lowdin_coefficients=arrays["vector"],
            transform=arrays["matrix"].reshape(-1),
            rho_lowdin=arrays["real_matrix"].reshape(-1).astype(complex),
            offdiagonal_artifact=arrays["tiny_matrix"].reshape(-1).astype(complex),
            weights=arrays["real_vector"],
        )
        assert report.to_json() == _to_json_old(report)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_arrays_match_old_encoder(self, layout):
        # Complex and real, 1-D and 2-D arrays holding every edge float, in
        # each memory layout, through the writer, which copies the F-ordered
        # and the strided ones to C order.
        rng = np.random.default_rng(29)
        edge = EDGE_FLOATS + [-999999999999.5, -1e15, float("inf"), float("-inf"), float("nan")]
        re = rng.permutation(np.concatenate([edge, rng.standard_normal(36 - len(edge))]))
        z = np.empty(36, dtype=complex)
        z.real, z.imag = re, rng.permutation(re)
        # Unrounded thirds, signed zeros and a subnormal imaginary part, each
        # written as its own pair: [0.333333333333, -2.0], [-0.0, 0.0], [0.0, 5e-324].
        exact = np.array([[1.0 / 3.0 - 2j, -0.0], [5e-324j, 7.0]])
        arrays = [z, z.reshape(6, 6), re, re.reshape(6, 6), exact]
        if layout == "F":
            arrays = [np.asfortranarray(a) for a in arrays]
        elif layout == "strided":
            every_other = [(slice(None, None, 2),) * a.ndim for a in arrays]
            bigger = [np.zeros([2 * n for n in a.shape], a.dtype) for a in arrays]
            for big, a, at in zip(bigger, arrays, every_other):
                big[at] = a
            arrays = [big[at] for big, at in zip(bigger, every_other)]
            assert not any(a.flags.c_contiguous or a.flags.f_contiguous for a in arrays)
        z, zm, x, xm, exact = arrays
        new = AnalysisReport(command="arrays", input={"x": x.tolist(), "xm": xm.tolist()},
                             lowdin_coefficients=z, transform=zm, basis=zm.T, weights=x, rho_lowdin=xm,
                             offdiagonal_artifact=exact)
        x_old, xm_old = [float(v) for v in x], [[float(v) for v in row] for row in xm]
        old = AnalysisReport(command="arrays", input={"x": x_old, "xm": xm_old},
                             lowdin_coefficients=_vector_to_pairs_old(z),
                             transform=[_vector_to_pairs_old(row) for row in zm],
                             basis=[_vector_to_pairs_old(col) for col in zm.T], weights=x_old, rho_lowdin=xm_old,
                             offdiagonal_artifact=[_vector_to_pairs_old(row) for row in exact])
        text = new.to_json()
        assert text == _to_json_old(old)
        for number in ("-0.0", "1000000000000.0", "-1000000000000.0", "1000000000000000.0", "1e+16", "5e-324",
                       "2.22507385851e-308", "1.79769313486e+308", "-Infinity", "NaN"):
            assert f" {number}" in text
        assert json.loads(text)["offdiagonal_artifact"] == [[[0.333333333333, -2.0], [-0.0, 0.0]],
                                                            [[0.0, 5e-324], [7.0, 0.0]]]

    def test_basis_matches_old_encoder(self):
        # The basis as the CLI hands it over (its columns as rows), and the
        # echoed input as the unrounded lists a JSON file reads back as.
        b = random_basis(np.random.default_rng(5), 6, ambient=9)
        read = {"ambient_dim": 9, "vectors": [[[float(z.real), float(z.imag)] for z in col] for col in b.vectors.T]}
        new = AnalysisReport(command="basis", input=read, basis=b.vectors.T)
        old = _basis_to_dict_old(b)
        assert new.to_json() == _to_json_old(AnalysisReport(command="basis", input=old, basis=old["vectors"]))


class TestReportsThroughMain:
    def test_byte_identical_to_old_encoder(self, capsys, monkeypatch, report_commands):
        # The reports hold the engines' arrays; the old encoder writes each
        # through _array_to_list_old.
        new = _cli_outputs(capsys, report_commands)
        with monkeypatch.context() as m:
            m.setattr(AnalysisReport, "to_json", _to_json_old)
            old = _cli_outputs(capsys, report_commands)
        assert new == old

    def test_each_float_rounded_once(self, capsys, monkeypatch, report_commands):
        # A float is formatted either where the % over a number list's
        # template meets it at a %.12g or %r cell, or by _number_text, which
        # writes the rest of the report's floats; count both.
        calls = []
        real_text, real_layout = fileformats._number_text, fileformats._layout

        class Template(str):
            def __mod__(self, args):
                calls.extend(x for x in args if type(x) is float)
                return str.__mod__(self, args)

        def number_text(x):
            if type(x) is float:
                calls.append(x)
            return real_text(x)

        monkeypatch.setattr(fileformats, "_number_text", number_text)
        monkeypatch.setattr(fileformats, "_layout", lambda *args: Template(real_layout(*args)))
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


@st.composite
def json_arrays(draw):
    """A complex or float array of 1 to 3 axes of json_floats, C-ordered,
    F-ordered or strided (every other entry of a larger array)."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    n = int(np.prod(shape))
    a = np.array(draw(st.lists(json_floats, min_size=n, max_size=n))).reshape(shape)
    if draw(st.booleans()):
        z = np.empty(shape, dtype=complex)
        z.real, z.imag = a, np.array(draw(st.lists(json_floats, min_size=n, max_size=n))).reshape(shape)
        a = z
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "strided":
        big = np.zeros([2 * k for k in shape], a.dtype)
        big[(slice(None, None, 2),) * a.ndim] = a
        return big[(slice(None, None, 2),) * a.ndim]
    return a


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=json_arrays())
def test_arrays_match_their_list_encoding(a):
    # The list encoding the CLI wrote before its reports held arrays.
    listed = np.stack((a.real, a.imag), -1).tolist() if a.dtype.kind == "c" else a.tolist()
    assert (AnalysisReport(command="array", input={}, transform=a).to_json()
            == AnalysisReport(command="array", input={}, transform=listed).to_json())


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


def _parse_basis_reference(obj):
    """The column-by-column parser that parse_basis's one-call path bypasses."""
    if not isinstance(obj, dict):
        raise ValueError("basis: expected a JSON object")
    ambient = fileformats._require_int(obj, "ambient_dim", "basis")
    vectors = obj.get("vectors")
    if not isinstance(vectors, list) or not vectors:
        raise ValueError("basis: field 'vectors' must be a non-empty list")
    cols = []
    for k, vec in enumerate(vectors):
        col = fileformats.pairs_to_vector(vec, f"basis.vectors[{k}]")
        if col.shape[0] != ambient:
            raise ValueError(f"basis.vectors[{k}]: length {col.shape[0]} != ambient_dim {ambient}")
        cols.append(col)
    return fileformats.BasisSet(np.column_stack(cols))


@st.composite
def basis_objects(draw):
    """Unit, independent columns as float or int pairs, any of them possibly
    replaced by a list from pair_lists (each faulty class of the pair parser,
    and lists of the wrong length), under a possibly wrong ambient_dim."""
    ambient = draw(st.integers(2, 5))
    k = draw(st.integers(2, ambient))
    if draw(st.booleans()):
        columns = np.eye(ambient, dtype=int)[:, draw(st.permutations(range(ambient)))[:k]]
        vectors = [[[int(x), 0] for x in col] for col in columns.T]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        c = rng.standard_normal((ambient, k)) + 1j * rng.standard_normal((ambient, k))
        vectors = _pairs_in(c / np.linalg.norm(c, axis=0))
        vectors = [vectors[j::k] for j in range(k)]
    for j in range(k):
        if draw(st.integers(0, 2 * k)) == 0:
            vectors[j] = draw(pair_lists)
    return {"ambient_dim": draw(st.sampled_from([ambient] * 8 + [ambient + 1, "2"])), "vectors": vectors}


def _parsed_basis(parse, obj):
    try:
        v = parse(obj).vectors
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return v.dtype, v.shape, v.flags.c_contiguous, v.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(obj=basis_objects())
def test_parse_basis_matches_per_column_reference(obj):
    assert _parsed_basis(fileformats.parse_basis, obj) == _parsed_basis(_parse_basis_reference, obj)
