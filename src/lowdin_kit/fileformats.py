"""JSON/CSV file formats used by the command-line front end.

Complex scalars are encoded as [re, im] pairs; matrices as flat
row-major lists of pairs; indices in files are 1-based. Every number in
an input file must be a JSON number: strings and booleans are rejected,
however they read. The encoders below return full-precision floats;
each number is rounded exactly once, to 12 significant digits, when a
report is written (`_json_text`, which formats each float once), which
keeps repeated runs byte-identical while re-parsing losslessly.

Schemas:
    gram.json   {"dim": d, "overlaps": [[i, j, re, im], ...]}     (i < j)
             or {"dim": d, "matrix": [[re, im], ...]}             (row-major)
    basis.json  {"ambient_dim": n, "vectors": [[[re, im], ...], ...]}
    state.json  {"gram": <gram.json>, "pure": [[re, im], ...]}
             or {"gram": <gram.json>, "rho": [[re, im], ...]}     (row-major)

Parse problems raise ValueError; the CLI maps those to exit code 2.
"""

from __future__ import annotations

from contextlib import suppress
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .gram import GramMatrix, OverlapSpec, _check_dim, _is_integer, gram_from_overlaps
from .linalg import _as_real
from .ortho import BasisSet
from .states import DensityOperator, PureState, normalize_pure

SIGNIFICANT_DIGITS = 12
# The one 12-digit format; _CELL is its %-form, which formats a whole list in
# one call. round12 and the report and CSV writers apply it themselves rather
# than calling the public fmt12, so a tracer records no span per number.
_FORMAT = f".{SIGNIFICANT_DIGITS}g"
_CELL = "%" + _FORMAT


def fmt12(x: float) -> str:
    """Fixed 12-significant-digit text of one CSV cell (run_sweep writes its rows with _CELL)."""
    return format(float(x), _FORMAT)


def round12(x: float) -> float:
    """Round to 12 significant digits (idempotent)."""
    return float(format(float(x), _FORMAT))


# The JSON spelling (json.dumps's default allow_nan) of each non-finite text.
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _float_texts(xs: list) -> list[str]:
    """json.dumps(round12(x)) of each float x, all written by one %.

    The 12-digit text already is the repr of the rounded float, except
    where repr writes another form: integral values (repr adds ".0"),
    exponents e+12 to e+15 (repr writes them in full), e-308 and below
    (subnormals: repr may differ), and inf and nan. Those texts, and a few
    more that the cheap test below also catches (first on all texts at
    once: each has at most one "."), take repr(round12(x)) or JSON's literal.
    """
    text = (_CELL + "\n") * len(xs) % tuple(xs)
    texts = text.split()
    if text.count(".") < len(xs) or "e+1" in text or "e-3" in text:
        for i, t in enumerate(texts):
            if "." not in t or "e+1" in t or "e-3" in t:
                texts[i] = _NON_FINITE.get(t) or repr(round12(xs[i]))
    return texts


def _number_items(items: list | tuple, indent: str) -> list[str] | None:
    """Item texts of a list of floats at indent; for a list of [re, im] float
    pairs, one text of all its items, written by one %; None for any other list."""
    types = set(map(type, items))
    if types == {float}:
        return _float_texts(items)
    if types <= {list, tuple} and set(map(len, items)) == {2}:
        flat = list(chain.from_iterable(items))
        if set(map(type, flat)) == {float}:
            pair = f"[\n{indent}  %s,\n{indent}  %s\n{indent}]"
            return [(",\n" + indent).join([pair] * len(items)) % tuple(_float_texts(flat))]
    return None


def _json_text(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2) with every float rounded once to 12
    significant digits, for obj written at indent. Dict keys must be
    strings, as they are in every report."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_texts([obj])[0]
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = _number_items(obj, inner) or [_json_text(v, inner) for v in obj]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    body = (",\n" + inner).join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _as_pair(item, what: str) -> complex:
    if not isinstance(item, (list, tuple)) or len(item) != 2 or not all(map(_is_number, item)):
        raise ValueError(f"{what}: expected a [re, im] number pair, got {item!r}")
    return complex(_as_real(item[0], what), _as_real(item[1], what))


def _pairs(a) -> list:
    """Plain-float [re, im] pairs of an array, nested like its axes."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def vector_to_pairs(v) -> list[list[float]]:
    return _pairs(np.ravel(v))


def pairs_to_vector(items, what: str) -> np.ndarray:
    """Complex vector of [re, im] number pairs, in one call where it can; _as_pair words every fault."""
    if not isinstance(items, list) or not items:
        raise ValueError(f"{what}: expected a non-empty list of [re, im] pairs")
    if set(map(type, items)) == {list} and set(map(len, items)) == {2}:
        flat = list(chain.from_iterable(items))
        with suppress(OverflowError):  # an int beyond float range is worded below
            if set(map(type, flat)) <= {int, float}:
                return np.array(flat, dtype=float).view(complex)
    return np.array([_as_pair(p, what) for p in items], dtype=complex)


def matrix_to_pairs(m) -> list[list[float]]:
    """Row-major flat encoding of a complex matrix."""
    return vector_to_pairs(m)


def pairs_to_matrix(items, dim: int, what: str) -> np.ndarray:
    flat = pairs_to_vector(items, what)
    if flat.shape[0] != dim * dim:
        raise ValueError(f"{what}: expected {dim * dim} entries, got {flat.shape[0]}")
    return flat.reshape(dim, dim)


def _require_int(obj, key: str, what: str) -> int:
    v = obj.get(key)
    if not _is_integer(v):
        raise ValueError(f"{what}: field '{key}' must be an integer")
    return v


def _checked_gram(obj) -> tuple[int, partial]:
    """dim of a checked gram.json object, and the call that builds its Gram."""
    if not isinstance(obj, dict):
        raise ValueError("gram: expected a JSON object")
    dim = _require_int(obj, "dim", "gram")
    if "matrix" in obj:
        _check_dim(dim)
        return dim, partial(GramMatrix, pairs_to_matrix(obj["matrix"], dim, "gram.matrix"))
    overlaps = obj.get("overlaps", [])
    if not isinstance(overlaps, list):
        raise ValueError("gram: field 'overlaps' must be a list")
    pairs = []
    for entry in overlaps:
        if not isinstance(entry, list) or len(entry) != 4:
            raise ValueError(f"gram.overlaps: expected [i, j, re, im], got {entry!r}")
        pairs.append((entry[0], entry[1], _as_pair(entry[2:], "gram.overlaps")))
    return dim, partial(gram_from_overlaps, OverlapSpec(dim, pairs))


def parse_basis(obj) -> BasisSet:
    """Parse a basis.json object (list of column vectors)."""
    if not isinstance(obj, dict):
        raise ValueError("basis: expected a JSON object")
    ambient = _require_int(obj, "ambient_dim", "basis")
    vectors = obj.get("vectors")
    if not isinstance(vectors, list) or not vectors:
        raise ValueError("basis: field 'vectors' must be a non-empty list")
    cols = []
    for k, vec in enumerate(vectors):
        col = pairs_to_vector(vec, f"basis.vectors[{k}]")
        if col.shape[0] != ambient:
            raise ValueError(
                f"basis.vectors[{k}]: length {col.shape[0]} != ambient_dim {ambient}"
            )
        cols.append(col)
    return BasisSet(np.column_stack(cols))


def basis_to_dict(b: BasisSet) -> dict:
    return {
        "ambient_dim": b.ambient_dim,
        "vectors": _pairs(b.vectors.T),
    }


def parse_state(obj) -> PureState | DensityOperator:
    """Parse a state.json object into a pure state or density operator.

    Pure coefficients are normalized on load, so files may carry raw
    superposition coefficients. Density matrices must already carry
    trace 1.
    """
    if not isinstance(obj, dict):
        raise ValueError("state: expected a JSON object")
    if "gram" not in obj:
        raise ValueError("state: missing field 'gram'")
    dim, build_gram = _checked_gram(obj["gram"])
    has_pure, has_rho = "pure" in obj, "rho" in obj
    if has_pure == has_rho:
        raise ValueError("state: provide exactly one of 'pure' or 'rho'")
    # Count the entries against dim before the dim x dim Gram is allocated.
    if has_pure:
        raw = pairs_to_vector(obj["pure"], "state.pure")
        if raw.shape[0] != dim:
            raise ValueError(f"coefficient length {raw.shape[0]} != overlap dimension {dim}")
        return normalize_pure(build_gram(), raw)
    rho = pairs_to_matrix(obj["rho"], dim, "state.rho")
    return DensityOperator(build_gram(), rho)
