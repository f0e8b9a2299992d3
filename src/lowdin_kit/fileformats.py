"""JSON/CSV file formats used by the command-line front end.

Complex scalars are encoded as [re, im] pairs; matrices as flat
row-major lists of pairs; indices in files are 1-based. Every number in
an input file must be a JSON number: strings and booleans are rejected,
however they read. The encoders below return full-precision floats;
each number is rounded exactly once, to 12 significant digits, when a
report is written (`round_tree`), which keeps repeated runs
byte-identical while re-parsing losslessly.

Schemas:
    gram.json   {"dim": d, "overlaps": [[i, j, re, im], ...]}     (i < j)
             or {"dim": d, "matrix": [[re, im], ...]}             (row-major)
    basis.json  {"ambient_dim": n, "vectors": [[[re, im], ...], ...]}
    state.json  {"gram": <gram.json>, "pure": [[re, im], ...]}
             or {"gram": <gram.json>, "rho": [[re, im], ...]}     (row-major)

Parse problems raise ValueError; the CLI maps those to exit code 2.
"""

from __future__ import annotations

import numpy as np

from .gram import GramMatrix, OverlapSpec, gram_from_overlaps
from .ortho import BasisSet
from .states import DensityOperator, PureState, normalize_pure

SIGNIFICANT_DIGITS = 12
# The one 12-digit format. round12 applies it itself rather than calling
# the public fmt12, so a tracer that wraps public functions records no span
# per rounded number.
_FORMAT = f".{SIGNIFICANT_DIGITS}g"


def fmt12(x: float) -> str:
    """Fixed 12-significant-digit text form used in CSV cells."""
    return format(float(x), _FORMAT)


def round12(x: float) -> float:
    """Round to 12 significant digits (idempotent)."""
    return float(format(float(x), _FORMAT))


def round_tree(obj):
    """Recursively round every float in a JSON-style structure."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, dict):
        return {k: round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_tree(v) for v in obj]
    return obj


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def parse_number(x, what: str) -> float:
    """A JSON number as a float; ValueError for anything else."""
    if not _is_number(x):
        raise ValueError(f"{what}: expected a number, got {x!r}")
    return float(x)


def _as_pair(item, what: str) -> complex:
    if not isinstance(item, (list, tuple)) or len(item) != 2 or not all(map(_is_number, item)):
        raise ValueError(f"{what}: expected a [re, im] number pair, got {item!r}")
    return complex(float(item[0]), float(item[1]))


def _pairs(a) -> list:
    """Plain-float [re, im] pairs of an array, nested like its axes."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def vector_to_pairs(v) -> list[list[float]]:
    return _pairs(np.ravel(v))


def pairs_to_vector(items, what: str) -> np.ndarray:
    if not isinstance(items, list) or not items:
        raise ValueError(f"{what}: expected a non-empty list of [re, im] pairs")
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
    if not _is_int(v):
        raise ValueError(f"{what}: field '{key}' must be an integer")
    return v


def parse_gram(obj) -> GramMatrix:
    """Parse a gram.json object (overlap list or dense matrix form)."""
    if not isinstance(obj, dict):
        raise ValueError("gram: expected a JSON object")
    dim = _require_int(obj, "dim", "gram")
    if "matrix" in obj:
        return GramMatrix(pairs_to_matrix(obj["matrix"], dim, "gram.matrix"))
    overlaps = obj.get("overlaps", [])
    if not isinstance(overlaps, list):
        raise ValueError("gram: field 'overlaps' must be a list")
    pairs = []
    for entry in overlaps:
        if not isinstance(entry, list) or len(entry) != 4:
            raise ValueError(f"gram.overlaps: expected [i, j, re, im], got {entry!r}")
        if not (_is_int(entry[0]) and _is_int(entry[1])):
            raise ValueError(f"gram.overlaps: indices must be integers, got {entry!r}")
        pairs.append((entry[0], entry[1], _as_pair(entry[2:], "gram.overlaps")))
    return gram_from_overlaps(OverlapSpec(dim, pairs))


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
    g = parse_gram(obj["gram"])
    has_pure, has_rho = "pure" in obj, "rho" in obj
    if has_pure == has_rho:
        raise ValueError("state: provide exactly one of 'pure' or 'rho'")
    if has_pure:
        return normalize_pure(g, pairs_to_vector(obj["pure"], "state.pure"))
    return DensityOperator(g, pairs_to_matrix(obj["rho"], g.dim, "state.rho"))
