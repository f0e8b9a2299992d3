"""JSON/CSV file formats used by the command-line front end.

Complex scalars are encoded as [re, im] pairs; matrices as flat
row-major lists of pairs; indices in files are 1-based. Every number in
an input file must be a JSON number: strings and booleans are rejected,
however they read. Reports hand their arrays to the writer (`_json_text`),
which reads a complex array's float view as its [re, im] pairs. It rounds
each number once to 12 significant digits, by one % per number list or
array; one numpy pass finds the few texts %.12g writes unlike json.dumps
(integral, subnormal, non-finite), and only those are fixed.

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
# one call. The report and CSV writers apply it to whole lists, not through a
# function per number, so a tracer records no span per number.
_FORMAT = f".{SIGNIFICANT_DIGITS}g"
_CELL = "%" + _FORMAT


# The JSON spelling (json.dumps's default allow_nan) of each non-finite text.
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _number_text(x) -> str:
    """json.dumps of a float x rounded to 12 significant digits, json.dumps(x) of an int or a bool."""
    if isinstance(x, float):
        text = _CELL % x
        return _NON_FINITE.get(text) or float.__repr__(float(text))
    return ("true" if x else "false") if isinstance(x, bool) else int.__repr__(x)


def _layout(shape: list, indent: str, fixed=(), whole=()) -> str:
    """%-template of a list nested to shape, at indent: _CELL for each number, but at the flat
    indices fixed %.99r where whole holds, else %.99s (as wide as _CELL, so set in place)."""
    inner = indent + "  "
    item = _layout(shape[1:], inner) if len(shape) > 1 else _CELL
    text = f"[\n{inner}" + (",\n" + inner).join([item] * shape[0]) + f"\n{indent}]"
    if not len(fixed):
        return text
    buf = np.frombuffer(bytearray(text, "ascii"), np.uint8)
    at = np.flatnonzero(buf == ord("%"))[fixed]
    buf[at + 2] = buf[at + 3] = ord("9")
    buf[at + 4] = np.where(whole, ord("r"), ord("s"))
    return buf.tobytes().decode("ascii")


def _number_list(items: list | tuple | np.ndarray, indent: str) -> str | None:
    """_json_text of a float or complex array, or of a list of ints and floats
    nested to a fixed shape, by one % over its template, or None. A complex
    array is written as [re, im] pairs: the float view of its C-ordered copy.
    %.12g writes json.dumps of x rounded to 12 significant digits unless that
    is integral below 1e16, subnormal or not finite: one numpy pass flags those
    x (and every int), %r writes the integral ones below 1e12, _number_text the rest."""
    if isinstance(items, np.ndarray):
        pairs = items.dtype.kind == "c"
        a = np.ascontiguousarray(items, complex if pairs else float)
        shape = [*a.shape, 2] if pairs else list(a.shape)
        a = a.view(float).ravel()  # the 1-D a the flag pass indexes, as flat
        flat = a.tolist()
    else:
        shape, flat = [len(items)], list(items)
        try:
            # Three deep at most, as in reports: deeper lists recurse, so a deep echo still raises.
            while isinstance(flat[0], (list, tuple)) and len(shape) < 3:
                if len(lengths := set(map(len, flat))) > 1:
                    return None
                shape.append(lengths.pop())
                flat = list(chain.from_iterable(flat))
            a = np.fromiter(flat, float, len(flat))
        except (IndexError, TypeError, ValueError, OverflowError):  # an empty or ragged list, or no number
            return None
    with np.errstate(invalid="ignore"):  # inf - inf
        gap, size = np.abs(a - np.rint(a)), np.abs(a)
        fixed = np.flatnonzero(~((gap > 1e-11 * size) & (size >= 1e-307)))
    whole = (gap[fixed] == 0) & (size[fixed] < 1e12)
    if not set(map(type, map(flat.__getitem__, fixed.tolist()))) <= {int, float}:  # a bool or None
        return None
    for i in fixed[~whole].tolist():
        flat[i] = _number_text(flat[i])
    try:
        return _layout(shape, indent, fixed, whole) % tuple(flat)
    except TypeError:  # numeric text, which fromiter read as a number
        return None


def _json_text(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2) with every float rounded once to 12
    significant digits, for obj written at indent, an array as its nested
    list (of [re, im] pairs, if complex). Dict keys must be strings, as
    they are in every report."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (int, float)):
        return _number_text(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            return "[]"
        if (text := _number_list(obj, indent)) is not None:
            return text
        items = [_json_text(v, inner) for v in obj]
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
    # Every column in one call; after any ValueError the column-by-column path words it.
    if set(map(type, vectors)) == {list} and set(map(len, vectors)) == {ambient}:
        with suppress(ValueError):
            flat = pairs_to_vector(list(chain.from_iterable(vectors)), "basis.vectors")
            return BasisSet(flat.reshape(len(vectors), ambient).T)
    cols = []
    for k, vec in enumerate(vectors):
        col = pairs_to_vector(vec, f"basis.vectors[{k}]")
        if col.shape[0] != ambient:
            raise ValueError(
                f"basis.vectors[{k}]: length {col.shape[0]} != ambient_dim {ambient}"
            )
        cols.append(col)
    return BasisSet(np.column_stack(cols))


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
