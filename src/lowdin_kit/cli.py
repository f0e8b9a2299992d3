"""Command-line front end.

Commands:
    lowdin-kit orthogonalize --basis basis.json --method lowdin-sym [--order 2,1] [--out r.json]
    lowdin-kit weights --state state.json [--out r.json]
    lowdin-kit sweep --spec sweep.json [--out table.csv]
    lowdin-kit paper-check

Exit codes: 0 ok, 1 reference-check failure, 2 input/parse error,
3 math-domain error. Indices and orders in files and flags are 1-based;
outputs are deterministic (fixed field order, 12 significant digits): the
same input gives the same bytes on the same numpy and BLAS build with the
same BLAS thread count (README shows a d=256 case that differs across counts).
The reference checks (`checks`) load only for paper-check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import measures, states
from .errors import LowdinKitError
from .fileformats import (
    _CELL,
    _json_text,
    basis_to_dict,
    matrix_to_pairs,
    parse_basis,
    parse_state,
    vector_to_pairs,
)
from .gram import _gram2
from .linalg import LAMBDA_FLOOR, HermitianEigenDecomposition, _as_real, _half_power, _ValueRecord
from .measures import measure_report
from .ortho import OrthoMethod, gram_schmidt, lowdin_canonical, lowdin_symmetric
from .states import (
    DensityOperator,
    PureState,
    lowdin_coeffs,
    lowdin_density,
    normalize_pure,
    offdiagonal_decomposition,
    weights_density,
    weights_pure,
)

class AnalysisReport(_ValueRecord):
    """Serializable record of one analysis run; unset fields are omitted
    from the JSON form, which round-trips losslessly."""

    _fields = ("command", "input", "method", "order", "basis", "transform", "distortion", "orthonormality_error",
               "lowdin_coefficients", "weights", "rho_lowdin", "offdiagonal_artifact", "offdiagonal_genuine",
               "measures")

    def __init__(self, command: str, input: dict, method: str | None = None, order: list | None = None,
                 basis: list | None = None, transform: list | None = None, distortion: float | None = None,
                 orthonormality_error: float | None = None, lowdin_coefficients: list | None = None,
                 weights: list | None = None, rho_lowdin: list | None = None,
                 offdiagonal_artifact: list | None = None, offdiagonal_genuine: list | None = None,
                 measures: dict | None = None):
        self.__dict__.update(
            command=command, input=input, method=method, order=order, basis=basis, transform=transform,
            distortion=distortion, orthonormality_error=orthonormality_error,
            lowdin_coefficients=lowdin_coefficients, weights=weights, rho_lowdin=rho_lowdin,
            offdiagonal_artifact=offdiagonal_artifact, offdiagonal_genuine=offdiagonal_genuine, measures=measures)

    def to_json(self) -> str:
        """Set fields in declaration order as indent-2 JSON, every float
        rounded once to 12 significant digits."""
        values = ((name, getattr(self, name)) for name in self._fields)
        return _json_text({name: value for name, value in values if value is not None}) + "\n"


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_order_flag(raw: str, d: int) -> list[int]:
    try:
        order = [int(tok) for tok in raw.split(",")]
    except ValueError as exc:
        raise ValueError(f"--order must be comma-separated integers, got {raw!r}") from exc
    if sorted(order) != list(range(1, d + 1)):
        raise ValueError(f"--order {raw!r} is not a permutation of 1..{d}")
    return order


_METHODS = {
    "gram-schmidt": gram_schmidt,
    "lowdin-sym": lowdin_symmetric,
    "lowdin-can": lowdin_canonical,
}


def cmd_orthogonalize(args) -> int:
    obj = _load_json(args.basis)
    basis = parse_basis(obj)
    if args.order is not None and args.method != OrthoMethod.GRAM_SCHMIDT.value:
        raise ValueError("--order applies only to method gram-schmidt")
    if args.method == OrthoMethod.GRAM_SCHMIDT.value:
        n = basis.num_vectors
        order = list(range(1, n + 1)) if args.order is None else _parse_order_flag(args.order, n)
        # Without --order the engine takes its natural order and permutes nothing.
        result = gram_schmidt(basis, None if args.order is None else [k - 1 for k in order])
    else:
        order = None
        result = _METHODS[args.method](basis)
    report = AnalysisReport(
        command="orthogonalize",
        input=obj,
        method=result.method.value,
        order=order,
        basis=basis_to_dict(result.basis)["vectors"],
        transform=matrix_to_pairs(result.transform),
        distortion=result.distortion,
        orthonormality_error=result.orthonormality_error,
    )
    _emit(report.to_json(), args.out)
    return 0


def cmd_weights(args) -> int:
    obj = _load_json(args.state)
    state = parse_state(obj)
    if isinstance(state, PureState):
        w = weights_pure(state)
        extra = {"lowdin_coefficients": vector_to_pairs(lowdin_coeffs(state))}
    else:
        w = weights_density(state)
        artifact, genuine = offdiagonal_decomposition(state)
        extra = {
            "rho_lowdin": matrix_to_pairs(lowdin_density(state).matrix),
            "offdiagonal_artifact": matrix_to_pairs(artifact),
            "offdiagonal_genuine": matrix_to_pairs(genuine),
        }
    m = measure_report(w)
    report = AnalysisReport(
        command="weights",
        input=obj,
        weights=w.weights.tolist(),
        measures={
            "entropy_bits": m.entropy,
            "participation_ratio": m.participation_ratio,
            "inverse_participation_ratio": m.inverse_participation_ratio,
        },
        **extra,
    )
    _emit(report.to_json(), args.out)
    return 0


_SWEEP_DOMAINS = {
    "s": lambda v: -1.0 < v < 1.0,
    "gamma": lambda v: np.isfinite(v),
    "p": lambda v: 0.0 <= v <= 1.0,
    "q": lambda v: np.isfinite(v),
}


class SweepSpec(_ValueRecord):
    """Parameter sweep over the 2-d worked families, built only by
    `parse_sweep_spec`.

    The swept parameter plus the fixed ones form either {gamma, s}
    (pure superposition family) or {p, q, s} (density family).
    """

    _fields = ("parameter", "lo", "hi", "steps", "fixed", "out")

    def __init__(self, parameter: str, lo: float, hi: float, steps: int, fixed: dict, out: str | None = None):
        self.__dict__.update(parameter=parameter, lo=lo, hi=hi, steps=steps, fixed=fixed, out=out)


def parse_sweep_spec(obj) -> SweepSpec:
    if not isinstance(obj, dict):
        raise ValueError("sweep: expected a JSON object")
    required = {"parameter", "range", "steps"}
    missing = required - set(obj)
    if missing:
        raise ValueError(f"sweep: missing fields {sorted(missing)}")
    parameter, rng, steps = obj["parameter"], obj["range"], obj["steps"]
    if not isinstance(parameter, str):
        raise ValueError("sweep: 'parameter' must be a string")
    if not isinstance(rng, list) or len(rng) != 2:
        raise ValueError("sweep: 'range' must be [lo, hi]")
    fixed = obj.get("fixed", {})
    if not isinstance(fixed, dict):
        raise ValueError("sweep: 'fixed' must be an object")
    out = obj.get("out")
    if out is not None and not isinstance(out, str):
        raise ValueError("sweep: 'out' must be a path string")
    lo = _as_real(rng[0], "sweep.range")
    hi = _as_real(rng[1], "sweep.range")
    fixed = {k: _as_real(v, f"sweep.fixed.{k}") for k, v in fixed.items()}
    if parameter not in _SWEEP_DOMAINS:
        raise ValueError(f"sweep: unknown parameter {parameter!r}")
    if not (lo < hi):
        raise ValueError(f"sweep: range [{lo}, {hi}] needs lo < hi")
    if not isinstance(steps, int) or steps < 2:
        raise ValueError("sweep: steps must be an integer >= 2")
    for bound in (lo, hi):
        if not _SWEEP_DOMAINS[parameter](bound):
            raise ValueError(f"sweep: bound {bound} outside the domain of {parameter!r}")
    if not math.isfinite(hi - lo):
        raise ValueError(f"sweep: range [{lo}, {hi}] is wider than the largest float")
    for name, value in fixed.items():
        if name not in _SWEEP_DOMAINS:
            raise ValueError(f"sweep: unknown fixed parameter {name!r}")
        if name == parameter:
            raise ValueError(f"sweep: {name!r} is both swept and fixed")
        if not _SWEEP_DOMAINS[name](value):
            raise ValueError(f"sweep: fixed {name} = {value} outside its domain")
    names = {parameter, *fixed}
    if names not in ({"gamma", "s"}, {"p", "q", "s"}):
        raise ValueError(
            "sweep: parameters must form {gamma, s} or {p, q, s}, got "
            f"{sorted(names)}"
        )
    return SweepSpec(parameter, lo, hi, steps, fixed, out)


# Steps per stacked pass, so that its arrays take a few MiB however long the sweep.
_SWEEP_BLOCK = 4096
_CSV_ROW = ",".join([_CELL] * 6) + "\n"


def _sweep_step(params: dict) -> tuple:
    """w_1, w_2, entropy, pr, ipr of one step through the library, or its typed error."""
    if "gamma" in params:
        w = weights_pure(normalize_pure(_gram2(params["s"]), [1.0, params["gamma"]]))
    else:
        rho = np.array([[params["p"], params["q"]], [params["q"], 1.0 - params["p"]]])
        w = weights_density(DensityOperator(_gram2(params["s"]), rho))
    m = measure_report(w)
    return (*w.weights, m.entropy, m.participation_ratio, m.inverse_participation_ratio)


def _sweep_table(params: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows w_1, w_2, entropy, pr, ipr of n steps in one stacked pass, and the
    steps proven to pass every check of `_sweep_step`. Each parameter is a
    scalar or an n-vector from `parse_sweep_spec`'s domains, so each O and rho
    is finite and exactly Hermitian, with unit diagonal or trace. Past their
    eigh calls the steps run the library's own kernels, and the mask proves
    what the library raises on, from the same computed values; so a proven
    step's row equals `_sweep_step`'s to the bit, the others may hold anything.
    The entropy is summed here: no stacked sum keeps the library's bytes from 8 weights up."""
    col = {name: np.broadcast_to(value, (n,)) for name, value in params.items()}
    with np.errstate(all="ignore"):
        o = np.zeros((n, 2, 2), dtype=complex)
        o[:, 0, 0] = o[:, 1, 1] = 1.0
        o[:, 0, 1] = o[:, 1, 0] = col["s"]
        eig = HermitianEigenDecomposition(*np.linalg.eigh(o))
        ok = eig.eigenvalues[:, 0] > LAMBDA_FLOOR
        half = _half_power(eig, 0.5)
        if "gamma" in col:
            a = np.ones((n, 2), dtype=complex)
            a[:, 1] = col["gamma"]
            norm2 = states._norm2(o, a)
            ok &= (norm2 > states._MIN_NORM2) & np.isfinite(norm2)
            w = states._pure_weights(half, a / np.sqrt(norm2)[:, None])
        else:
            rho = np.zeros((n, 2, 2), dtype=complex)
            rho[:, 0, 0], rho[:, 1, 1] = col["p"], 1.0 - col["p"]
            rho[:, 0, 1] = rho[:, 1, 0] = col["q"]
            ok &= np.linalg.eigh(rho)[0][:, 0] >= -states._PSD_TOL
            m, tr = states._congruence(half, rho)
            ok &= tr > states._MIN_TRACE
            w, total = states._density_weights(states._lowdin_transform(m, tr[:, None, None]))
            ok &= np.abs(total - 1.0) <= states._WEIGHT_SUM_TOL
        ipr = measures._ipr(w)
        entropy = -np.where(w > measures._ZERO_CLAMP, w * np.log2(w), 0.0).sum(axis=1)
        table = np.column_stack([w, entropy, 1.0 / ipr, ipr])
    return table, ok


def run_sweep(spec: SweepSpec) -> str:
    """Render the sweep as CSV text: param,w_1,w_2,entropy,pr,ipr.

    Each block of steps is computed in one stacked pass; a step the pass cannot
    prove valid is replayed, in step order, through the library, which then
    raises that step's typed error or yields its row. One % writes a block's rows."""
    # Only the last product (steps - 1) * step can overflow, and linspace
    # overwrites that entry with hi, which the parser has proven finite.
    with np.errstate(over="ignore"):
        values = np.linspace(spec.lo, spec.hi, spec.steps)
    parts = ["param,w_1,w_2,entropy,pr,ipr\n"]
    for start in range(0, spec.steps, _SWEEP_BLOCK):
        block = values[start : start + _SWEEP_BLOCK]
        table, proven = _sweep_table({**spec.fixed, spec.parameter: block}, block.size)
        for i in np.flatnonzero(~proven).tolist():
            table[i] = _sweep_step({**spec.fixed, spec.parameter: float(block[i])})
        parts.append(_CSV_ROW * block.size % tuple(np.column_stack([block, table]).ravel().tolist()))
    return "".join(parts)


def cmd_sweep(args) -> int:
    spec = parse_sweep_spec(_load_json(args.spec))
    out = args.out or spec.out
    if out is None:
        raise ValueError("sweep: no output path (--out flag or 'out' field)")
    _emit(run_sweep(spec), out)
    return 0


def cmd_paper_check(args) -> int:
    from .checks import reference_rows, render_table  # only here: about 3 ms a process
    rows = reference_rows()
    sys.stdout.write(render_table(rows) + "\n")
    return 0 if all(r.passed for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowdin-kit",
        description="Orthogonalize non-orthogonal quantum bases and analyze "
        "Lowdin weight distributions.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_ortho = sub.add_parser("orthogonalize", help="orthogonalize a basis file")
    p_ortho.add_argument("--basis", required=True, help="basis.json input path")
    p_ortho.add_argument("--method", required=True, choices=sorted(_METHODS))
    p_ortho.add_argument("--order", help="1-based processing order, e.g. 2,1")
    p_ortho.add_argument("--out", help="write the JSON report here (default stdout)")
    p_ortho.set_defaults(func=cmd_orthogonalize)

    p_w = sub.add_parser("weights", help="Lowdin weights and measures of a state file")
    p_w.add_argument("--state", required=True, help="state.json input path")
    p_w.add_argument("--out", help="write the JSON report here (default stdout)")
    p_w.set_defaults(func=cmd_weights)

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    p_sweep.add_argument("--spec", required=True, help="sweep spec JSON path")
    p_sweep.add_argument("--out", help="CSV output path (overrides the spec's 'out')")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser(
        "paper-check", help="run the bundled reference checks and report PASS/FAIL"
    )
    p_check.set_defaults(func=cmd_paper_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # The error line names the cause; numpy's warnings would only precede it.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.func(args)
    # RecursionError: an input nested past the interpreter's recursion limit.
    # MemoryError: an input that asks for more memory than there is, e.g. a sweep's steps.
    except (LowdinKitError, ValueError, KeyError, OSError, RecursionError, MemoryError) as exc:
        msg = str(exc).replace("\n", " ")
        sys.stderr.write(f"error: {type(exc).__name__}: {msg}\n")
        return 3 if isinstance(exc, LowdinKitError) else 2


def entrypoint():
    raise SystemExit(main())
