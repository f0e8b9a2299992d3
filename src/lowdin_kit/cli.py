"""Command-line front end.

Commands:
    lowdin-kit orthogonalize --basis basis.json --method lowdin-sym [--order 2,1] [--out r.json]
    lowdin-kit weights --state state.json [--out r.json]
    lowdin-kit sweep --spec sweep.json [--out table.csv]
    lowdin-kit paper-check

Exit codes: 0 ok, 1 reference-check failure, 2 input/parse error,
3 math-domain error. Indices and orders in files and flags are 1-based;
outputs are deterministic (fixed field order, 12 significant digits).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from .checks import _gram2, reference_rows, render_table
from .errors import LowdinKitError
from .fileformats import (
    basis_to_dict,
    fmt12,
    matrix_to_pairs,
    parse_basis,
    parse_number,
    parse_state,
    round_tree,
    vector_to_pairs,
)
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

@dataclass(frozen=True)
class AnalysisReport:
    """Serializable record of one analysis run; unset fields are omitted
    from the JSON form, which round-trips losslessly."""

    command: str
    input: dict
    method: str | None = None
    order: list | None = None
    basis: list | None = None
    transform: list | None = None
    distortion: float | None = None
    orthonormality_error: float | None = None
    lowdin_coefficients: list | None = None
    weights: list | None = None
    rho_lowdin: list | None = None
    offdiagonal_artifact: list | None = None
    offdiagonal_genuine: list | None = None
    measures: dict | None = None

    def to_dict(self) -> dict:
        """Set fields in declaration order, every float rounded once."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: round_tree(value) for name, value in values if value is not None}

    @classmethod
    def from_dict(cls, obj: dict) -> "AnalysisReport":
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"report: unknown fields {sorted(unknown)}")
        return cls(**obj)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


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
        order = (
            _parse_order_flag(args.order, basis.num_vectors)
            if args.order is not None
            else list(range(1, basis.num_vectors + 1))
        )
        result = gram_schmidt(basis, [k - 1 for k in order])
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


@dataclass(frozen=True)
class SweepSpec:
    """Parameter sweep over the 2-d worked families.

    The swept parameter plus the fixed ones must form either
    {gamma, s} (pure superposition family) or {p, q, s} (density
    family).
    """

    parameter: str
    lo: float
    hi: float
    steps: int
    fixed: dict
    out: str | None = None

    def __post_init__(self):
        if self.parameter not in _SWEEP_DOMAINS:
            raise ValueError(f"sweep: unknown parameter {self.parameter!r}")
        if not (self.lo < self.hi):
            raise ValueError(f"sweep: range [{self.lo}, {self.hi}] needs lo < hi")
        if not isinstance(self.steps, int) or self.steps < 2:
            raise ValueError("sweep: steps must be an integer >= 2")
        for bound in (self.lo, self.hi):
            if not _SWEEP_DOMAINS[self.parameter](bound):
                raise ValueError(
                    f"sweep: bound {bound} outside the domain of {self.parameter!r}"
                )
        for name, value in self.fixed.items():
            if name not in _SWEEP_DOMAINS:
                raise ValueError(f"sweep: unknown fixed parameter {name!r}")
            if name == self.parameter:
                raise ValueError(f"sweep: {name!r} is both swept and fixed")
            if not _SWEEP_DOMAINS[name](float(value)):
                raise ValueError(f"sweep: fixed {name} = {value} outside its domain")
        names = {self.parameter, *self.fixed}
        if names not in ({"gamma", "s"}, {"p", "q", "s"}):
            raise ValueError(
                "sweep: parameters must form {gamma, s} or {p, q, s}, got "
                f"{sorted(names)}"
            )

    @property
    def family(self) -> str:
        return "pure" if "gamma" in {self.parameter, *self.fixed} else "density"


def parse_sweep_spec(obj) -> SweepSpec:
    if not isinstance(obj, dict):
        raise ValueError("sweep: expected a JSON object")
    required = {"parameter", "range", "steps"}
    missing = required - set(obj)
    if missing:
        raise ValueError(f"sweep: missing fields {sorted(missing)}")
    if not isinstance(obj["parameter"], str):
        raise ValueError("sweep: 'parameter' must be a string")
    rng = obj["range"]
    if not isinstance(rng, list) or len(rng) != 2:
        raise ValueError("sweep: 'range' must be [lo, hi]")
    fixed = obj.get("fixed", {})
    if not isinstance(fixed, dict):
        raise ValueError("sweep: 'fixed' must be an object")
    out = obj.get("out")
    if out is not None and not isinstance(out, str):
        raise ValueError("sweep: 'out' must be a path string")
    return SweepSpec(
        parameter=obj["parameter"],
        lo=parse_number(rng[0], "sweep.range"),
        hi=parse_number(rng[1], "sweep.range"),
        steps=obj["steps"],
        fixed={k: parse_number(v, f"sweep.fixed.{k}") for k, v in fixed.items()},
        out=out,
    )


def run_sweep(spec: SweepSpec) -> str:
    """Render the sweep as CSV text: param,w_1,w_2,entropy,pr,ipr."""
    lines = ["param,w_1,w_2,entropy,pr,ipr"]
    for value in np.linspace(spec.lo, spec.hi, spec.steps):
        params = dict(spec.fixed)
        params[spec.parameter] = float(value)
        if spec.family == "pure":
            state = normalize_pure(_gram2(params["s"]), [1.0, params["gamma"]])
            w = weights_pure(state)
        else:
            rho = np.array(
                [[params["p"], params["q"]], [params["q"], 1.0 - params["p"]]]
            )
            w = weights_density(DensityOperator(_gram2(params["s"]), rho))
        m = measure_report(w)
        cells = [
            fmt12(value),
            fmt12(w.weights[0]),
            fmt12(w.weights[1]),
            fmt12(m.entropy),
            fmt12(m.participation_ratio),
            fmt12(m.inverse_participation_ratio),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    spec = parse_sweep_spec(_load_json(args.spec))
    out = args.out or spec.out
    if out is None:
        raise ValueError("sweep: no output path (--out flag or 'out' field)")
    _emit(run_sweep(spec), out)
    return 0


def cmd_paper_check(args) -> int:
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
        return args.func(args)
    except LowdinKitError as exc:
        msg = str(exc).replace("\n", " ")
        sys.stderr.write(f"error: {type(exc).__name__}: {msg}\n")
        return 3
    except (ValueError, KeyError, OSError) as exc:
        msg = str(exc).replace("\n", " ")
        sys.stderr.write(f"error: {type(exc).__name__}: {msg}\n")
        return 2


def entrypoint():
    raise SystemExit(main())
