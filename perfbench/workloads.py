"""The benchmark's three workloads and their independent output checks.

Every input is generated here from the workload seed; the library only
sees arrays and files. Each check compares a result with a reference the
benchmark computes with plain numpy (the `_np_*` functions below are bound
before any tracer can patch `numpy.linalg`), returns None when the result
is right and a one-line reason otherwise, and never raises.

A workload exposes `setup()`, which rebuilds all inputs from the seed and
warms the code paths, and `cycle(c)`, the c-th batch of ops. A cycle has a
fixed composition, so runs made of whole cycles have the same op mix on
every seed; the mixes are chosen so the median and p90 fall inside one op
class rather than on the boundary between two.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import lowdin_kit as lk
import lowdin_kit.cli as lk_cli
from lowdin_kit.errors import LowdinKitError

_np_eigh = np.linalg.eigh
_np_eigvalsh = np.linalg.eigvalsh
_np_svd = np.linalg.svd
_np_qr = np.linalg.qr

ORTHONORMALITY_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-8
WEIGHTS_TOL = 1e-9


@dataclass(slots=True)
class Op:
    """One timed library call (or CLI command) plus the check of its output."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    dim: int = 0


def _complex_gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def shared_component_basis(rng, n: int, d: int, eps: float) -> np.ndarray:
    """Unit columns g + eps * G_k sharing the component g; eps sets lambda_min."""
    cols = _complex_gaussian(rng, n)[:, None] + eps * _complex_gaussian(rng, (n, d))
    return cols / np.linalg.norm(cols, axis=0)


def _hermitian_sqrt(m: np.ndarray) -> np.ndarray:
    lam, u = _np_eigh(m)
    return (u * np.sqrt(lam)) @ u.conj().T


def _measures(w: np.ndarray) -> np.ndarray:
    nz = w[w > 1e-15]
    ipr = float(np.sum(w**2))
    return np.array([-np.sum(nz * np.log2(nz)), 1.0 / ipr, ipr])


def _offdiag(m: np.ndarray) -> np.ndarray:
    return m - np.diag(np.diag(m))


def _maxdev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---------------------------------------------------------------------------
# engines: fresh BasisSet + one of the three orthogonalization engines
# ---------------------------------------------------------------------------

ENGINE_DIMS = (64, 256)
ENGINES = ("gram_schmidt", "lowdin_symmetric", "lowdin_canonical")
# lambda_min(O) falls like eps^2 (about 0.09 eps^2 / (1 + eps^2) at n = 2d).
# Timed rungs, lambda_min about 4e-2 .. 9e-4 (kappa up to about 3e5 at
# d=256): every engine succeeds on every seed. Tail rungs, lambda_min about
# 8e-5 .. 8e-9: all accepted by the validators, but today the engines raise
# on most of them (from kappa about 3e6 at d=256 on some seeds); they run
# once per run as the robustness probe.
TIMED_EPS = (1.0, 0.5, 0.2, 0.1)
TAIL_EPS = (0.03, 0.01, 0.003, 0.001, 0.0003)
# Ops per (d, engine) in a 16-op cycle. Sorted by cost the blocks are d=64
# can/sym/GS (0-56 %), then d=256 can/sym (56-81 %) and GS (81-100 %), so p50
# lies inside the d=64 Gram-Schmidt block and p90 near the middle of the
# d=256 Gram-Schmidt block.
ENGINE_MIX = {
    64: {"gram_schmidt": 3, "lowdin_symmetric": 3, "lowdin_canonical": 3},
    256: {"gram_schmidt": 3, "lowdin_symmetric": 2, "lowdin_canonical": 2},
}


@dataclass(eq=False)
class Rung:
    """One input of the conditioning ladder, with lazily built references."""

    dim: int
    eps: float
    cols: np.ndarray
    lam: np.ndarray
    verified: dict = field(default_factory=dict)

    @property
    def lam_min(self) -> float:
        return float(self.lam[0])

    @property
    def kappa(self) -> float:
        return float(self.lam[-1] / self.lam[0])

    @functools.cached_property
    def polar(self) -> np.ndarray:
        u, _, vh = _np_svd(self.cols, full_matrices=False)
        return u @ vh

    @functools.cached_property
    def qr_q(self) -> np.ndarray:
        q, r = _np_qr(self.cols)
        diag = np.diag(r)
        return q * (diag / np.abs(diag))


def _make_rung(rng, d: int, eps: float) -> Rung:
    cols = shared_component_basis(rng, 2 * d, d, eps)
    return Rung(d, eps, cols, _np_eigvalsh(cols.conj().T @ cols))


def check_engine(rung: Rung, engine: str, result) -> str | None:
    """Orthonormality, E = C T, and agreement with the engine's numpy
    reference: the polar factor for Lowdin symmetric, Householder QR with
    positive diag(R) for Gram-Schmidt, and (E+C)(E+C)+ = diag(lambda) for
    canonical. Reference tolerances scale with kappa(O)."""
    try:
        e = np.asarray(result.basis.vectors)
        t = np.asarray(result.transform)
        prev = rung.verified.get(engine)
        if prev is not None and np.array_equal(prev[0], e) and np.array_equal(prev[1], t):
            return None
        d = rung.dim
        orth = float(np.linalg.norm(e.conj().T @ e - np.eye(d)))
        if orth > ORTHONORMALITY_TOL:
            return f"orthonormality residual {orth:.2e} > {ORTHONORMALITY_TOL:.0e}"
        recon = float(np.linalg.norm(rung.cols @ t - e))
        if recon > RECONSTRUCTION_TOL:
            return f"|C T - E| = {recon:.2e} > {RECONSTRUCTION_TOL:.0e}"
        ref_tol = 1e-14 * rung.kappa
        if engine == "lowdin_symmetric":
            dev = float(np.linalg.norm(e - rung.polar))
        elif engine == "gram_schmidt":
            dev = float(np.linalg.norm(e - rung.qr_q))
        else:
            m = e.conj().T @ rung.cols
            dev = float(np.linalg.norm(m @ m.conj().T - np.diag(rung.lam))) / rung.lam[-1]
            ref_tol = 1e-12
        if dev > ref_tol:
            return f"{engine} deviates from its numpy reference by {dev:.2e} > {ref_tol:.1e}"
    except Exception as exc:  # a malformed result is a failed check, not a crash
        return f"check raised {type(exc).__name__}: {exc}"
    rung.verified[engine] = (e, t)
    return None


class Engines:
    name = "engines"

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.rungs = {d: [_make_rung(rng, d, eps) for eps in TIMED_EPS] for d in ENGINE_DIMS}
        self.tail = [_make_rung(rng, d, eps) for d in ENGINE_DIMS for eps in TAIL_EPS]
        self._order = np.random.default_rng([self.seed, 2])
        for d in ENGINE_DIMS:
            for engine in ENGINES:
                op = self._op(self.rungs[d][0], engine)
                op.check(op.run())

    def _op(self, rung: Rung, engine: str) -> Op:
        def run():
            return getattr(lk, engine)(lk.BasisSet(rung.cols))

        return Op(f"{engine}.d{rung.dim}", run, lambda out: check_engine(rung, engine, out), rung.dim)

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for d, mix in ENGINE_MIX.items():
            for engine, reps in mix.items():
                for r in range(reps):
                    ops.append(self._op(self.rungs[d][(c * reps + r) % len(TIMED_EPS)], engine))
        return [ops[i] for i in self._order.permutation(len(ops))]

    cycle_inproc = cycle

    def probe(self) -> list[dict]:
        """Run every engine once on each tail rung; return one record per call."""
        records = []
        for rung in self.tail:
            for engine in ENGINES:
                op = self._op(rung, engine)
                try:
                    reason = op.check(op.run())
                except LowdinKitError as exc:
                    reason = f"{type(exc).__name__}: {exc}"
                records.append({
                    "engine": engine, "dim": rung.dim, "eps": rung.eps,
                    "lambda_min": rung.lam_min, "kappa": rung.kappa,
                    "failed": reason is not None, "reason": reason,
                })
        return records

    def inputs(self) -> list[dict]:
        """lambda_min and kappa(O) of every input, timed and tail."""
        rows = [(r, "timed") for d in ENGINE_DIMS for r in self.rungs[d]]
        rows += [(r, "tail") for r in self.tail]
        return [{"dim": r.dim, "eps": r.eps, "lambda_min": r.lam_min, "kappa": r.kappa, "set": s}
                for r, s in rows]


# ---------------------------------------------------------------------------
# weights: state analysis over a pool of Gram matrices
# ---------------------------------------------------------------------------

# (pure, density) states served by each Gram matrix. The first op on each
# Gram is a density op that also pays GramMatrix construction; the rest hit
# the cached sqrt. Per 30-op cycle this puts p50 inside the warm d=32 pure
# block and p90 inside the warm d=32 density block.
WEIGHT_GROUPS = {2: (6, 4), 8: (6, 4), 32: (5, 5)}
WEIGHT_POOL = 16


def random_overlap(rng, d: int) -> np.ndarray:
    cols = shared_component_basis(rng, 2 * d, d, 2.0)
    o = cols.conj().T @ cols
    o = 0.5 * (o + o.conj().T)
    np.fill_diagonal(o, 1.0)
    return o


def random_density(rng, d: int) -> np.ndarray:
    x = _complex_gaussian(rng, (d, min(d, 3)))
    rho = x @ x.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.real(np.trace(rho))


def pure_reference(overlap: np.ndarray, raw: np.ndarray) -> dict:
    a = raw / np.sqrt(np.real(raw.conj() @ overlap @ raw))
    b = _hermitian_sqrt(overlap) @ a
    w = np.abs(b) ** 2
    return {"b": b, "w": w, "measures": _measures(w)}


def density_reference(overlap: np.ndarray, rho: np.ndarray) -> dict:
    s = _hermitian_sqrt(overlap)
    m = s @ rho @ s
    rho_l = m / np.real(np.trace(m))
    diag = np.diag(np.diag(rho)) / np.real(np.trace(rho))
    a = s @ diag @ s
    artifact = _offdiag(a / np.real(np.trace(a)))
    w = np.real(np.diag(rho_l))
    return {"rho_l": rho_l, "w": w, "artifact": artifact,
            "genuine": _offdiag(rho_l) - artifact, "measures": _measures(w)}


def _measure_tuple(m) -> np.ndarray:
    return np.array([m.entropy, m.participation_ratio, m.inverse_participation_ratio])


def check_pure(ref: dict, out) -> str | None:
    try:
        w, b, m = out
        dev = max(_maxdev(w.weights, ref["w"]), _maxdev(b, ref["b"]),
                  _maxdev(_measure_tuple(m), ref["measures"]))
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"
    return None if dev <= WEIGHTS_TOL else f"pure state result deviates by {dev:.2e}"


def check_density(ref: dict, out) -> str | None:
    try:
        w, rho_l, (artifact, genuine), m = out
        dev = max(_maxdev(w.weights, ref["w"]), _maxdev(rho_l.matrix, ref["rho_l"]),
                  _maxdev(artifact, ref["artifact"]), _maxdev(genuine, ref["genuine"]),
                  _maxdev(_measure_tuple(m), ref["measures"]))
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"
    return None if dev <= WEIGHTS_TOL else f"density result deviates by {dev:.2e}"


class Weights:
    name = "weights"

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.pool = {}
        for d, (n_pure, n_dens) in WEIGHT_GROUPS.items():
            groups = []
            for _ in range(WEIGHT_POOL):
                overlap = random_overlap(rng, d)
                states = [("density", random_density(rng, d))]
                rest = ["pure"] * n_pure + ["density"] * (n_dens - 1)
                for k in rng.permutation(len(rest)):
                    x = _complex_gaussian(rng, d) if rest[k] == "pure" else random_density(rng, d)
                    states.append((rest[k], x))
                refs = [pure_reference(overlap, x) if kind == "pure" else density_reference(overlap, x)
                        for kind, x in states]
                groups.append((overlap, states, refs))
            self.pool[d] = groups
        for op in self.cycle(0):
            op.check(op.run())

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for d, groups in self.pool.items():
            overlap, states, refs = groups[c % len(groups)]
            holder = []

            def gram(overlap=overlap, holder=holder):
                if not holder:
                    holder.append(lk.GramMatrix(overlap))
                return holder[0]

            for j, ((kind, x), ref) in enumerate(zip(states, refs)):
                tag = f"{kind}.d{d}" + (".cold" if j == 0 else "")
                if kind == "pure":
                    ops.append(Op(tag, lambda g=gram, x=x: _pure_op(g(), x),
                                  lambda out, ref=ref: check_pure(ref, out), d))
                else:
                    ops.append(Op(tag, lambda g=gram, x=x: _density_op(g(), x),
                                  lambda out, ref=ref: check_density(ref, out), d))
        return ops

    cycle_inproc = cycle


def _pure_op(gram, raw):
    state = lk.normalize_pure(gram, raw)
    w = lk.weights_pure(state)
    return w, lk.lowdin_coeffs(state), lk.measure_report(w)


def _density_op(gram, rho):
    op = lk.DensityOperator(gram, rho)
    w = lk.weights_density(op)
    return w, lk.lowdin_density(op), lk.offdiagonal_decomposition(op), lk.measure_report(w)


# ---------------------------------------------------------------------------
# cli: one `python -m lowdin_kit` process per command
# ---------------------------------------------------------------------------

SWEEP_STEPS = {"pure": 2400, "density": 1600}
CLI_METHODS = ("gram-schmidt", "lowdin-sym", "lowdin-can")
# Per 17-op cycle: 12 `weights` + 1 `paper-check` (the process-floor block,
# 76 %), one `orthogonalize` per method (the next 18 %) and 1 `sweep` (the
# dearest): p50 lies inside the floor block and p90 three quarters into the
# orthogonalize block, five samples clear of the sweeps in a 102-op run.
# Sweep families alternate across cycles; the step counts give both
# families about the same cost.
WEIGHT_FILES = ("d2_pure", "d2_density", "d8_pure", "d8_density")
WEIGHT_REPEATS = 3
_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _pairs(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v).reshape(-1)]


@dataclass
class CliOutput:
    returncode: int
    text: bytes
    stderr: bytes = b""


class Cli:
    name = "cli"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.src = Path(lk.__file__).resolve().parent.parent
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH", "")) if p)
        self.first: dict = {}
        self.io = {"bytes_in": 0, "bytes_out": 0, "numbers_out": 0}

    # -- inputs ------------------------------------------------------------

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 4])
        self.work.mkdir(parents=True, exist_ok=True)
        self.first.clear()
        self.refs = {}
        self.files = {}
        for name in WEIGHT_FILES:
            d = int(name[1])
            overlap = random_overlap(rng, d)
            if d == 2:
                gram = {"dim": 2, "overlaps": [[1, 2, overlap[0, 1].real, overlap[0, 1].imag]]}
            else:
                gram = {"dim": d, "matrix": _pairs(overlap)}
            if name.endswith("pure"):
                raw = _complex_gaussian(rng, d)
                obj = {"gram": gram, "pure": _pairs(raw)}
                self.refs[name] = pure_reference(overlap, raw)["w"]
            else:
                rho = random_density(rng, d)
                obj = {"gram": gram, "rho": _pairs(rho)}
                self.refs[name] = density_reference(overlap, rho)["w"]
            self.files[name] = self._write(f"state_{name}.json", obj)
        self.basis = shared_component_basis(rng, 128, 64, 1.0)
        self.files["basis"] = self._write("basis_d64.json", {
            "ambient_dim": 128, "vectors": [_pairs(self.basis[:, k]) for k in range(64)]})
        self.sweeps = {
            "pure": {"parameter": "s", "range": [-0.8, 0.8], "steps": SWEEP_STEPS["pure"],
                     "fixed": {"gamma": float(rng.uniform(0.2, 1.5))}},
            "density": {"parameter": "s", "range": [-0.8, 0.8], "steps": SWEEP_STEPS["density"],
                        "fixed": {"p": float(rng.uniform(0.3, 0.7)), "q": float(rng.uniform(-0.2, 0.2))}},
        }
        for family, spec in self.sweeps.items():
            self.files[f"sweep_{family}"] = self._write(f"sweep_{family}.json", spec)
        self._order = np.random.default_rng([self.seed, 5])
        warm = self._weights_op("d2_pure", inproc=False)
        warm.check(warm.run())

    def _write(self, filename: str, obj) -> Path:
        path = self.work / filename
        path.write_text(json.dumps(obj))
        return path

    # -- ops ---------------------------------------------------------------

    def _run_process(self, argv: list[str], out_file: Path | None) -> CliOutput:
        proc = subprocess.run([sys.executable, "-m", "lowdin_kit", *argv], env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        text = out_file.read_bytes() if out_file is not None and proc.returncode == 0 else proc.stdout
        return CliOutput(proc.returncode, text, proc.stderr)

    @staticmethod
    def _run_inproc(argv: list[str], out_file: Path | None) -> CliOutput:
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            rc = lk_cli.main(argv)
        text = out_file.read_bytes() if out_file is not None and rc == 0 else buf.getvalue().encode()
        return CliOutput(rc, text, err.getvalue().encode())

    def _op(self, kind: str, key: str, argv: list[str], inproc: bool, deep: Callable,
            bytes_in: int, out_file: Path | None = None, dim: int = 0) -> Op:
        runner = self._run_inproc if inproc else self._run_process

        def check(out: CliOutput) -> str | None:
            return self._check(key, out, deep, bytes_in)

        return Op(kind, lambda: runner(argv, out_file), check, dim)

    def _weights_op(self, name: str, inproc: bool) -> Op:
        path = self.files[name]
        return self._op(f"weights.{name}", name, ["weights", "--state", str(path)], inproc,
                        lambda text: self._deep_weights(name, text), path.stat().st_size)

    def cycle(self, c: int, inproc: bool = False) -> list[Op]:
        ops = [self._weights_op(name, inproc) for name in WEIGHT_FILES for _ in range(WEIGHT_REPEATS)]
        ops.append(self._op("paper-check", "paper-check", ["paper-check"], inproc,
                            self._deep_paper_check, 0))
        basis = self.files["basis"]
        for method in CLI_METHODS:
            ops.append(self._op(f"orthogonalize.{method}", method,
                                ["orthogonalize", "--basis", str(basis), "--method", method], inproc,
                                self._deep_orthogonalize, basis.stat().st_size, dim=64))
        family = ("pure", "density")[c % 2]
        spec = self.files[f"sweep_{family}"]
        out_csv = self.work / f"sweep_{family}.csv"
        ops.append(self._op(f"sweep.{family}", f"sweep_{family}",
                            ["sweep", "--spec", str(spec), "--out", str(out_csv)], inproc,
                            lambda text: self._deep_sweep(family, text), spec.stat().st_size, out_csv))
        return [ops[i] for i in self._order.permutation(len(ops))]

    def cycle_inproc(self, c: int) -> list[Op]:
        return self.cycle(c, inproc=True)

    def sweep_steps(self, kind: str) -> int:
        return SWEEP_STEPS[kind.split(".", 1)[1]]

    # -- checks ------------------------------------------------------------

    def _check(self, key: str, out: CliOutput, deep: Callable, bytes_in: int) -> str | None:
        if out.returncode != 0:
            return f"exit code {out.returncode}: {out.stderr.decode(errors='replace').strip()}"
        first = self.first.get(key)
        if first is None:
            try:
                reason = deep(out.text)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                return reason
            first = self.first[key] = (out.text, len(_NUMBER.findall(out.text)))
        elif out.text != first[0]:
            return f"{key}: output differs from the first run of the same input"
        self.io["bytes_in"] += bytes_in
        self.io["bytes_out"] += len(out.text)
        self.io["numbers_out"] += first[1]
        return None

    def _deep_weights(self, name: str, text: bytes) -> str | None:
        w = np.array(json.loads(text)["weights"], dtype=float)
        if abs(w.sum() - 1.0) > WEIGHTS_TOL:
            return f"{name}: weights sum to {w.sum()!r}"
        dev = _maxdev(w, self.refs[name])
        return None if dev <= WEIGHTS_TOL else f"{name}: weights deviate by {dev:.2e}"

    def _deep_orthogonalize(self, text: bytes) -> str | None:
        report = json.loads(text)
        e = np.array([[complex(*p) for p in vec] for vec in report["basis"]]).T
        t = np.array([complex(*p) for p in report["transform"]]).reshape(64, 64)
        orth = float(np.linalg.norm(e.conj().T @ e - np.eye(64)))
        recon = float(np.linalg.norm(self.basis @ t - e))
        if max(orth, report["orthonormality_error"]) > ORTHONORMALITY_TOL:
            return f"orthogonalize {report['method']}: residual {orth:.2e}"
        if recon > RECONSTRUCTION_TOL:
            return f"orthogonalize {report['method']}: |C T - E| = {recon:.2e}"
        return None

    def _deep_sweep(self, family: str, text: bytes) -> str | None:
        spec = self.sweeps[family]
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in text.decode().splitlines()[1:]])
        s = np.linspace(*spec["range"], spec["steps"])
        if rows.shape != (spec["steps"], 6) or _maxdev(rows[:, 0], s) > 1e-11:
            return f"sweep {family}: unexpected table shape {rows.shape}"
        overlaps = np.zeros((len(s), 2, 2))
        overlaps[:, 0, 0] = overlaps[:, 1, 1] = 1.0
        overlaps[:, 0, 1] = overlaps[:, 1, 0] = s
        lam, u = _np_eigh(overlaps)
        half = (u * np.sqrt(lam)[:, None, :]) @ np.swapaxes(u, 1, 2)
        fixed = spec["fixed"]
        if family == "pure":
            b = half @ np.array([1.0, fixed["gamma"]])
            w = b**2 / np.sum(b**2, axis=1, keepdims=True)
        else:
            p, q = fixed["p"], fixed["q"]
            m = half @ np.array([[p, q], [q, 1.0 - p]]) @ half
            w = np.diagonal(m, axis1=1, axis2=2) / np.trace(m, axis1=1, axis2=2)[:, None]
        dev = _maxdev(rows[:, 1:3], w)
        if dev > WEIGHTS_TOL or _maxdev(rows[:, 1] + rows[:, 2], 1.0) > 1e-11:
            return f"sweep {family}: weights deviate by {dev:.2e}"
        return None

    @staticmethod
    def _deep_paper_check(text: bytes) -> str | None:
        lines = text.decode().strip().splitlines()
        match = re.fullmatch(r"(\d+) checks: (\d+) passed, (\d+) failed", lines[-1])
        if not match or match[1] != match[2] or match[3] != "0":
            return f"paper-check: {lines[-1]!r}"
        return None
