"""lowdin-kit benchmark: three closed-loop, single-client workloads.

    python3 perfbench/run.py --workload {engines,weights,cli,all} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src. With
--trace 0 the last line of stdout is one JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run plus
the tracing overhead. `--workload all` runs each workload in its own child
process, one after another, and prints every result. End-to-end times are
scaled to a nominal machine speed by a yardstick timed next to every op
(see yardstick.py); the raw wall times are printed above the result line.
Details of each run (environment, per-class latencies, inputs, failures) go
to .perfbench_work/results/. See perfbench/README.md for the metrics.
"""

import os

# One BLAS thread for this process and every CLI child it starts: with the
# default pool of 2 the per-call times of small factorizations swing by
# 30x between runs. Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One CPU for this process and its CLI children, so the yardstick runs on
# the CPU that ran the op it scales.
CPUS = os.sched_getaffinity(0)
os.sched_setaffinity(0, {min(CPUS)})

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("engines", "weights", "cli")
SETUP_REPEATS = 5
MIN_OPS = 100  # p90 needs at least ten samples beyond it
MAX_MEASURE_S = 120.0
FLOOR_REPEATS = 5
SPANS_WRITTEN_OPS = 60
MAX_TRACED_OPS = 5000  # bounds the spans held in memory (about 20 spans per op)


@dataclass
class Phase:
    """Outcome of one closed-loop measuring phase."""

    latencies: list = field(default_factory=list)  # (kind, seconds) of successful ops
    scaled: list = field(default_factory=list)  # the same at nominal speed, with a yardstick
    failures: list = field(default_factory=list)  # (kind, reason)
    dims: dict = field(default_factory=dict)  # op id -> basis dimension
    attempted: int = 0
    busy_s: float = 0.0
    scaled_busy_s: float = 0.0

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy_s if self.busy_s else 0.0

    @property
    def scaled_ops_per_s(self) -> float:
        return len(self.scaled) / self.scaled_busy_s if self.scaled_busy_s else 0.0

    def by_kind(self, latencies=None) -> dict:
        out = {}
        for kind, dt in self.latencies if latencies is None else latencies:
            out.setdefault(kind, []).append(dt)
        return out


def measure(cycle, seconds: float, min_ops: int = 0, tracer=None, max_ops: int = 0,
            min_cycles: int = 1, yardstick=None) -> Phase:
    """Run whole cycles of ops until `seconds` have passed and at least
    `min_ops` ops and `min_cycles` cycles were run, or `max_ops` ops were.
    Only the library call is timed; the output check runs between ops. With
    a yardstick, a yardstick sample is taken before the first op and after
    each op, and each op's wall time is also recorded scaled to nominal
    speed by the samples on either side of it."""
    phase = Phase()
    if yardstick is not None:
        before = yardstick.sample()
    start = time.perf_counter()
    c = 0
    while True:
        for op in cycle(c):
            op_id = phase.attempted
            phase.attempted += 1
            phase.dims[op_id] = op.dim
            error = None
            if tracer is not None:
                tracer.begin_op(op_id)
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # counted as a failed op; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end_op()
            phase.busy_s += dt
            if yardstick is not None:
                after = yardstick.sample()
                scaled = dt * yardstick.scale(before + after)
                phase.scaled_busy_s += scaled
                before = after
            if error is None:
                error = op.check(out)
            if error is None:
                phase.latencies.append((op.kind, dt))
                if yardstick is not None:
                    phase.scaled.append((op.kind, scaled))
            else:
                phase.failures.append((op.kind, error))
        c += 1
        elapsed = time.perf_counter() - start
        if ((elapsed >= seconds and phase.attempted >= min_ops and c >= min_cycles)
                or elapsed >= MAX_MEASURE_S or 0 < max_ops <= phase.attempted):
            return phase


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nproc: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": nproc,
        "pinned_cpu": min(CPUS),
        "machine": platform.machine(),
    }


def timed_subprocess(argv: list, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def end_to_end(phase: Phase, setup_s: float, rss_mb: float, scaled: bool = True) -> dict:
    """The end-to-end metrics, from scaled times unless `scaled` is false."""
    ms = [1e3 * dt for _, dt in (phase.scaled if scaled else phase.latencies)]
    return {
        "ops_per_s": (phase.scaled_ops_per_s if scaled else phase.ops_per_s, "ops/s"),
        "latency_p50_ms": (statistics.median(ms) if ms else 0.0, "ms"),
        "latency_p90_ms": (percentile(ms, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def run_traced(wl, seconds: float) -> tuple:
    """Untraced and traced in-process phases (plus, for cli, a subprocess
    phase and the import floors); returns (phases, per-layer metrics, probe)."""
    import layers
    from tracer import Tracer

    extra = {}
    phases = {}
    share = seconds / (3 if wl.name == "cli" else 2)
    if wl.name == "cli":
        exe = sys.executable
        for name, code in (("cli.import_floor_ms", "import numpy"),
                           ("cli.import_lowdin_ms", "import lowdin_kit")):
            walls = [timed_subprocess([exe, "-c", code], wl.env) for _ in range(FLOOR_REPEATS)]
            extra[name] = (1e3 * statistics.median(walls), len(walls))
        phases["subprocess"] = measure(wl.cycle, share)
    phases["untraced"] = measure(wl.cycle_inproc, share)
    if wl.name == "cli":
        wl.io.update(dict.fromkeys(wl.io, 0))
    tracer = Tracer()
    with tracer:
        # Two cycles at least: the CLI alternates sweep families across cycles.
        phases["traced"] = measure(wl.cycle_inproc, share, tracer=tracer, max_ops=MAX_TRACED_OPS,
                                   min_cycles=2)
    if wl.name == "engines":
        extra["probe"] = wl.probe()
    untraced, traced_phase = phases["untraced"], phases["traced"]
    extra["trace.ops_per_s_untraced"] = (untraced.ops_per_s, len(untraced.latencies))
    extra["trace.ops_per_s_traced"] = (traced_phase.ops_per_s, len(traced_phase.latencies))
    if traced_phase.ops_per_s:
        overhead = 100.0 * (untraced.ops_per_s / traced_phase.ops_per_s - 1.0)
        extra["trace.overhead_pct"] = (overhead, len(traced_phase.latencies))
    if wl.name == "cli":
        extra.update(cli_extras(wl, phases["subprocess"], untraced))
    metrics = layers.summarize(tracer, traced_phase.dims, traced_phase.attempted, extra)
    write_spans(tracer, wl.name)
    return phases, metrics, extra.get("probe")


def cli_extras(wl, subproc: Phase, inproc: Phase) -> dict:
    extra = dict(wl.io)
    inproc_kind = {k: statistics.median(v) for k, v in inproc.by_kind().items()}
    overheads = [dt - inproc_kind[k] for k, dt in subproc.latencies if k in inproc_kind]
    if overheads:
        extra["cli.process_overhead_ms"] = (1e3 * statistics.median(overheads), len(overheads))
    by_command = {}
    per_step = []
    for kind, dt in inproc.latencies:
        by_command.setdefault(kind.split(".")[0], []).append(dt)
        if kind.startswith("sweep."):
            per_step.append(dt / wl.sweep_steps(kind))
    for command in ("weights", "orthogonalize", "sweep", "paper-check"):
        walls = by_command.get(command, [])
        if walls:
            extra[f"cli.{command.replace('-', '_')}_ms"] = (1e3 * statistics.median(walls), len(walls))
    if per_step:
        extra["cli.sweep_us_per_step"] = (1e6 * statistics.median(per_step), len(per_step))
    rows = [line for line in wl.first["paper-check"][0].decode().splitlines()
            if line.endswith(("PASS", "FAIL"))]
    if rows:
        extra["checks.rows_passed_ratio"] = (sum(r.endswith("PASS") for r in rows) / len(rows), len(rows))
    return extra


def write_spans(tracer, workload: str) -> None:
    """Spans of the first traced ops, one JSON list per line."""
    from tracer import OP

    path = WORK / "results" / f"spans-{workload}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(["name", "layer", "parent", "op", "t0", "t1", "child_s", "error", "work"]) + "\n")
        for span in tracer.spans:
            if span[OP] >= SPANS_WRITTEN_OPS:
                continue
            fh.write(json.dumps(span, default=str) + "\n")


def print_classes(phase: Phase, label: str) -> None:
    print(f"{label}: {len(phase.latencies)} ok of {phase.attempted} attempted, "
          f"busy {phase.busy_s:.3f} s")
    scaled = phase.by_kind(phase.scaled)
    for kind, walls in sorted(phase.by_kind().items()):
        line = f"  {kind:<34} n={len(walls):<6} median {1e3 * statistics.median(walls):10.4f} ms"
        if kind in scaled:
            line += f", {1e3 * statistics.median(scaled[kind]):10.4f} ms at nominal speed"
        print(line)
    for kind, reason in phase.failures[:10]:
        print(f"  FAILED {kind}: {reason}")


def print_probe(probe: list) -> None:
    failed = [r for r in probe if r["failed"]]
    print(f"conditioning tail (accepted by the validators): {len(failed)} of {len(probe)} "
          f"engine calls failed, tail fail_ratio {len(failed) / len(probe):.4f}")
    for r in sorted(failed, key=lambda r: (-r["lambda_min"], r["dim"], r["engine"])):
        print(f"  d={r['dim']:<4} lambda_min={r['lambda_min']:.3e} kappa={r['kappa']:.2e} "
              f"{r['engine']:<17} {r['reason'][:90]}")


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        print(f"=== {name} ===")
        print(proc.stdout, end="")
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "lowdin_kit" / "__init__.py").is_file():
        print(f"error: {SRC / 'lowdin_kit'} not found; run from a lowdin-kit checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import lowdin_kit

    import_s = time.perf_counter() - t0
    if Path(lowdin_kit.__file__).resolve().parent != SRC / "lowdin_kit":
        print(f"error: imported lowdin_kit from {lowdin_kit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from yardstick import LargeYardstick, ProcessYardstick, Yardstick

    env = environment(len(CPUS))
    wl = {"engines": workloads.Engines, "weights": workloads.Weights, "cli": workloads.Cli}[
        args.workload](args.seed, WORK / f"{args.workload}-inputs")
    yardstick = {"engines": LargeYardstick, "weights": Yardstick,
                 "cli": lambda: ProcessYardstick(wl.env)}[args.workload]()
    import_scale = yardstick.scale(yardstick.sample(yardstick.SETUP_REPS))
    setups = []
    scaled_setups = []
    for _ in range(SETUP_REPEATS):
        before = yardstick.sample(yardstick.SETUP_REPS)
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
        after = yardstick.sample(yardstick.SETUP_REPS)
        scaled_setups.append(setups[-1] * yardstick.scale(before + after))
    raw_setup_s = import_s + statistics.median(setups)
    setup_s = import_s * import_scale + statistics.median(scaled_setups)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env))
    print(f"setup: import {import_s:.4f} s + median of {SETUP_REPEATS} set-ups "
          f"{[round(s, 4) for s in setups]} (wall)")
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "env": env, "setup_s": setups, "import_s": import_s,
               "scaled_setup_s": scaled_setups, "import_scale": import_scale}
    if args.workload == "engines":
        details["inputs"] = wl.inputs()
        print("inputs (lambda_min / kappa of O):")
        for row in details["inputs"]:
            print(f"  {row['set']:<5} d={row['dim']:<4} eps={row['eps']:<7g} "
                  f"lambda_min={row['lambda_min']:.3e} kappa={row['kappa']:.2e}")

    if args.trace == 0:
        phase = measure(wl.cycle, args.seconds, MIN_OPS, yardstick=yardstick)
        probe = wl.probe() if args.workload == "engines" else None
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        metrics = end_to_end(phase, setup_s, rss_mb)
        counted = phase
        print_classes(phase, "timed ops (wall)")
        wall = end_to_end(phase, raw_setup_s, rss_mb, scaled=False)
        print("wall-clock values: " + ", ".join(f"{name} {value:.6g} {unit}"
                                                for name, (value, unit) in wall.items()))
        details["wall"] = {name: value for name, (value, _) in wall.items()}
        print(f"end-to-end metrics (closed loop, one client; times at nominal speed; "
              f"{len(phase.latencies)} latency samples):")
        missing = []
    else:
        import layers

        phases, layer_metrics, probe = run_traced(wl, args.seconds)
        for label, phase in phases.items():
            print_classes(phase, f"{label} phase")
        metrics = {name: (value, layers.UNITS[name]) for name, (value, _) in layer_metrics.items()}
        counted = Phase(
            latencies=[x for p in phases.values() for x in p.latencies],
            failures=[x for p in phases.values() for x in p.failures],
            attempted=sum(p.attempted for p in phases.values()))
        missing = layers.uncovered(layer_metrics, args.workload)
        print(layers.WAIT_NOTE)
        print("per-layer metrics (traced phase; samples = spans or calls behind each value):")
        details["per_layer_samples"] = {k: n for k, (_, n) in layer_metrics.items()}
        if missing:
            print(f"NO SPANS for metrics this workload should exercise: {', '.join(missing)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:16.6f} {unit}")
    fail_ratio = len(counted.failures) / counted.attempted if counted.attempted else 0.0
    print(f"  {'fail_ratio':<38} {fail_ratio:16.6f} 1  ({len(counted.failures)} of {counted.attempted})")
    if probe is not None:
        print_probe(probe)
        details["probe"] = probe

    correct = not counted.failures and not missing
    result = {
        "correct": correct,
        "attempted": counted.attempted,
        "failed": len(counted.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details.update(result=result, failures=counted.failures[:50], missing_spans=missing)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(details, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
