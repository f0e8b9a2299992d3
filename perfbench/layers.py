"""Per-layer metrics derived from one traced phase.

`PER_LAYER` is the single list of per-layer metrics: name, unit, direction,
and the workloads that must exercise it. `summarize` returns, for each
metric, its value and the number of spans (or calls) it was built from;
`uncovered` lists the metrics that should have been exercised on a workload
but received no span, which points at a wrapper installed under the wrong
name rather than at a real zero.

Durations are inclusive wall time of a span, except where a metric says
"self": its span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tracer import CHILD, ERROR, LAYER, NAME, OP, PARENT, T0, T1, WORK

ALL = ("engines", "weights", "cli")
ENGINE_SPANS = {"ortho.gram_schmidt": "gram_schmidt", "ortho.lowdin_symmetric": "lowdin_sym",
                "ortho.lowdin_canonical": "lowdin_can"}
POWER_CACHES = ("gram.GramMatrix.eigen", "gram.GramMatrix.sqrt", "gram.GramMatrix.inv_sqrt")
PARSE_STAGE = frozenset({"cli._load_json", "cli.parse_sweep_spec", "fileformats.parse_gram",
                         "fileformats.parse_basis", "fileformats.parse_state"})
SERIALIZE_STAGE = frozenset({"fileformats.round_tree", "fileformats.matrix_to_pairs",
                             "fileformats.vector_to_pairs", "fileformats.basis_to_dict",
                             "fileformats.fmt12", "cli.AnalysisReport.to_json"})

# name, unit, better, workloads on which it must receive spans
PER_LAYER = [
    ("linalg.eigh_per_op", "count", "lower", ALL),
    ("linalg.svd_per_op", "count", "lower", ()),
    ("linalg.qr_per_op", "count", "lower", ()),
    ("linalg.solve_per_op", "count", "lower", ("engines", "cli")),
    ("linalg.factor_work_n3_per_op", "n3", "lower", ALL),
    ("linalg.lapack_ms_per_op", "ms", "lower", ALL),
    ("linalg.self_ms_per_op", "ms", "lower", ALL),
    ("gram.constructs_per_op", "count", "lower", ALL),
    ("gram.construct_ms_per_op", "ms", "lower", ALL),
    ("gram.power_cache_hit_ratio", "1", "higher", ALL),
    *((f"ortho.{short}_ms.d{d}", "ms", "lower", ("engines", "cli") if d == 64 else ("engines",))
      for short in ENGINE_SPANS.values() for d in (64, 256)),
    ("ortho.basisset_builds_per_op", "count", "lower", ("engines", "cli")),
    ("ortho.fail_ratio", "1", "lower", ("engines",)),
    ("states.normalize_pure_us", "us", "lower", ("weights", "cli")),
    ("states.weights_pure_us", "us", "lower", ("weights", "cli")),
    ("states.density_validate_us", "us", "lower", ("weights", "cli")),
    ("states.weights_density_us", "us", "lower", ("weights", "cli")),
    ("states.offdiag_us", "us", "lower", ("weights", "cli")),
    ("states.eigh_per_op", "count", "lower", ("weights", "cli")),
    ("measures.report_us", "us", "lower", ("weights", "cli")),
    ("measures.calls_per_op", "count", "lower", ("weights", "cli")),
    ("fileformats.parse_ms", "ms", "lower", ("cli",)),
    ("fileformats.serialize_ms", "ms", "lower", ("cli",)),
    ("fileformats.bytes_in_per_op", "B", "lower", ("cli",)),
    ("fileformats.bytes_out_per_op", "B", "lower", ("cli",)),
    ("fileformats.serialize_ns_per_number", "ns", "lower", ("cli",)),
    ("cli.import_floor_ms", "ms", "lower", ("cli",)),
    ("cli.import_lowdin_ms", "ms", "lower", ("cli",)),
    ("cli.process_overhead_ms", "ms", "lower", ("cli",)),
    ("cli.sweep_us_per_step", "us", "lower", ("cli",)),
    ("cli.weights_ms", "ms", "lower", ("cli",)),
    ("cli.orthogonalize_ms", "ms", "lower", ("cli",)),
    ("cli.sweep_ms", "ms", "lower", ("cli",)),
    ("cli.paper_check_ms", "ms", "lower", ("cli",)),
    ("checks.reference_rows_ms", "ms", "lower", ("cli",)),
    ("checks.rows_passed_ratio", "1", "higher", ("cli",)),
    ("trace.ops_per_s_untraced", "ops/s", "higher", ALL),
    ("trace.ops_per_s_traced", "ops/s", "higher", ALL),
    ("trace.overhead_pct", "%", "lower", ALL),
]
UNITS = {name: unit for name, unit, _, _ in PER_LAYER}

WAIT_NOTE = ("wait time: none recorded; no layer has a queue "
             "(one closed-loop client, one thread of work)")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _owner(spans, span) -> str:
    """Layer of the nearest enclosing span outside linalg/lapack."""
    while span[LAYER] in ("lapack", "linalg") and span[PARENT] >= 0:
        span = spans[span[PARENT]]
    return span[LAYER]


def _top_level(spans, names) -> list:
    """Spans named in `names` with no ancestor also named in `names`."""
    out = []
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            out.append(span)
    return out


def summarize(tracer, op_dims: dict, n_ops: int, extra: dict) -> dict:
    """Per-layer metrics of a traced phase: {name: (value, samples)}.

    `op_dims` maps each traced op id to its basis dimension; `extra` holds the
    values measured outside the span tree (probe, CLI phases, overhead).
    """
    spans = tracer.spans
    per_op = 1.0 / max(n_ops, 1)
    count = Counter(s[NAME] for s in spans)
    durations = defaultdict(list)
    for s in spans:
        durations[s[NAME]].append(s[T1] - s[T0])
    lapack = [s for s in spans if s[LAYER] == "lapack"]
    linalg_self = [s[T1] - s[T0] - s[CHILD] for s in spans if s[LAYER] == "linalg"]
    out = {}

    def put(name, value, samples):
        out[name] = (float(value), int(samples))

    for fn in ("eigh", "svd", "qr", "solve"):
        put(f"linalg.{fn}_per_op", count[f"lapack.{fn}"] * per_op, count[f"lapack.{fn}"])
    put("linalg.factor_work_n3_per_op", sum(s[WORK] for s in lapack) * per_op, len(lapack))
    put("linalg.lapack_ms_per_op", 1e3 * sum(s[T1] - s[T0] for s in lapack) * per_op, len(lapack))
    put("linalg.self_ms_per_op", 1e3 * sum(linalg_self) * per_op, len(linalg_self))

    n_gram = count["gram.GramMatrix"]
    put("gram.constructs_per_op", n_gram * per_op, n_gram)
    put("gram.construct_ms_per_op", 1e3 * sum(durations["gram.GramMatrix"]) * per_op, n_gram)
    hits = sum(tracer.hits[n] for n in POWER_CACHES)
    accesses = hits + sum(tracer.misses[n] for n in POWER_CACHES)
    put("gram.power_cache_hit_ratio", hits / accesses if accesses else 0.0, accesses)

    engine_self = defaultdict(list)
    for s in spans:
        short = ENGINE_SPANS.get(s[NAME])
        if short and s[ERROR] is None:
            engine_self[f"ortho.{short}_ms.d{op_dims.get(s[OP], 0)}"].append(s[T1] - s[T0] - s[CHILD])
    for short in ENGINE_SPANS.values():
        for d in (64, 256):
            name = f"ortho.{short}_ms.d{d}"
            put(name, 1e3 * _median(engine_self[name]), len(engine_self[name]))
    put("ortho.basisset_builds_per_op", count["ortho.BasisSet"] * per_op, count["ortho.BasisSet"])
    probe = extra.get("probe", [])
    put("ortho.fail_ratio", sum(r["failed"] for r in probe) / len(probe) if probe else 0.0, len(probe))

    for metric, span in (("normalize_pure_us", "states.normalize_pure"),
                         ("weights_pure_us", "states.weights_pure"),
                         ("density_validate_us", "states.DensityOperator"),
                         ("weights_density_us", "states.weights_density"),
                         ("offdiag_us", "states.offdiagonal_decomposition")):
        put(f"states.{metric}", 1e6 * _median(durations[span]), count[span])
    states_eigh = sum(1 for s in lapack if s[NAME] == "lapack.eigh" and _owner(spans, s) == "states")
    put("states.eigh_per_op", states_eigh * per_op, states_eigh)

    put("measures.report_us", 1e6 * _median(durations["measures.measure_report"]),
        count["measures.measure_report"])
    n_measures = sum(1 for s in spans if s[LAYER] == "measures")
    put("measures.calls_per_op", n_measures * per_op, n_measures)

    parse = _top_level(spans, PARSE_STAGE)
    serialize = _top_level(spans, SERIALIZE_STAGE)
    serialize_s = sum(s[T1] - s[T0] for s in serialize)
    put("fileformats.parse_ms", 1e3 * sum(s[T1] - s[T0] for s in parse) * per_op, len(parse))
    put("fileformats.serialize_ms", 1e3 * serialize_s * per_op, len(serialize))
    numbers = extra.get("numbers_out", 0)
    put("fileformats.bytes_in_per_op", extra.get("bytes_in", 0) * per_op, len(parse))
    put("fileformats.bytes_out_per_op", extra.get("bytes_out", 0) * per_op, len(serialize))
    put("fileformats.serialize_ns_per_number", 1e9 * serialize_s / numbers if numbers else 0.0,
        len(serialize) if numbers else 0)

    for name in ("cli.import_floor_ms", "cli.import_lowdin_ms", "cli.process_overhead_ms",
                 "cli.sweep_us_per_step", "cli.weights_ms", "cli.orthogonalize_ms",
                 "cli.sweep_ms", "cli.paper_check_ms"):
        put(name, *extra.get(name, (0.0, 0)))

    put("checks.reference_rows_ms", 1e3 * _median(durations["checks.reference_rows"]),
        count["checks.reference_rows"])
    put("checks.rows_passed_ratio", *extra.get("checks.rows_passed_ratio", (0.0, 0)))

    for name in ("trace.ops_per_s_untraced", "trace.ops_per_s_traced", "trace.overhead_pct"):
        put(name, *extra.get(name, (0.0, 0)))
    return out


def uncovered(metrics: dict, workload: str) -> list[str]:
    """Metrics this workload should exercise that received no span."""
    return [name for name, _, _, expected in PER_LAYER
            if workload in expected and metrics[name][1] == 0]
