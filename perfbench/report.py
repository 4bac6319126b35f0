"""Metric definitions, per-layer attribution from spans, run environment.

``END_TO_END`` and ``PER_LAYER`` are the metric tables ``BENCHMARK.json``
lists; ``perfbench/test_perfbench.py`` pins the two against each other.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.spans import Span, ancestors, latency_tail, link_by_containment, self_times

#: ``(name, unit, better, bound)``: what a user of the optimiser sees.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("scenarios_per_s", "1/s", "higher", 0.25),
    ("rows_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("store_bytes_per_scenario", "B", "lower", 0.1),
)

#: Layers whose self time the traced run reports, as ``layer.<name>.self_s``
#: (the engine's own is ``engine.self_s``).
LAYERS = (
    "bench", "api.plan", "solvers", "solvers.bounds", "store.serialize", "store",
    "store.columns", "analysis.records", "analysis.analyze", "reporting",
    "service.client", "service.server", "service.worker",
)
CLIENT_ENDPOINTS = ("lease", "missing", "upload", "heartbeat", "complete", "digest")
SERVER_METHODS = ("ingest", "query_missing", "lease", "heartbeat", "digest")

#: ``(name, unit, better)`` of every metric the traced run reports.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("engine.computed", "count", "lower"),
    ("engine.store_hits", "count", "higher"),
    ("engine.self_s", "s", "lower"),
    ("engine.pool_wait_s", "s", "lower"),
    ("plan.build_s", "s", "lower"),
    ("plan.chunks", "count", "lower"),
    ("plan.scenarios_per_chunk", "count", "higher"),
    ("pool.worker_pids", "count", "higher"),
    ("solve.calls", "count", "lower"),
    ("solve.busy_s", "s", "lower"),
    ("solve.worker_busy_frac", "ratio", "higher"),
    ("kernel.hits", "count", "higher"),
    ("kernel.misses", "count", "lower"),
    ("kernel.hit_ratio", "ratio", "higher"),
    ("certificate.calls", "count", "lower"),
    ("certificate.busy_s", "s", "lower"),
    ("certificate.hit_ratio", "ratio", "higher"),
    ("encode.calls", "count", "lower"),
    ("encode.busy_s", "s", "lower"),
    ("decode.calls", "count", "lower"),
    ("decode.busy_s", "s", "lower"),
    ("store.write.calls", "count", "lower"),
    ("store.write.busy_s", "s", "lower"),
    ("store.write.bytes", "B", "lower"),
    ("store.probe.busy_s", "s", "lower"),
    ("store.get.calls", "count", "lower"),
    ("store.get.busy_s", "s", "lower"),
    ("scan.calls", "count", "lower"),
    ("scan.rows", "count", "higher"),
    ("scan.busy_s", "s", "lower"),
    ("scan.sidecar_ratio", "ratio", "higher"),
    ("aggregate.group_summary_s", "s", "lower"),
    ("aggregate.best_per_soc_s", "s", "lower"),
    ("aggregate.pareto_front_s", "s", "lower"),
    ("render.busy_s", "s", "lower"),
    *(
        item
        for endpoint in CLIENT_ENDPOINTS
        for item in (
            (f"client.{endpoint}.calls", "count", "lower"),
            (f"client.{endpoint}.p50_ms", "ms", "lower"),
            (f"client.{endpoint}.tail_ms", "ms", "lower"),
            (f"client.{endpoint}.tail_pct", "%", "higher"),
        )
    ),
    ("client.upload_bytes_per_record", "B", "lower"),
    *((f"server.{method}.busy_s", "s", "lower") for method in SERVER_METHODS),
    ("server.ingest.decode_s", "s", "lower"),
    ("service.transport_s", "s", "lower"),
    ("worker.computed", "count", "lower"),
    ("worker.skipped", "count", "higher"),
    ("worker.failed", "count", "lower"),
    ("worker.make_record_s", "s", "lower"),
    ("worker.skip_ratio", "ratio", "higher"),
    *((f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.reps", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.attributed_frac", "ratio", "higher"),
    ("trace.untraced_rate", "1/s", "higher"),
    ("trace.traced_rate", "1/s", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: Per-layer metrics that only pool workers can measure.
WORKER_SIDE = ("engine.computed", "solve.calls", "solve.busy_s", "solve.worker_busy_frac",
               "kernel.hits", "kernel.misses", "kernel.hit_ratio")


@dataclass
class TracedRep:
    """One traced repetition: its spans and the counters taken around it."""

    spans: list[Span]
    worker_spans: list[Span]
    extras: dict
    kernel: tuple[int, int]
    certificate: tuple[int, int]


@dataclass
class _Sums:
    count: Counter = field(default_factory=Counter)
    busy: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    extras: Counter = field(default_factory=Counter)
    client_ms: dict = field(default_factory=lambda: defaultdict(list))
    values: Counter = field(default_factory=Counter)


def _accumulate(sums: _Sums, rep: TracedRep, workers: int) -> None:
    spans = rep.spans
    main_tid = next(span.tid for span in spans if span.name == "bench.rep")
    link_by_containment(spans, main_tid)
    by_key = {(span.pid, span.sid): span for span in spans}
    own = self_times(spans)
    wall = 0.0
    linked_clients: dict[int, float] = {}
    for span in spans + rep.worker_spans:
        sums.count[span.name] += 1
        sums.busy[span.name] += span.duration
    for span in spans:
        sums.self_s[span.layer] += own[(span.pid, span.sid)]
        if span.name == "bench.rep":
            wall += span.duration
        elif span.name == "api.plan.build":
            sums.values["plan.chunks"] += span.attrs["chunks"]
            sums.values["plan.scenarios"] += span.attrs["scenarios"]
        elif span.name == "store.columns.scan":
            sums.values["columns.rows"] += span.attrs["rows"]
        elif span.name == "analysis.records.scan":
            sums.values["scan.rows"] += span.attrs["rows"]
        elif span.name == "store.serialize.decode":
            outer = {node.name for node in ancestors(span, by_key)}
            if "store.columns.scan" in outer:
                sums.values["columns.decoded"] += 1
            if "service.server.ingest" in outer:
                sums.values["ingest.decode_s"] += span.duration
        elif span.name.startswith("service.client."):
            endpoint = span.name.rsplit(".", 1)[1]
            sums.client_ms[endpoint].append(span.duration * 1e3)
            if endpoint == "upload":
                sums.values["upload.bytes"] += span.attrs.get("bytes", 0)
                sums.values["upload.records"] += span.attrs["records"]
        elif span.name.startswith("service.server.") and span.parent is not None:
            parent = by_key.get((span.pid, span.parent))
            if parent is not None and parent.name.startswith("service.client."):
                sums.values["server.linked_s"] += span.duration
                linked_clients[parent.sid] = parent.duration
    sums.values["client.linked_s"] += sum(linked_clients.values())
    sums.values["wall_s"] += wall
    sums.values["spans"] += len(spans) + len(rep.worker_spans)
    kernel_hits = rep.kernel[0] + sum(span.attrs.get("kernel_hits", 0) for span in rep.worker_spans)
    kernel_misses = rep.kernel[1] + sum(span.attrs.get("kernel_misses", 0) for span in rep.worker_spans)
    sums.values["kernel.hits"] += kernel_hits
    sums.values["kernel.misses"] += kernel_misses
    sums.values["certificate.hits"] += rep.certificate[0]
    sums.values["certificate.misses"] += rep.certificate[1]
    solvers = [span for span in spans + rep.worker_spans if span.name == "solvers.solve"]
    sums.values["solve.worker_s"] += sum(span.duration for span in solvers)
    sums.values["solve.capacity_s"] += workers * wall
    sums.extras.update(rep.extras)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    reps: list[TracedRep],
    workers: int,
    rates: tuple[float, float],
    worker_spans_missing: bool,
) -> dict[str, float | None]:
    """Every :data:`PER_LAYER` metric, per traced repetition where a count or time."""
    sums = _Sums()
    for rep in reps:
        _accumulate(sums, rep, workers)
    n = len(reps)
    count, busy, values, extras = sums.count, sums.busy, sums.values, sums.extras
    metrics: dict[str, float | None] = {
        "engine.computed": count["api.engine.execute"] / n,
        "engine.store_hits": extras["engine.store_hits"] / n,
        "engine.self_s": sums.self_s["api.engine"] / n,
        "engine.pool_wait_s": busy["api.engine.pool_wait"] / n,
        "plan.build_s": busy["api.plan.build"] / n,
        "plan.chunks": values["plan.chunks"] / n,
        "plan.scenarios_per_chunk": _ratio(values["plan.scenarios"], values["plan.chunks"]),
        "pool.worker_pids": extras["pool.worker_pids"] / n,
        "solve.calls": count["solvers.solve"] / n,
        "solve.busy_s": busy["solvers.solve"] / n,
        "solve.worker_busy_frac": _ratio(values["solve.worker_s"], values["solve.capacity_s"]),
        "kernel.hits": values["kernel.hits"] / n,
        "kernel.misses": values["kernel.misses"] / n,
        "kernel.hit_ratio": _ratio(values["kernel.hits"], values["kernel.hits"] + values["kernel.misses"]),
        "certificate.calls": count["solvers.bounds.certificate"] / n,
        "certificate.busy_s": busy["solvers.bounds.certificate"] / n,
        "certificate.hit_ratio": _ratio(
            values["certificate.hits"], values["certificate.hits"] + values["certificate.misses"]
        ),
        "encode.calls": count["store.serialize.encode"] / n,
        "encode.busy_s": busy["store.serialize.encode"] / n,
        "decode.calls": count["store.serialize.decode"] / n,
        "decode.busy_s": busy["store.serialize.decode"] / n,
        "store.write.calls": count["store.write"] / n,
        "store.write.busy_s": busy["store.write"] / n,
        "store.write.bytes": extras["store.write.bytes"] / n,
        "store.probe.busy_s": busy["store.probe"] / n,
        "store.get.calls": count["store.get"] / n,
        "store.get.busy_s": busy["store.get"] / n,
        "scan.calls": count["analysis.records.scan"] / n,
        "scan.rows": values["scan.rows"] / n,
        "scan.busy_s": busy["analysis.records.scan"] / n,
        "scan.sidecar_ratio": _ratio(
            values["columns.rows"] - values["columns.decoded"], values["columns.rows"]
        ),
        "aggregate.group_summary_s": busy["analysis.analyze.group_summary"] / n,
        "aggregate.best_per_soc_s": busy["analysis.analyze.best_per_soc"] / n,
        "aggregate.pareto_front_s": busy["analysis.analyze.pareto_front"] / n,
        "render.busy_s": busy["reporting.render"] / n,
    }
    for endpoint in CLIENT_ENDPOINTS:
        samples = sums.client_ms.get(endpoint, [])
        median, tail_pct, tail = latency_tail(samples)
        metrics[f"client.{endpoint}.calls"] = len(samples) / n
        metrics[f"client.{endpoint}.p50_ms"] = median
        metrics[f"client.{endpoint}.tail_ms"] = tail
        metrics[f"client.{endpoint}.tail_pct"] = tail_pct
    metrics["client.upload_bytes_per_record"] = _ratio(values["upload.bytes"], values["upload.records"])
    for method in SERVER_METHODS:
        metrics[f"server.{method}.busy_s"] = busy[f"service.server.{method}"] / n
    metrics["server.ingest.decode_s"] = values["ingest.decode_s"] / n
    metrics["service.transport_s"] = (values["client.linked_s"] - values["server.linked_s"]) / n
    computed, skipped = extras["worker.computed"], extras["worker.skipped"]
    metrics.update({
        "worker.computed": computed / n,
        "worker.skipped": skipped / n,
        "worker.failed": extras["worker.failed"] / n,
        "worker.make_record_s": busy["service.worker.make_record"] / n,
        "worker.skip_ratio": _ratio(skipped, computed + skipped),
    })
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sums.self_s[layer] / n
    wall = values["wall_s"]
    untraced, traced = rates
    attributed = sum(seconds for layer, seconds in sums.self_s.items() if layer != "bench")
    metrics.update({
        "trace.reps": float(n),
        "trace.spans": values["spans"] / n,
        "trace.wall_s": wall / n,
        "trace.attributed_frac": _ratio(attributed, wall),
        "trace.untraced_rate": untraced,
        "trace.traced_rate": traced,
        "trace.overhead_frac": _ratio(untraced - traced, untraced),
    })
    if worker_spans_missing:
        for name in WORKER_SIDE:
            metrics[name] = None
    return metrics


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def environment(store_backend: str) -> dict:
    """What a run's numbers depend on besides the code."""
    try:
        import numpy
    except ImportError:
        numpy_version = "absent"
    else:
        numpy_version = numpy.__version__
    return {
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
        "store_backend": store_backend,
    }


def compare(first: Path, second: Path) -> str:
    """Metric-by-metric comparison of two saved run reports.

    Flags every ``env`` key that differs: such runs do not compare.
    """
    a = json.loads(first.read_text(encoding="utf-8"))
    b = json.loads(second.read_text(encoding="utf-8"))
    lines = []
    for key in sorted(set(a["env"]) | set(b["env"])):
        if a["env"].get(key) != b["env"].get(key):
            lines.append(
                f"ENV DIFFERS {key}: {a['env'].get(key)!r} vs {b['env'].get(key)!r}"
                " -- these runs do not compare"
            )
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        lines.append(f"WORKLOAD DIFFERS: {a['workload']} vs {b['workload']}")
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        old, new = a["metrics"][name]["value"], b["metrics"][name]["value"]
        ratio = f"{new / old:.3f}x" if old and new is not None else "n/a"
        lines.append(f"{name:36s} {old!s:>14} -> {new!s:>14}  {ratio}")
    return "\n".join(lines)
