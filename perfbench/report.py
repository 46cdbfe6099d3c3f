"""End-to-end and per-layer metrics of one run.

``BENCHMARK.json`` names every metric with its unit and better
direction; :func:`declared` reads them from there.  Every workload
reports every metric; a layer a workload does not exercise reads 0 there
(see the prediction table in ``perfbench/README.md`` for which workload
moves which metric).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from . import tracing
from .loadgen import Phase, late_p99_ms, percentile
from .workloads import Run


def declared(spec: Path, trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as *spec* (``BENCHMARK.json``) lists them for
    the traced (per-layer) or the untraced (end-to-end) run."""
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in json.loads(spec.read_text())[section]}


#: Span names of each ``share.*`` metric (the share of end-to-end request
#: time the layer's spans cover).
SHARES = {
    "share.engine": ("engine.asearch", "engine.amutate", "engine.search"),
    "share.search_many": ("search.search_many",),
    "share.step_many": ("prox.step_many",),
    "share.search": ("search.search",),
    "share.apply_deltas": ("search.apply_deltas",),
    "share.kernel_build": ("search.kernel_build",),
}


def _ms(values: Sequence[float], q: float) -> float:
    return percentile(values, q) * 1e3 if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def qps(phase: Phase) -> float:
    return _ratio(phase.completed.get("read", 0), phase.elapsed)


def end_to_end(run: Run) -> Dict[str, float]:
    phases = run.phases()
    attempted = sum(p.attempted for p in phases)
    # uniform_2x has no open loop: its latencies are the closed loop's,
    # per request.
    reads = run.open if run.workload.rate else run.closed
    return {
        "setup_s": statistics.median(run.setup_seconds),
        "rss_mb": run.rss_mb,
        "qps": qps(run.closed),
        "p50_ms": _ms(reads.latencies("read"), 50),
        "p90_ms": _ms(reads.latencies("read"), 90),
        "write_p50_ms": _ms(run.probe.latencies("write"), 50),
        "success_ratio": _ratio(sum(p.succeeded for p in phases), attempted),
    }


def _delta(run: Run, section: str, name: str) -> float:
    after = run.stats_after.get(section, {}).get(name, 0) or 0
    before = run.stats_before.get(section, {}).get(name, 0) or 0
    return float(after) - float(before)


def _spans(run: Run) -> List[tracing.Span]:
    own = run.tracer.spans if run.tracer is not None else []
    return list(own) + run.spans


def per_layer(run: Run) -> Dict[str, float]:
    spans = _spans(run)
    windows = run.traced_windows
    timed = [s for s in spans if tracing.in_windows(s, windows)]
    named: Dict[str, List[tracing.Span]] = {}
    for span in timed:
        named.setdefault(span.name, []).append(span)

    def durations(name: str) -> List[float]:
        return [s.duration for s in named.get(name, [])]

    def mean_info(name: str) -> float:
        values = [len(s.info) if isinstance(s.info, list) else s.info for s in named.get(name, [])]
        values = [v for v in values if isinstance(v, (int, float))]
        return statistics.fmean(values) if values else 0.0

    selves = tracing.self_seconds(spans)
    counters = dict(run.tracer.counters if run.tracer is not None else {})
    counters.update(run.counters)

    def counter(name: str) -> float:
        return float(counters.get(name, 0.0))

    metrics: Dict[str, float] = {
        "prox.step_many.s": sum(durations("prox.step_many")),
        "prox.step_many.calls": float(len(named.get("prox.step_many", []))),
        "prox.step_many.columns_mean": mean_info("prox.step_many"),
        "search.search_many.ms_p50": _ms(durations("search.search_many"), 50),
        "search.search_many.ms_p99": _ms(durations("search.search_many"), 99),
        "search.search_many.columns_mean": mean_info("search.search_many"),
        "search.search_many.self_s": sum(
            selves[s.ident] for s in named.get("search.search_many", [])
        ),
        "search.phase_step_s": counter("phase_step_seconds"),
        "search.phase_discover_s": counter("phase_discover_seconds"),
        "search.phase_bounds_s": counter("phase_bounds_seconds"),
        "search.phase_clean_stop_s": counter("phase_clean_stop_seconds"),
        "search.stop_fast_ratio": _ratio(
            counter("stop_checks_fast"),
            counter("stop_checks_fast") + counter("stop_checks_full"),
        ),
        "search.clean_fast_ratio": _ratio(
            counter("clean_checks_fast"),
            counter("clean_checks_fast") + counter("clean_checks_full"),
        ),
        "search.search.ms_p50": _ms(durations("search.search"), 50),
        "search.search.ms_p99": _ms(durations("search.search"), 99),
        "search.apply_deltas.ms_p50": _ms(durations("search.apply_deltas"), 50),
        "connection_index.apply_delta.ms_p50": _ms(
            durations("connection_index.apply_delta"), 50
        ),
        "facade.fallback_rebuilds": _delta(run, "maintenance", "fallback_rebuilds"),
        "facade.deltas_applied": _delta(run, "maintenance", "deltas_applied"),
        "facade.rebuild_s": sum(durations("search.kernel_build")),
        "result_cache.hit_ratio": _ratio(
            counter("cache_hits"), counter("cache_hits") + counter("cache_misses")
        ),
        "connection_index.bytes": float(
            run.stats_after.get("connection_index", {}).get("size_bytes", 0)
        ),
        "probe.write_ms_p90": _ms(run.probe.latencies("write"), 90),
        "loadgen.late_ms_p99": late_p99_ms(run.open) or 0.0,
        "loadgen.write_ack_ms_p50": _ms(run.open.latencies("write"), 50),
        "loadgen.write_ack_ms_p90": _ms(run.open.latencies("write"), 90),
        "trace.overhead_ratio": _ratio(qps(run.closed), qps(run.closed_traced)),
    }
    metrics.update(_batcher(run, named))
    metrics.update(_http(run, named))
    metrics.update(_setup(run, spans))
    metrics.update(_shares(run, named))
    return metrics


def _batcher(run: Run, named) -> Dict[str, float]:
    requests = named.get("engine.asearch", [])
    if requests and isinstance(requests[0].info, list):
        # Server spans carry [request id, wait] computed in the server.
        waits = [s.info[1] for s in requests if s.info]
    else:
        waits = tracing.kernel_waits(requests, named.get("search.search_many", []))
    batches = _delta(run, "batcher", "batches")
    computed = _delta(run, "batcher", "computed")
    return {
        "batcher.wait_ms_p50": _ms(waits, 50),
        "batcher.wait_ms_p99": _ms(waits, 99),
        "batcher.mean_batch_size": _ratio(computed, batches),
        "batcher.collapse_rate": _ratio(_delta(run, "batcher", "submitted"), computed),
        "batcher.deadline_flush_share": _ratio(
            _delta(run, "batcher", "deadline_flushes"), batches
        ),
    }


def _http(run: Run, named) -> Dict[str, float]:
    server = {
        s.info[0]: s.duration
        for s in run.spans
        if s.name == "engine.asearch" and s.info
    }
    own = [
        s.duration - server[s.info]
        for s in named.get("http.call", [])
        if s.info in server
    ]
    return {
        "http.self_ms_p50": _ms(own, 50),
        "http.self_ms_p99": _ms(own, 99),
        "http.status_429": float(run.statuses.get(429, 0)),
        "http.status_5xx": float(sum(n for code, n in run.statuses.items() if code >= 500)),
    }


def _setup(run: Run, spans) -> Dict[str, float]:
    """Set-up layer times: medians over the run's timed set-ups."""

    def per_setup(names: Tuple[str, ...]) -> float:
        totals = []
        for low, high in run.setup_windows:
            inside = [
                s.duration for s in spans
                if s.name in names and low <= s.start and s.end <= high
            ]
            if inside:
                totals.append(sum(inside))
        return statistics.median(totals) if totals else 0.0

    return {
        "datasets.generate_s": statistics.median(run.generate_seconds),
        "search.kernel_build_s": per_setup(("search.kernel_build",)),
        "connection_index.warm_s": per_setup(("connection_index.ensure_all",)),
        "storage.load_s": per_setup(
            ("storage.load_instance", "storage.load_connection_index")
        ),
    }


def _shares(run: Run, named) -> Dict[str, float]:
    """Share of end-to-end request time each layer's spans cover."""
    requests = named.get("http.call") or [
        s for name in SHARES["share.engine"] for s in named.get(name, [])
    ]
    frame = [(s.start, s.end) for s in requests]
    whole = tracing.union_length(frame)
    out = {}
    for metric, names in SHARES.items():
        inner = [(s.start, s.end) for name in names for s in named.get(name, [])]
        out[metric] = _ratio(tracing.overlap_length(inner, frame), whole)
    return out
