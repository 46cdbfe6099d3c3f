"""Live mutate/query serving: delta maintenance vs full rebuild (ISSUE 10).

Until the delta pipeline, every write invalidated the whole kernel: the
next answer paid a from-scratch ``S3kSearch`` build plus lazy
ConnectionIndex slab rebuilds, so the serving tiers could only offer
read-only traffic.  This bench measures what typed delta propagation
buys on the I1-shaped synthetic instance:

* **delta vs rebuild cost** — the mean per-write kernel patch time
  (``maintenance.patch_wall_seconds`` over every delta applied: the
  mixed run's writes plus a dedicated sequence of DELTA_SAMPLES tag and
  DELTA_SAMPLES comment writes, whose per-kind medians are reported
  too) against the full price a rebuild pays (kernel construction +
  building every ConnectionIndex slab).  The acceptance floor is
  >= 5x; the ratio is machine-relative, so shared-runner noise cannot
  flake it;
* **mixed-traffic throughput** — closed-loop qps over ~1%-write traffic
  (every write a delta-expressible ``add_tag``) against the same
  workload read-only.  The floor is mixed >= 0.5x read-only: writes
  must tax the read path, not collapse it;
* **staleness window** — per write, the submission-to-applied latency
  reported by :class:`MutationResponse`: the interval during which an
  answer may still reflect the pre-write snapshot.  Mean and max are
  reported (and bounded: the write path re-aligns the kernel before
  acknowledging, so the window closes with the ack);
* **bit identity** — after the mixed run, answers from the
  delta-maintained engine are asserted identical to a freshly built
  kernel over the mutated instance.  Throughput from wrong answers does
  not count.

Emits ``BENCH_live_mutation.json`` (repo root + ``results/`` copy; the
CI gate ``check_gates.py live_mutation`` reads the fresh copy).
"""

import random
import statistics
import time
from typing import Dict, List

from repro.core import ConnectionIndex, S3kSearch
from repro.engine import Engine, EngineConfig
from repro.eval import format_table
from repro.queries.workload import (
    connected_seekers,
    document_frequencies,
    frequency_buckets,
)

from benchmarks.conftest import write_result
from benchmarks.emit import write_bench_json

SEED = 29
#: Closed-loop requests per measured pass (reads + interleaved writes).
N_REQUESTS = 256
#: One write per this many requests (~1% write traffic).
WRITE_EVERY = 100
#: Timing passes; the best pass is reported (load spikes only ever slow
#: a pass down).
TIMING_ROUNDS = 3
#: Writes of each kind (tag, comment) in the dedicated delta-cost sequence.
DELTA_SAMPLES = 50
#: ISSUE 10 acceptance floors.
DELTA_VS_REBUILD_FLOOR = 5.0
MIXED_QPS_FLOOR = 0.5


def _queries(instance) -> List[Dict[str, object]]:
    rng = random.Random(SEED)
    _, common = frequency_buckets(document_frequencies(instance))
    seekers = connected_seekers(instance)
    return [
        {
            "seeker": str(rng.choice(seekers)),
            "keywords": [str(rng.choice(common))],
            "k": 5,
        }
        for _ in range(N_REQUESTS)
    ]


def _writes(instance, count: int, serial_base: int) -> List[Dict[str, object]]:
    """Delta-expressible tags: fresh URIs on existing document nodes."""
    rng = random.Random(SEED + serial_base)
    nodes = sorted(str(node) for node in instance.node_to_document)
    users = sorted(str(user) for user in instance.users)
    _, common = frequency_buckets(document_frequencies(instance))
    return [
        {
            "op": "add_tag",
            "uri": f"bench_tag_{serial_base + serial}",
            "subject": rng.choice(nodes),
            "author": rng.choice(users),
            "keyword": str(rng.choice(common)),
        }
        for serial in range(count)
    ]


def _comment_writes(instance, count: int) -> List[Dict[str, object]]:
    """Delta-expressible comments: fresh comment URIs on existing nodes."""
    rng = random.Random(SEED + 1)
    nodes = sorted(str(node) for node in instance.node_to_document)
    return [
        {
            "op": "add_comment_edge",
            "comment": f"bench_comment_{serial}",
            "target": rng.choice(nodes),
        }
        for serial in range(count)
    ]


def _run_read_only(engine, queries) -> float:
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        for query in queries:
            engine.search(query)
        best = min(best, time.perf_counter() - started)
    return len(queries) / best


def _run_mixed(engine, queries, writes) -> Dict[str, object]:
    """One pass of ~1%-write closed-loop traffic (writes are not
    repeatable — tag URIs are unique — so the mix runs once)."""
    staleness: List[float] = []
    modes: List[str] = []
    write_iter = iter(writes)
    started = time.perf_counter()
    for ordinal, query in enumerate(queries):
        if ordinal and ordinal % WRITE_EVERY == 0:
            response = engine.mutate(next(write_iter))
            staleness.append(response.latency_seconds)
            modes.append(response.mode)
        engine.search(query)
    elapsed = time.perf_counter() - started
    n_ops = len(queries) + len(staleness)
    return {
        "qps": n_ops / elapsed,
        "staleness_seconds": staleness,
        "modes": modes,
    }


def _run_delta_sequence(engine, tags, comments) -> Dict[str, List[float]]:
    """Apply alternating tag and comment writes; per kind, the kernel
    patch time of each write (its growth of ``patch_wall_seconds``)."""
    patch_ms: Dict[str, List[float]] = {"add_tag": [], "add_comment_edge": []}
    patched = engine.stats()["maintenance"]["patch_wall_seconds"]
    for tag, comment in zip(tags, comments):
        for write in (tag, comment):
            response = engine.mutate(write)
            assert response.mode == "delta", response
            total = engine.stats()["maintenance"]["patch_wall_seconds"]
            patch_ms[write["op"]].append((total - patched) * 1e3)
            patched = total
    return patch_ms


def _rebuild_seconds(instance) -> float:
    """The full price one inexpressible write makes the next answer pay:
    kernel construction plus every ConnectionIndex slab."""
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        kernel = S3kSearch(instance)
        kernel.connection_index.ensure_all()
        best = min(best, time.perf_counter() - started)
    return best


def test_live_mutation(twitter_instance):
    instance = twitter_instance
    build_started = time.perf_counter()
    ConnectionIndex(instance).ensure_all()
    index_build_seconds = time.perf_counter() - build_started

    queries = _queries(instance)
    # Result cache off: repeated timing passes must measure kernel work,
    # not replay — otherwise the read-only baseline is pure cache hits
    # and the mixed/read-only ratio only measures eviction, not writes.
    engine = Engine(instance, config=EngineConfig(result_cache_size=0))
    engine.warm()
    try:
        read_only_qps = _run_read_only(engine, queries)
        n_writes = (N_REQUESTS - 1) // WRITE_EVERY
        mixed = _run_mixed(engine, queries, _writes(instance, n_writes, 0))
        patch_ms = _run_delta_sequence(
            engine,
            _writes(instance, DELTA_SAMPLES, n_writes),
            _comment_writes(instance, DELTA_SAMPLES),
        )

        maintenance = engine.stats()["maintenance"]
        deltas_applied = int(maintenance["deltas_applied"])
        delta_apply_seconds = (
            maintenance["patch_wall_seconds"] / deltas_applied
            if deltas_applied
            else float("inf")
        )
        rebuild_seconds = _rebuild_seconds(instance)
        ratio = rebuild_seconds / delta_apply_seconds

        # Answers after the writes must match a from-scratch kernel.
        oracle = S3kSearch(instance)
        bit_identical = True
        for query in queries[:16]:
            served = engine.search(query).result
            expected = oracle.search(
                query["seeker"], query["keywords"], k=query["k"]
            )
            bit_identical = bit_identical and (
                [(str(r.uri), r.lower, r.upper) for r in served.results]
                == [(str(r.uri), r.lower, r.upper) for r in expected.results]
                and served.iterations == expected.iterations
            )
    finally:
        engine.close()

    staleness_ms = [s * 1e3 for s in mixed["staleness_seconds"]]
    delta_fraction = (
        mixed["modes"].count("delta") / len(mixed["modes"])
        if mixed["modes"]
        else 0.0
    )
    qps_ratio = mixed["qps"] / read_only_qps if read_only_qps else 0.0

    payload = {
        "instance": "I1",
        "seed": SEED,
        "n_requests": N_REQUESTS,
        "write_every": WRITE_EVERY,
        "writes_applied": len(mixed["modes"]),
        "index_build_seconds": round(index_build_seconds, 3),
        "read_only_qps": round(read_only_qps, 2),
        "mixed_qps": round(mixed["qps"], 2),
        "qps_ratio": round(qps_ratio, 3),
        "delta_apply_ms_mean": round(delta_apply_seconds * 1e3, 3),
        "delta_samples_per_kind": DELTA_SAMPLES,
        "delta_tag_ms_p50": round(statistics.median(patch_ms["add_tag"]), 3),
        "delta_comment_ms_p50": round(
            statistics.median(patch_ms["add_comment_edge"]), 3
        ),
        "rebuild_ms": round(rebuild_seconds * 1e3, 3),
        "delta_vs_rebuild_ratio": round(ratio, 2),
        "delta_fraction": round(delta_fraction, 3),
        "staleness_ms_mean": round(
            sum(staleness_ms) / len(staleness_ms), 3
        )
        if staleness_ms
        else 0.0,
        "staleness_ms_max": round(max(staleness_ms), 3) if staleness_ms else 0.0,
        "deltas_applied": deltas_applied,
        "fallback_rebuilds": int(maintenance["fallback_rebuilds"]),
        "bit_identical": bit_identical,
    }
    write_bench_json("live_mutation", payload)

    rows = [
        ["read-only qps", f"{read_only_qps:.0f}"],
        ["mixed (~1% write) qps", f"{mixed['qps']:.0f}"],
        ["mixed / read-only", f"{qps_ratio:.2f}x"],
        ["delta apply (mean)", f"{delta_apply_seconds * 1e3:.2f} ms"],
        ["tag delta (p50)", f"{payload['delta_tag_ms_p50']:.2f} ms"],
        ["comment delta (p50)", f"{payload['delta_comment_ms_p50']:.2f} ms"],
        ["full rebuild", f"{rebuild_seconds * 1e3:.1f} ms"],
        ["rebuild / delta", f"{ratio:.1f}x"],
        ["staleness window (max)", f"{payload['staleness_ms_max']:.2f} ms"],
        ["writes on the delta path", f"{delta_fraction:.0%}"],
        ["bit-identical to rebuild", str(bit_identical)],
    ]
    write_result(
        "live_mutation",
        format_table(["measure", "value"], rows, title="live mutation (I1)"),
    )

    assert bit_identical, "delta-maintained answers diverged from rebuild"
    assert delta_fraction == 1.0, (
        f"only {delta_fraction:.0%} of writes took the delta path: {mixed['modes']}"
    )
    assert ratio >= DELTA_VS_REBUILD_FLOOR, (
        f"delta apply beats rebuild by {ratio:.1f}x "
        f"(floor {DELTA_VS_REBUILD_FLOOR}x)"
    )
    assert qps_ratio >= MIXED_QPS_FLOOR, (
        f"mixed traffic sustains {qps_ratio:.2f}x of read-only qps "
        f"(floor {MIXED_QPS_FLOOR}x)"
    )
