"""Process-parallel sharded serving: throughput scaling vs shard count.

The sharded tier (ISSUE 7) answers each query in one of N worker processes
— full engines forked from a single warm parent so the ConnectionIndex
slabs and proximity matrices exist once physically (copy-on-write /
slab placement), not N times.  This bench measures what that buys under
closed-loop load on the I1-shaped synthetic instance:

* ``uniform`` — effectively unique queries: no cache can help, every
  answer is kernel work, so qps scales only if the *processes* scale.
  This is where the >= 1.5x @ 4 shards acceptance target of ISSUE 7
  lives — and where the anti-pattern the issue warns about (fan every
  query to every shard) would show up as ~0.67x *regression* instead;
* ``hot`` — trending traffic from a small pool: whole-query routing by
  stable hash keeps repeats on the same shard, preserving result-cache
  and collapse affinity (caches are disabled here so the scaling
  numbers measure compute, not replay — affinity is asserted via the
  shard-load distribution instead).

Every sharded answer is asserted bit-identical to a single-process
engine run sequentially over the same workload.  The emitted
``BENCH_sharded_scaling.json`` records the measured core count
honestly: on a 1-core container real parallel speedup is impossible,
so the in-bench asserts (and the CI gate
``check_gates.py sharded_scaling``) scale their floors with ``cores`` — the
full 1.5x target is enforced where >= 4 cores exist, while the
0.67x fan-out regression shape hard-fails everywhere.
"""

import os
import random
import time
from typing import Dict, List

from repro.core import ConnectionIndex
from repro.engine import Engine, EngineConfig, ShardedEngine
from repro.eval import format_table
from repro.queries.workload import (
    QuerySpec,
    connected_seekers,
    document_frequencies,
    frequency_buckets,
)

from benchmarks.conftest import write_result
from benchmarks.emit import write_bench_json

N_QUERIES = 64
#: Deterministic workload seed (the instance seed lives in conftest).
SEED = 23
SHARD_COUNTS = (1, 2, 4)
TIMING_ROUNDS = 3
#: (mix name, hot-pool size, Zipf exponent) — uniform degenerates to
#: (near-)unique traffic, hot replays a 16-query trending pool.
TRAFFIC_MIXES = (
    ("uniform", N_QUERIES * 4, 0.0),
    ("hot", 16, 1.2),
)
#: Speedup floors for 4 shards vs 1 shard on the uniform mix, keyed by
#: available cores.  Mirrors benchmarks/check_gates.py: the
#: ISSUE 7 target (1.5x) applies where the hardware can deliver it; on
#: fewer cores the floor only guards against the fan-out regression.
SPEEDUP_FLOORS = {1: 0.75, 2: 1.15, 3: 1.3}
FULL_TARGET = 1.5
#: 4-shard qps below 0.75x of 1-shard qps is the every-shard-computes-
#: every-query shape (per-component fan-out lands at ~0.67x or worse) —
#: a hard failure regardless of core count.  IPC overhead alone costs
#: ~0.8-0.9x on a single time-sliced core, so 0.75 separates the two.
REGRESSION_FACTOR = 0.75


def _floor_for(cores: int) -> float:
    return SPEEDUP_FLOORS.get(cores, FULL_TARGET) if cores < 4 else FULL_TARGET


def _traffic(instance, pool_size: int, zipf_s: float) -> List[Dict[str, object]]:
    """A deterministic traffic slice: Zipf-weighted draws from a pool."""
    rng = random.Random(SEED)
    _, common = frequency_buckets(document_frequencies(instance))
    seekers = connected_seekers(instance)
    pool = [
        QuerySpec(rng.choice(seekers), (rng.choice(common),), 5)
        for _ in range(pool_size)
    ]
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(pool_size)]
    return [
        {"seeker": str(spec.seeker), "keywords": list(spec.keywords), "k": spec.k}
        for spec in rng.choices(pool, weights=weights, k=N_QUERIES)
    ]


def _ranked(response) -> tuple:
    result = response.result
    return (
        tuple((str(r.uri), r.lower, r.upper) for r in result.results),
        result.iterations,
        result.terminated_by,
    )


def _best_seconds(engine, queries) -> float:
    """Best-of-N closed-loop wall time for the whole workload in flight."""
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        engine.search_many(queries)
        best = min(best, time.perf_counter() - started)
    return best


def test_sharded_scaling(benchmark, twitter_instance):
    instance = twitter_instance
    cores = len(os.sched_getaffinity(0))
    build_started = time.perf_counter()
    index = ConnectionIndex(instance).ensure_all()
    index_build_seconds = time.perf_counter() - build_started
    # Caches off: uniform traffic measures the kernel, and repeating the
    # same workload across timing rounds must not degrade into replay.
    config = EngineConfig(result_cache_size=0)

    reference = Engine(instance, connection_index=index, config=config)
    rows: List[List[object]] = []
    workload_records = []
    speedups: Dict[str, Dict[int, float]] = {}
    four_shard_stats = None
    for name, pool_size, zipf_s in TRAFFIC_MIXES:
        queries = _traffic(instance, pool_size, zipf_s)
        unique = len(
            {(q["seeker"], tuple(q["keywords"]), q["k"]) for q in queries}
        )
        expected = [_ranked(reference.search(dict(q))) for q in queries]
        scaling = []
        qps_by_shards: Dict[int, float] = {}
        for shards in SHARD_COUNTS:
            sharded = ShardedEngine(
                instance, shards=shards, connection_index=index, config=config
            )
            try:
                answers = sharded.search_many(queries)
                assert [_ranked(a) for a in answers] == expected, (
                    f"sharded answers diverged from the single-process "
                    f"engine ({name} mix, {shards} shards)"
                )
                seconds = _best_seconds(sharded, queries)
                if name == "uniform" and shards == 4:
                    four_shard_stats = sharded.stats()
            finally:
                sharded.close()
            qps = N_QUERIES / seconds
            qps_by_shards[shards] = qps
            speedup = qps / qps_by_shards[SHARD_COUNTS[0]]
            scaling.append(
                {
                    "shards": shards,
                    "qps": round(qps, 2),
                    "speedup": round(speedup, 3),
                    "mean_latency_ms": round(seconds / N_QUERIES * 1e3, 3),
                }
            )
            rows.append(
                [name, f"{unique}/{N_QUERIES}", shards, f"{qps:.0f}", f"{speedup:.2f}x"]
            )
        speedups[name] = {
            shards: qps / qps_by_shards[SHARD_COUNTS[0]]
            for shards, qps in qps_by_shards.items()
        }
        workload_records.append(
            {"workload": name, "unique_queries": unique, "scaling": scaling}
        )

    assert four_shard_stats is not None
    shard_load = {
        f"shard_{i}": int(four_shard_stats[f"shard_{i}"]["queries_routed"])
        for i in range(4)
    }
    router = four_shard_stats["router"]
    # Whole-query hashing must actually spread uniform traffic.
    assert sum(1 for n in shard_load.values() if n > 0) >= 3, shard_load

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = format_table(
        ["traffic mix", "unique", "shards", "q/s", "vs 1 shard"],
        rows,
        title=(
            f"Sharded serving scaling on I1 ({N_QUERIES} queries closed-loop, "
            f"{cores} core{'s' if cores != 1 else ''}, caches off)"
        ),
    )
    balance_line = (
        f"4-shard uniform load: "
        + ", ".join(f"{k}={v}" for k, v in shard_load.items())
        + f"; slab backend {router['slab_backend']}"
    )
    write_result("sharded_scaling", table + "\n" + balance_line)

    write_bench_json(
        "sharded_scaling",
        {
            "instance": "I1",
            "seed": SEED,
            "n_queries": N_QUERIES,
            "cores": cores,
            "timing_rounds": TIMING_ROUNDS,
            "bit_identical": True,
            "index_build_seconds": round(index_build_seconds, 4),
            "shard_counts": list(SHARD_COUNTS),
            "workloads": workload_records,
            "four_shard": {
                "slab_backend": router["slab_backend"],
                "slabs_placed": router["slabs_placed"],
                "worker_respawns": router["worker_respawns"],
                "shard_load": shard_load,
            },
        },
    )

    floor = _floor_for(cores)
    uniform_4x = speedups["uniform"][4]
    uniform_qps = {
        entry["shards"]: entry["qps"] for entry in workload_records[0]["scaling"]
    }
    assert uniform_qps[4] >= uniform_qps[1] * REGRESSION_FACTOR, (
        f"4-shard uniform qps {uniform_qps[4]:.0f} fell below "
        f"{REGRESSION_FACTOR}x of 1-shard ({uniform_qps[1]:.0f}) — the "
        "every-shard-computes-every-query regression shape"
    )
    assert uniform_4x >= floor, (
        f"uniform 4-shard speedup {uniform_4x:.2f}x below the {floor}x "
        f"floor for {cores} core(s)"
    )
