"""CI hard gates over freshly emitted BENCH artifacts: one table of bounds.

Usage::

    python benchmarks/check_gates.py perf_regression BASELINE.json FRESH.json [factor]
    python benchmarks/check_gates.py http_budget FRESH.json [capacity_factor]
    python benchmarks/check_gates.py sharded_scaling FRESH.json
    python benchmarks/check_gates.py live_mutation FRESH.json

Every gate compares ratios measured within one run (or, for
``perf_regression``, against the committed baseline's ratio), so a slow
shared runner cannot trip it — only a real relative regression can.
CI runs each bench ``continue-on-error`` (its own asserts hold tighter,
timing-sensitive targets) and blocks the merge on these gates.  Each
gate reads the gitignored ``benchmarks/results/`` copy, which is absent
when the bench crashed before emitting, so a broken bench fails here
too.

* **perf_regression** (``BENCH_batch_throughput.json``) — the indexed
  gather-phase speedup may not fall below the baseline's divided by
  *factor*; the uniform-traffic batched speedup over the batch-local
  baseline engine, measured in the same run, must clear its floor;
* **http_budget** (``BENCH_serving_http.json``) — the knee's p99 is
  inside the request deadline budget; past saturation overload is shed
  with 429s, never 504s or dropped connections; HTTP capacity stays
  within *capacity_factor* of the in-run engine-only qps;
* **sharded_scaling** (``BENCH_sharded_scaling.json``) — answers were
  asserted bit-identical; 4-shard qps on the uniform mix never drops
  below 0.75x of 1-shard qps (the every-shard-computes-every-query
  fan-out shape lands at ~0.67x); the 4-vs-1 speedup clears a floor
  keyed by the recorded core count (the full 1.5x on >= 4 cores);
  uniform traffic reaches at least 3 of the 4 shards;
* **live_mutation** (``BENCH_live_mutation.json``) — answers stayed
  bit-identical to a from-scratch rebuild; every write took the delta
  path; a delta is >= 5x cheaper than a full rebuild; mixed ~1%-write
  traffic sustains >= 0.5x of read-only qps.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: perf_regression: default *factor* on the gather-phase speedup.
GATHER_REGRESSION_FACTOR = 2.0
#: perf_regression: uniform-traffic batched qps must stay at least this
#: multiple of the in-run batch-local baseline engine (once 1.968x; the
#: batch-major exploration loop pushed it past 2x).
UNIFORM_SPEEDUP_FLOOR = 1.5
#: http_budget: default *capacity_factor* (HTTP qps vs engine-only qps).
HTTP_CAPACITY_FACTOR = 2.0
#: sharded_scaling: 4-shard vs 1-shard uniform-mix speedup floors by
#: measured core count; the full target applies on >= 4 cores.
SHARD_SPEEDUP_FLOORS = {1: 0.75, 2: 1.15, 3: 1.3}
SHARD_FULL_TARGET = 1.5
#: sharded_scaling: the fan-out regression shape, on any core count.
SHARD_REGRESSION_FACTOR = 0.75
#: sharded_scaling: shards of 4 that uniform traffic must reach.
SHARD_MIN_ACTIVE = 3
#: live_mutation: mean delta apply vs full rebuild, same run.
DELTA_VS_REBUILD_FLOOR = 5.0
#: live_mutation: mixed-traffic qps vs read-only qps, same run.
MIXED_QPS_FLOOR = 0.5


def _read(path: str) -> Dict:
    return json.loads(Path(path).read_text())


def _workload(bench: Dict, name: str):
    return next((w for w in bench["workloads"] if w["workload"] == name), None)


def perf_regression(args: List[str]) -> List[str]:
    baseline, fresh = _read(args[0]), _read(args[1])
    factor = float(args[2]) if len(args) > 2 else GATHER_REGRESSION_FACTOR
    failures = []
    baseline_speedup = float(baseline["gather_phase"]["speedup"])
    fresh_speedup = float(fresh["gather_phase"]["speedup"])
    floor = baseline_speedup / factor
    print(
        f"gather-phase speedup: baseline {baseline_speedup:.2f}x, "
        f"fresh {fresh_speedup:.2f}x, floor {floor:.2f}x "
        f"(= baseline / {factor:g})"
    )
    if fresh_speedup < floor:
        failures.append(
            "the indexed gather phase regressed more than "
            f"{factor:g}x relative to the fixpoint baseline"
        )
    for name in ("uniform", "zipf", "hot"):
        base, new = _workload(baseline, name), _workload(fresh, name)
        if base is None or new is None or not base.get("speedup"):
            continue
        print(
            f"{name}: throughput speedup baseline {base['speedup']:.2f}x, "
            f"fresh {new['speedup']:.2f}x"
        )
    uniform = _workload(fresh, "uniform")
    if uniform is None or not uniform.get("speedup"):
        failures.append("fresh run has no uniform-traffic speedup to gate on")
        return failures
    speedup = float(uniform["speedup"])
    print(
        f"uniform batched speedup vs the batch-local baseline: {speedup:.2f}x, "
        f"floor {UNIFORM_SPEEDUP_FLOOR:g}x"
    )
    if speedup < UNIFORM_SPEEDUP_FLOOR:
        failures.append(
            "uniform-traffic batched qps regressed below "
            f"{UNIFORM_SPEEDUP_FLOOR:g}x the batch-local baseline"
        )
    return failures


def http_budget(args: List[str]) -> List[str]:
    fresh = _read(args[0])
    capacity_factor = float(args[1]) if len(args) > 1 else HTTP_CAPACITY_FACTOR
    failures = []
    budget_ms = float(fresh["latency_budget_ms"])
    knee = fresh["knee"]
    print(
        f"knee: {knee['target_qps']:.0f} q/s target at "
        f"{knee['load_fraction']}x capacity, p99 {knee['latency_p99_ms']:.1f} ms "
        f"(budget {budget_ms:.0f} ms)"
    )
    if knee["latency_p99_ms"] > budget_ms:
        failures.append("p99 at the knee exceeds the request deadline budget")
    saturated = fresh["levels"][-1]
    print(
        f"saturation ({saturated['load_fraction']}x capacity): "
        f"{saturated['rejected_429']} rejected, "
        f"{saturated['deadline_504']} deadline-expired, "
        f"{saturated['client_errors']} connection errors"
    )
    if saturated["rejected_429"] <= 0:
        failures.append("past saturation the server never shed load with 429s")
    if saturated["deadline_504"] > 0 or saturated["client_errors"] > 0:
        failures.append(
            "overload leaked past admission control "
            "(timeouts or dropped connections instead of 429s)"
        )
    capacity = fresh["capacity"]
    floor = float(capacity["engine_qps"]) / capacity_factor
    print(
        f"capacity: HTTP {capacity['qps']:.0f} q/s vs in-run engine-only "
        f"{capacity['engine_qps']:.0f} q/s, floor {floor:.0f} "
        f"(= engine / {capacity_factor:g})"
    )
    if capacity["qps"] < floor:
        failures.append(
            f"the HTTP tier costs more than {capacity_factor:g}x "
            "over the engine-only serving path"
        )
    return failures


def shard_floor_for(cores: int) -> float:
    if cores < 4:
        return SHARD_SPEEDUP_FLOORS.get(cores, SHARD_FULL_TARGET)
    return SHARD_FULL_TARGET


def sharded_scaling(args: List[str]) -> List[str]:
    fresh = _read(args[0])
    failures = []
    cores = int(fresh["cores"])
    uniform = _workload(fresh, "uniform")
    qps = {entry["shards"]: float(entry["qps"]) for entry in uniform["scaling"]}
    speedup = qps[4] / qps[1] if qps[1] else 0.0
    print(
        f"uniform mix on {cores} core(s): 1 shard {qps[1]:.0f} q/s, "
        f"4 shards {qps[4]:.0f} q/s ({speedup:.2f}x)"
    )
    if not fresh.get("bit_identical"):
        failures.append(
            "the bench did not assert bit-identity with the "
            "single-process engine"
        )
    if qps[4] < qps[1] * SHARD_REGRESSION_FACTOR:
        failures.append(
            f"4-shard qps below {SHARD_REGRESSION_FACTOR}x of 1-shard — "
            "the every-shard-computes-every-query fan-out regression shape"
        )
    floor = shard_floor_for(cores)
    if speedup < floor:
        failures.append(
            f"uniform 4-shard speedup {speedup:.2f}x below the "
            f"{floor}x floor for {cores} core(s) "
            f"(full target {SHARD_FULL_TARGET}x on >= 4 cores)"
        )
    load = fresh["four_shard"]["shard_load"]
    print(f"4-shard load distribution: {load}")
    if sum(1 for n in load.values() if n > 0) < SHARD_MIN_ACTIVE:
        failures.append(
            f"uniform traffic landed on fewer than {SHARD_MIN_ACTIVE} of 4 "
            "shards — routing is not spreading load"
        )
    return failures


def live_mutation(args: List[str]) -> List[str]:
    fresh = _read(args[0])
    failures = []
    ratio = float(fresh["delta_vs_rebuild_ratio"])
    qps_ratio = float(fresh["qps_ratio"])
    delta_fraction = float(fresh["delta_fraction"])
    print(
        f"I1 live mutation: delta apply {fresh['delta_apply_ms_mean']} ms vs "
        f"rebuild {fresh['rebuild_ms']} ms ({ratio:.1f}x), mixed "
        f"{fresh['mixed_qps']} q/s vs read-only {fresh['read_only_qps']} q/s "
        f"({qps_ratio:.2f}x), staleness max {fresh['staleness_ms_max']} ms"
    )
    if not fresh["bit_identical"]:
        failures.append("delta-maintained answers diverged from rebuild")
    if delta_fraction < 1.0:
        failures.append(f"only {delta_fraction:.0%} of writes took the delta path")
    if ratio < DELTA_VS_REBUILD_FLOOR:
        failures.append(
            f"delta apply only {ratio:.1f}x faster than rebuild "
            f"(floor {DELTA_VS_REBUILD_FLOOR}x)"
        )
    if qps_ratio < MIXED_QPS_FLOOR:
        failures.append(
            f"mixed traffic at {qps_ratio:.2f}x of read-only qps "
            f"(floor {MIXED_QPS_FLOOR}x)"
        )
    return failures


#: gate name -> (check, number of required file arguments)
GATES: Dict[str, Tuple[Callable[[List[str]], List[str]], int]] = {
    "perf_regression": (perf_regression, 2),
    "http_budget": (http_budget, 1),
    "sharded_scaling": (sharded_scaling, 1),
    "live_mutation": (live_mutation, 1),
}


def main(argv: List[str]) -> int:
    gate = GATES.get(argv[1]) if len(argv) > 1 else None
    if gate is None or len(argv) - 2 < gate[1]:
        print(__doc__)
        return 2
    failures = gate[0](argv[2:])
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"{argv[1]}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
