"""S3k serving benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload uniform_2x --seed 1 --seconds 15 --trace 0

Workloads: ``uniform_2x``, ``hot_http``, ``write_mix`` (see
``perfbench/README.md``).  Stdout ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end ones with ``--trace 0`` and the
per-layer ones with ``--trace 1``.  The line before it records the input
fingerprints, the per-phase outcome counts and the host's CPU steal
share.

Exit status: 0 on a valid run with correct answers; 1 when an answer
differs from the from-scratch oracle; 2 when the program's sources are
missing or the arguments are wrong; 3 when the load generator fell
behind its schedule (the run is invalid).  All files the run writes live
in ``.perfbench_work/`` under the repository root and are removed at
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: S3k scores depend on string-hash order in their last bits (set
#: iteration feeds float summation order), so the server child and the
#: oracle only agree bit for bit under one hash seed.
HASH_SEED = "0"


def _cpu_times() -> list:
    """The machine's aggregate CPU times (Linux ``/proc/stat``)."""
    return [int(field) for field in Path("/proc/stat").read_text().split()[1:9]]


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import loadgen, report, tracing, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    # A terminated run still stops its server children and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(
        workload=workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=workdir,
        root=ROOT,
        tracer=tracing.install(tracing.Tracer()) if args.trace else None,
    )
    before = _cpu_times()
    try:
        workloads.RUNNERS[workload.name](run)
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    # Share of the machine's CPU time the hypervisor gave to other guests
    # during the run: on a shared host, the first thing to check when
    # figures move.
    spent = [b - a for a, b in zip(before, _cpu_times())]
    steal_share = spent[7] / sum(spent) if sum(spent) else 0.0
    phases = run.phases()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed + p.refused for p in phases)
    late = loadgen.late_p99_ms(run.open)
    valid = late is None or late <= loadgen.MAX_LATE_S * 1e3
    metrics = report.per_layer(run) if run.trace else report.end_to_end(run)
    units = report.declared(ROOT / "BENCHMARK.json", run.trace)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} are computed or "
            "declared in BENCHMARK.json, not both"
        )
    for message in run.mismatches[:10]:
        print(f"wrong answer: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "fingerprint": run.fingerprint,
                "phases": {p.name: p.counts() for p in phases if p.attempted},
                "answers_checked": run.checked,
                "answers_wrong": len(run.mismatches),
                "error_rate": failed / attempted if attempted else 0.0,
                "loadgen_late_ms_p99": late,
                "host_steal_share": steal_share,
                "valid": valid,
            }
        )
    )
    correct = not run.mismatches
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    if not correct:
        return 1
    if not valid:
        print(
            f"invalid run: the load generator fired its p99 arrival {late:.1f} ms "
            f"late (limit {loadgen.MAX_LATE_S * 1e3:.0f} ms)",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
