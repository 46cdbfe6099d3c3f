"""The three benchmark workloads.

Every workload follows one shape:

1. **set-up** — generate the instance and bring the program up warm,
   under the clock.  More timed set-ups follow the serving phases
   (``setup_s`` is their median); the first of them provides the
   oracle's identically generated instance.
2. **write probe** — 100 sequential acknowledged writes on the freshly
   set-up server, each a fresh comment on an existing node
   (``write_p50_ms``; its p90 is per-layer).  It comes first so that its
   cost does not depend on what the read phases left in the caches.
3. **open loop** — for OPEN_SHARE of ``--seconds``, a fixed number of
   requests at the workload's offered rate, each timed from its due time
   (``p50_ms`` / ``p90_ms``, over the whole phase).
4. **closed loop** — a fixed number of back-to-back requests, which
   take about the rest of ``--seconds`` on the reference machine
   (``qps``).  In the traced run its first half runs untraced and its
   second half traced, which gives ``trace.overhead_ratio``.
5. **answer check** — the acknowledged writes are replayed onto the
   oracle's instance, and the served answers are compared with a kernel
   built from scratch over it.  ``write_mix`` reads while it writes, so
   its read pool is answered once more after the last write and those
   answers are the ones compared.

``uniform_2x`` has no open loop: its closed-loop callers are the load,
and its latencies are per request.  It ends with a scalar phase: one
synchronous caller of ``Engine.search``, the only path through the
scalar ``S3kSearch.search`` loop, which only the traced run's per-layer
metrics read.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import re
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import ConnectionIndex, S3Instance
from repro.engine import Engine
from repro.storage import SQLiteStore

from . import httpload, inputs, loadgen, tracing
from .loadgen import FAILED, OK, REFUSED, Phase
from .oracle import Checker, Oracle, answer_of

#: Sequential writes of the write probe (its p90 keeps ten samples beyond).
PROBE_WRITES = 100
#: Send interval of the write probe's writes (seconds).  The host's speed
#: changes in stretches of a second or more; spreading the probe over
#: five seconds keeps one such stretch to a minority of its samples,
#: which its percentiles then pass over.
PROBE_INTERVAL = 0.05
#: Closed-loop callers of the in-process async workloads: enough to fill
#: the engine's default 32-request micro-batches.
ASYNC_CALLERS = 32
#: Keep-alive connections of the HTTP workload: one per core of the
#: 2-core reference machine, so the client never outnumbers the cores.
HTTP_CONNECTIONS = 2
#: Distinct answers of ``uniform_2x`` the oracle recomputes per run
#: (recomputing all of them would take as long as serving them).
UNIFORM_CHECKED = 200
#: ``uniform_2x``: unique queries of its scalar ``Engine.search`` phase.
SCALAR_CALLS = 400
#: ``hot_http``: popular-query pool size and Zipf exponent.
HOT_POOL = 64
ZIPF_EXPONENT = 1.1
#: ``write_mix``: read pool size; one request in WRITE_EVERY is a write,
#: and one write in MERGE_EVERY merges two components (a full rebuild).
MIX_POOL = 32
WRITE_EVERY = 20
MERGE_EVERY = 20
#: Share of ``--seconds`` spent in the open loop; the closed loop's
#: request count is sized for the rest.
OPEN_SHARE = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    #: instance scale (1 = I1, 2 = I1 scaled 2x)
    scale: int
    #: open-loop offered rate, requests per second (0: no open loop)
    rate: float
    #: closed-loop requests per second of ``--seconds``: about the
    #: closed-loop capacity of the 2-core reference machine, so the
    #: closed loop's fixed request count takes about its share of
    #: ``--seconds`` there
    closed_rate: float


#: Why each workload was chosen is in ``BENCHMARK.json`` and in
#: ``perfbench/README.md``.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("uniform_2x", 2, 0.0, 190.0),
        Workload("hot_http", 1, 60.0, 260.0),
        Workload("write_mix", 1, 20.0, 200.0),
    )
}


@dataclass
class Run:
    """What one invocation measured (``report.py`` derives the metrics)."""

    workload: Workload
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    root: Path
    tracer: Optional[tracing.Tracer] = None
    setup_seconds: List[float] = field(default_factory=list)
    generate_seconds: List[float] = field(default_factory=list)
    setup_windows: List[Tuple[float, float]] = field(default_factory=list)
    #: windows whose spans the per-layer metrics read
    traced_windows: List[Tuple[float, float]] = field(default_factory=list)
    open: Phase = field(default_factory=lambda: Phase("open"))
    closed: Phase = field(default_factory=lambda: Phase("closed"))
    closed_traced: Phase = field(default_factory=lambda: Phase("closed_traced"))
    probe: Phase = field(default_factory=lambda: Phase("write_probe"))
    scalar: Phase = field(default_factory=lambda: Phase("scalar"))
    checker: Checker = field(default_factory=Checker)
    #: acknowledged writes, in the order the server applied them
    applied_writes: List[dict] = field(default_factory=list)
    stats_before: Dict = field(default_factory=dict)
    stats_after: Dict = field(default_factory=dict)
    rss_mb: float = 0.0
    fingerprint: Dict[str, str] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    checked: int = 0
    #: spans the HTTP server child recorded
    spans: List[tracing.Span] = field(default_factory=list)
    #: kernel counter differences summed over the server's traced calls
    counters: Dict[str, float] = field(default_factory=dict)
    #: HTTP status -> count, over the timed phases
    statuses: Dict[int, int] = field(default_factory=dict)

    def phases(self) -> List[Phase]:
        return [self.open, self.closed, self.closed_traced, self.probe, self.scalar]

    @property
    def open_seconds(self) -> float:
        return self.seconds * OPEN_SHARE if self.workload.rate else 0.0

    @property
    def closed_requests(self) -> int:
        return round(self.workload.closed_rate * (self.seconds - self.open_seconds))

    def timed_setup(self, body: Callable[[], object]):
        """Run one set-up under the clock (and traced, in the traced run)."""
        gc.collect()
        self.set_tracing(self.trace)
        start = time.perf_counter()
        value = body()
        end = time.perf_counter()
        self.set_tracing(False)
        self.setup_seconds.append(end - start)
        self.setup_windows.append((start, end))
        return value

    def generate(self):
        start = time.perf_counter()
        instance = inputs.generate(self.workload.scale)
        self.generate_seconds.append(time.perf_counter() - start)
        return instance

    def set_tracing(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.active = on

    def traced(self, start: float) -> None:
        """Mark ``[start, now]`` as a window the layer metrics read."""
        if self.trace:
            self.traced_windows.append((start, time.perf_counter()))

    def check(self, setup: Callable[[], S3Instance], sample: Optional[int] = None) -> None:
        """The second timed set-up, then the answer check against an
        oracle over its instance."""
        instance = setup()
        gc.collect()
        oracle = Oracle(instance, self.applied_writes)
        self.mismatches = self.checker.mismatches(oracle, sample=sample, seed=self.seed)
        self.checked = self.checker.checked


def _peak_rss_mb(pid: object = "self") -> float:
    status = Path(f"/proc/{pid}/status").read_text()
    return int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1)) / 1024.0


def _probe_writes(instance, seed: int) -> List[dict]:
    """The write probe: fresh comments only, the cheapest delta, which
    keeps 100 writes affordable in every run (tags, which cost about
    twice as much, are half of ``write_mix``'s writes)."""
    stream = inputs.WriteStream(instance, seed, "probe")
    return [stream.comment() for _ in range(PROBE_WRITES)]


def _mixed_ops(pool: List[dict], instance, n_open: int, n_closed: int, seed: int):
    """``write_mix`` traffic: reads over *pool*, one request in each
    block of WRITE_EVERY a write (a tag or a fresh comment), and in the
    closed loop every MERGE_EVERY-th write a component merge, the first
    one MERGE_EVERY // 2 writes in.

    The open loop holds about eight writes at ``--seconds 15``, so at
    this rate a merge would fall into some runs' open loops and not
    others', and one rebuild stall with its cold-cache aftermath covers
    about a tenth of the open loop's reads, where ``p90_ms`` sits.  So
    the open loop has no merge; the closed loop's fixed request count
    gives every run of a seed the same merges, and ``qps`` carries their
    cost."""
    rng = random.Random(seed)
    stream = inputs.WriteStream(instance, seed, "mix")
    first_merge = -(-n_open // WRITE_EVERY) + MERGE_EVERY // 2
    ops: List[Tuple[str, dict]] = []
    while len(ops) < n_open + n_closed:
        block = [("read", rng.choice(pool)) for _ in range(WRITE_EVERY)]
        serial = len(ops) // WRITE_EVERY - first_merge
        if serial >= 0 and serial % MERGE_EVERY == 0:
            write = stream.merge()
        else:
            write = stream.tag() if rng.random() < 0.5 else stream.comment()
        block[rng.randrange(WRITE_EVERY)] = ("write", write)
        ops.extend(block)
    return ops


async def _closed_phases(run: Run, phase_loop, first: int) -> None:
    """The closed loop over requests ``first ..``: untraced, or its first
    half untraced and its second half traced."""
    last = first + run.closed_requests
    if not run.trace:
        await phase_loop(run.closed, iter(range(first, last)))
        return
    middle = (first + last) // 2
    await phase_loop(run.closed, iter(range(first, middle)))
    run.set_tracing(True)
    start = time.perf_counter()
    await phase_loop(run.closed_traced, iter(range(middle, last)))
    run.traced(start)
    run.set_tracing(False)


async def _write_probe(run: Run, writes: List[dict], apply) -> None:
    """Sequential acknowledged writes, each timed from its send and sent
    PROBE_INTERVAL after the previous one was (or at its acknowledgement,
    if that comes later)."""
    run.set_tracing(run.trace)
    start = time.perf_counter()
    for serial, write in enumerate(writes):
        await asyncio.sleep(max(0.0, start + serial * PROBE_INTERVAL - time.perf_counter()))
        sent = time.perf_counter()
        try:
            await apply(write)
        except Exception:  # noqa: BLE001 - a failed write is counted
            run.probe.record(FAILED, 0.0, "write")
            continue
        run.applied_writes.append(write)
        run.probe.record(OK, time.perf_counter() - sent, "write")
    run.traced(start)
    run.set_tracing(False)


# ----------------------------------------------------------------------
# uniform_2x and write_mix: Engine.asearch / Engine.amutate in-process
# ----------------------------------------------------------------------
def _engine_setup(run: Run) -> Engine:
    return run.timed_setup(lambda: Engine(run.generate()).warm())


def run_async_engine(run: Run) -> None:
    w = run.workload
    engine = _engine_setup(run)
    instance = engine.instance
    offsets = loadgen.arrival_times(w.rate, run.open_seconds, run.seed)
    n_closed = run.closed_requests
    warm: List[dict] = []
    scalar: List[dict] = []
    if w.name == "uniform_2x":
        queries = inputs.paper_grid_queries(
            instance, len(offsets) + n_closed + SCALAR_CALLS, run.seed
        )
        scalar = queries[len(queries) - SCALAR_CALLS:]
        ops = [("read", query) for query in queries[:len(queries) - SCALAR_CALLS]]
    else:
        # The result cache starts warm with the read pool, as a server
        # that has been up for a while would be.
        warm = inputs.paper_grid_queries(instance, MIX_POOL, run.seed)
        ops = _mixed_ops(warm, instance, len(offsets), n_closed, run.seed)
    probe_writes = _probe_writes(instance, run.seed)
    run.fingerprint = inputs.fingerprint(instance, [offsets, ops, scalar, probe_writes])
    verify_reads = w.name == "uniform_2x"

    def kind_of(index: int) -> str:
        return ops[index][0]

    async def send(index: int) -> str:
        kind, obj = ops[index]
        if kind == "write":
            # amutate queues the write on the serving worker right away,
            # so this is the order writes are applied in.
            run.applied_writes.append(obj)
            await engine.amutate(obj)
            return OK
        response = await engine.asearch(obj)
        if verify_reads:
            run.checker.add(obj, answer_of(response.results))
        return OK

    async def serve() -> None:
        run.stats_before = engine.stats()
        await _write_probe(run, probe_writes, engine.amutate)
        for query in warm:
            await engine.asearch(query)
        run.set_tracing(run.trace)
        start = time.perf_counter()
        await loadgen.open_loop(run.open, offsets, send, kind_of)
        run.traced(start)
        run.set_tracing(False)
        await _closed_phases(
            run,
            lambda phase, indices: loadgen.closed_loop(
                phase, ASYNC_CALLERS, indices, send, kind_of
            ),
            len(offsets),
        )
        run.stats_after = engine.stats()
        for query in warm:
            response = await engine.asearch(query)
            run.checker.add(query, answer_of(response.results))
        await engine.aclose()

    asyncio.run(serve())

    def call(index: int) -> str:
        # The serving executor is released, so this is a plain kernel call.
        query = scalar[index]
        run.checker.add(query, answer_of(engine.search(query).results))
        return OK

    run.set_tracing(run.trace)
    start = time.perf_counter()
    loadgen.sync_closed_loop(run.scalar, iter(range(len(scalar))), call)
    run.traced(start)
    run.set_tracing(False)
    run.rss_mb = _peak_rss_mb()
    del engine, instance
    run.check(
        lambda: _engine_setup(run).instance,
        sample=UNIFORM_CHECKED if verify_reads else None,
    )


# ----------------------------------------------------------------------
# hot_http: `repro serve --http` child process, stdlib HTTP client
# ----------------------------------------------------------------------
def _http_setup(run: Run, trace_out: Optional[Path] = None):
    """Generate, write the store (instance plus warm index slabs, as
    ``repro generate`` and ``repro index`` do), boot the server and wait
    until ``/healthz`` answers 200."""
    serial = len(run.setup_seconds)

    def body():
        instance = run.generate()
        db = run.workdir / f"store{serial}.db"
        with SQLiteStore(db) as store:
            store.save_instance(instance)
            store.save_connection_index(ConnectionIndex(instance).ensure_all())
        server = httpload.ServerProcess(
            run.root, db, run.workdir / f"server{serial}.log", trace_out
        )
        try:
            asyncio.run(httpload.wait_healthy(server.wait_ready()))
        except BaseException:
            server.stop()
            raise
        return instance, server

    return run.timed_setup(body)


def run_http(run: Run) -> None:
    w = run.workload
    trace_out = run.workdir / "server-spans.json" if run.trace else None
    instance, server = _http_setup(run, trace_out)
    try:
        pool = inputs.paper_grid_queries(instance, HOT_POOL, run.seed)
        offsets = loadgen.arrival_times(w.rate, run.open_seconds, run.seed)
        count = len(offsets) + run.closed_requests
        picks = inputs.zipf_indices(HOT_POOL, count, ZIPF_EXPONENT, run.seed)
        probe_writes = _probe_writes(instance, run.seed)
        run.fingerprint = inputs.fingerprint(instance, [offsets, pool, picks, probe_writes])
        del instance
        asyncio.run(_drive_http(run, server, pool, offsets, picks, probe_writes))
        run.rss_mb = _peak_rss_mb(server.process.pid)
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"server exited with {code}: {server.log.read_text()[-2000:]}")
    if trace_out is not None:
        dump = json.loads(trace_out.read_text())
        run.spans.extend(tracing.load_spans(dump["spans"], offset=1 << 40))
        run.counters = dump["counters"]

    def repeat() -> S3Instance:
        instance, extra = _http_setup(run)
        extra.stop()
        return instance

    run.check(repeat)


async def _drive_http(run: Run, server, pool, offsets, picks, probe_writes) -> None:
    connections = await httpload.Pool.open(server.port, HTTP_CONNECTIONS)
    serial = iter(range(10**9))

    async def call(method: str, path: str, obj: Optional[dict] = None):
        request_id = f"r{next(serial)}"
        status, body, start, end = await connections.call(method, path, obj, request_id)
        if run.tracer is not None:
            run.tracer.record("http.call", start, end, request_id)
        return status, body

    async def send(index: int) -> str:
        query = pool[picks[index]]
        status, body = await call("POST", "/search", query)
        run.statuses[status] = run.statuses.get(status, 0) + 1
        if status == 200:
            run.checker.add(query, answer_of(body["results"]))
            return OK
        return REFUSED if status in (429, 503) else FAILED

    async def mutate(write: dict) -> None:
        status, body = await call("POST", "/mutate", write)
        if status != 200:
            raise RuntimeError(f"/mutate answered {status}: {body}")

    async def closed(phase: Phase, indices) -> None:
        if run.trace:
            # The server records spans exactly when the client does.
            server.signal(signal.SIGUSR2 if run.tracer.active else signal.SIGUSR1)
            await asyncio.sleep(0.05)
        await loadgen.closed_loop(phase, HTTP_CONNECTIONS, indices, send)

    try:
        run.stats_before = (await call("GET", "/stats"))[1].get("engine", {})
        await _write_probe(run, probe_writes, mutate)
        run.set_tracing(run.trace)
        start = time.perf_counter()
        await loadgen.open_loop(run.open, offsets, send)
        run.traced(start)
        run.set_tracing(False)
        await _closed_phases(run, closed, len(offsets))
        run.stats_after = (await call("GET", "/stats"))[1].get("engine", {})
    finally:
        await connections.close()


RUNNERS = {
    "uniform_2x": run_async_engine,
    "write_mix": run_async_engine,
    "hot_http": run_http,
}
