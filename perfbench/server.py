"""Benchmark server child: ``repro serve --http`` booted from a store.

Usage: ``python3 perfbench/server.py --db STORE [--trace-out FILE]``.

Runs the program's own CLI entry (``repro serve --db STORE --http
127.0.0.1:0``), so boot, admission, batching and drain are exactly the
production path.  With ``--trace-out`` the layer wrappers of
``perfbench/tracing.py`` are installed first, plus the store loads, and
the spans are written to FILE after the graceful drain.  SIGUSR1 pauses
span recording and SIGUSR2 resumes it, so the client can measure
untraced and traced throughput against one server.

Server-side request spans are tied to the client's ``X-Request-Id`` via
the server's per-request log record, which is emitted on the same
connection task right after the request's ``asearch`` returned.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

from repro.cli import main as cli_main  # noqa: E402
from repro.storage import SQLiteStore  # noqa: E402

from perfbench import tracing  # noqa: E402


class _RequestLog(logging.Handler):
    """Collects (connection task, request id, time) per answered request."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.entries = []

    def emit(self, record: logging.LogRecord) -> None:
        args = record.args if isinstance(record.args, tuple) else ()
        if len(args) == 5 and args[1] == "/search":
            task = asyncio.current_task()
            self.entries.append((id(task), str(args[3]), time.perf_counter()))


def _task_and_request(_self, query, *rest):
    return id(asyncio.current_task()), tracing.QueryRequest.from_obj(query)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--db", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        tracer = tracing.install(tracing.Tracer(), request_info=_task_and_request)
        tracer.wrap(SQLiteStore, "load_instance", "storage.load_instance")
        tracer.wrap(SQLiteStore, "load_connection_index", "storage.load_connection_index")
        requests = _RequestLog()
        http_log = logging.getLogger("repro.engine.http")
        http_log.setLevel(logging.INFO)
        http_log.propagate = False
        http_log.addHandler(requests)
        signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "active", False))
        signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "active", True))
        tracer.active = True

    code = cli_main(["serve", "--db", args.db, "--http", "127.0.0.1:0"])

    if tracer is not None:
        tracer.active = False
        _summarize(tracer.spans, requests.entries)
        rows = [span.to_json() for span in tracer.spans]
        Path(args.trace_out).write_text(
            json.dumps({"spans": rows, "counters": tracer.counters})
        )
    return code


def _summarize(spans, entries) -> None:
    """Make span details JSON-able: each ``asearch`` span gets
    ``[request id, batcher wait seconds]`` and each ``search_many`` span
    its column count.

    The request id is the one whose log record the span's connection
    task emitted next after the span ended.
    """
    asearch = [s for s in spans if s.name == "engine.asearch"]
    batches = [s for s in spans if s.name == "search.search_many"]
    tasks = {}
    for span in asearch:
        tasks[span.ident], span.info = span.info
    waits = dict(
        zip((s.ident for s in asearch), tracing.kernel_waits(asearch, batches))
    )
    for batch in batches:
        batch.info = len(batch.info)
    pending = {}
    for span in sorted(asearch, key=lambda s: s.end):
        span.info = None
        pending.setdefault(tasks[span.ident], []).append(span)
    for task, request_id, logged in sorted(entries, key=lambda e: e[2]):
        queue = pending.get(task, [])
        matched = None
        while queue and queue[0].end <= logged:
            matched = queue.pop(0)
        if matched is not None:
            matched.info = [request_id, waits[matched.ident]]


if __name__ == "__main__":
    sys.exit(main())
