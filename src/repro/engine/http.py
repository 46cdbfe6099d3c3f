"""HTTP serving tier: an asyncio front-end over the :class:`Engine`.

Millions of users arrive over sockets, not pipes — this module puts the
async micro-batching path behind a minimal HTTP/1.1 server built on
stdlib ``asyncio`` streams (no framework, no extra dependency):

* ``POST /search`` — one :class:`~repro.engine.request.QueryRequest`
  mapping body, or a batch envelope ``{"queries": [...]}``; answers are
  the ``QueryResponse.to_dict()`` records of the JSONL ``serve`` loop,
  so the wire format is identical across front-ends;
* ``POST /mutate`` — one
  :class:`~repro.engine.request.MutationRequest` mapping body
  (``{"op": "add_tag", ...}``); the write is applied and the kernel
  re-aligned — via the delta pipeline when expressible — before the
  200 acknowledgement, under the same admission control, deadlines and
  error shaping as ``/search``;
* ``GET /stats`` — the engine's merged counters plus the server's own;
* ``GET /healthz`` — liveness for load balancers: 200 when serving,
  503 while draining or when the persisted index slabs are stale.

**Backpressure.** Admission is bounded: at most ``max_inflight``
queries may be waiting in the micro-batch window or computing; past
that the server answers ``429 Too Many Requests`` with a
``Retry-After`` hint instead of queueing without bound.  Under
open-loop overload this is what keeps latencies flat — excess arrivals
are rejected in microseconds, not parked until their deadline expires.

**Deadlines.** A request may carry ``X-Deadline-Ms`` (header) or
``deadline_ms`` (body envelope); the server maps it onto the batcher
budget — the kernel's anytime ``time_budget`` is the deadline minus the
micro-batch window — and enforces it with ``asyncio.wait_for``, so an
expired request answers ``504`` while its co-batched neighbors are
untouched (the batcher's futures are shielded from waiter
cancellation).

**Graceful drain.** ``SIGTERM`` (or :meth:`HttpServer.drain`) stops
accepting new connections, answers requests injected on live
keep-alive connections with ``503`` + ``Connection: close``, waits for
in-flight requests to flush through the micro-batcher, closes idle
connections, and releases the engine — no accepted request is dropped.

**Failure injection.** :class:`FaultInjector` gives tests deterministic
control of every robustness path without sleeps: a kernel gate parks
requests in a known in-flight state (the executor thread blocks on a
``threading.Event``), and ``force_queue_full`` trips the 429 path with
one request.  The hooks are inert unless armed.

**Refusals.** Every failure — including the server's own refusals
(:class:`~repro.engine.errors.Refusal`: 405, 413, 429, draining 503) —
is shaped by :func:`~repro.engine.errors.error_payload`, and its server
counter is derived from the shaped status and kind in one place.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import math
import re
import signal
import threading
import time
from dataclasses import dataclass, replace
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from .errors import Refusal, classify_error, error_payload
from .facade import Engine, StaleIndexError
from .request import MutationRequest, QueryRequest

__all__ = [
    "HttpConfig",
    "HttpServer",
    "FaultInjector",
    "run_http_server",
]

log = logging.getLogger("repro.engine.http")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_ROUTES = {
    "/search": "POST",
    "/mutate": "POST",
    "/stats": "GET",
    "/healthz": "GET",
}

#: The body shape named in the 400 for a body that is not a JSON object.
_SEARCH_SHAPE = "a JSON object (a query mapping or a {'queries': [...]} batch)"
_MUTATION_SHAPE = "a JSON mutation mapping with an 'op' field"

#: The server counter a shaped failure bumps, keyed by (status, kind);
#: every other failure counts under ``errors``.
_FAILURE_COUNTERS = {
    (429, "overloaded"): "rejected_429",
    (503, "draining"): "draining_503",
    (504, "deadline_exceeded"): "deadline_504",
}

#: (status, JSON body, extra response headers) of one answered request.
_Response = Tuple[int, Dict[str, object], Dict[str, str]]

#: Refuse absurd bodies outright (a batch of thousands of queries
#: should arrive as several requests that admission control can meter).
MAX_BODY_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class HttpConfig:
    """Tunable knobs of the HTTP tier (all have serving defaults)."""

    host: str = "127.0.0.1"
    #: port 0 binds an ephemeral port (the bound one is ``server.port``)
    port: int = 8080
    #: bounded admission: max queries waiting in the micro-batch window
    #: or computing; overflow answers 429 instead of queueing unbounded
    max_inflight: int = 64
    #: Retry-After seconds advertised with a 429
    retry_after: int = 1
    #: serving deadline (seconds) applied when a request carries none;
    #: ``None`` waits for the kernel
    default_deadline: Optional[float] = None
    #: reserved out of a request deadline for response writing when the
    #: kernel ``time_budget`` is derived (on top of the batch window)
    deadline_slack: float = 0.002
    #: max seconds drain waits for in-flight requests before force-close
    drain_grace: float = 30.0


class FaultInjector:
    """Deterministic fault hooks for tests (inert unless armed).

    * :meth:`hold_kernel` — every kernel micro-batch blocks on a
      ``threading.Event`` in the executor thread until
      :meth:`release_kernel`: tests park requests in a known in-flight
      state (admitted, batched, computing) without any sleeping;
    * :attr:`force_queue_full` — admission control behaves as if the
      bounded queue were at capacity, so the 429 path is exercised with
      a single request.

    Arm the hooks **before** the server answers its first query: the
    engine's batcher captures the compute hook when it is created.
    """

    #: ceiling on how long a gated kernel waits before erroring out —
    #: a stuck test fails loudly instead of wedging the executor
    GATE_TIMEOUT = 60.0

    def __init__(self) -> None:
        self.force_queue_full = False
        self._gate: Optional[threading.Event] = None

    def hold_kernel(self) -> threading.Event:
        """Arm (and return) the kernel gate; compute blocks until set."""
        if self._gate is None:
            self._gate = threading.Event()
        return self._gate

    def release_kernel(self) -> None:
        if self._gate is not None:
            self._gate.set()

    def install(self, engine: Engine) -> None:
        """Wrap the engine's batch compute with the (lazily armed) gate.

        The wrapper consults the gate per micro-batch, so tests may arm
        :meth:`hold_kernel` any time before the batch they want parked.
        """
        injector = self
        original = engine._search_requests

        def gated(requests):
            gate = injector._gate
            if gate is not None and not gate.wait(injector.GATE_TIMEOUT):
                raise RuntimeError("fault-injection kernel gate never released")
            return original(requests)

        engine._search_requests = gated  # instance attr shadows the method


#: CR / LF / NUL in an emitted header value would let a client split the
#: response or forge extra headers (request-ids are echoed verbatim).
_HEADER_UNSAFE = re.compile(r"[\r\n\x00]")


def _header_value(value: object) -> str:
    """Make *value* safe to emit as an HTTP/1.1 header value.

    Strips response-splitting control bytes and forces latin-1
    encodability (non-encodable characters become ``?``), so a hostile
    or merely exotic client-supplied request id can neither inject
    headers nor crash the connection writer.
    """
    text = _HEADER_UNSAFE.sub("", str(value))
    return text.encode("latin-1", "replace").decode("latin-1")


def _jsonable(value: object) -> object:
    """JSON fallback for numpy scalars hiding in stats payloads."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


class _BadRequestLine(Exception):
    """The connection sent bytes that are not an HTTP/1.1 request."""


class HttpServer:
    """The asyncio HTTP front-end over one :class:`Engine`.

    Construct with a live engine, or with ``failure=StaleIndexError(...)``
    (what :meth:`from_store` does when the persisted slabs are stale) to
    run **degraded**: every ``/search`` and ``/healthz`` answers 503
    with the shaped error, so orchestrators see an unhealthy replica
    with a remedy in the body instead of a dead process.
    """

    def __init__(
        self,
        engine: Optional[Engine] = None,
        *,
        config: Optional[HttpConfig] = None,
        failure: Optional[BaseException] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if engine is None and failure is None:
            raise ValueError("HttpServer needs an engine or a failure")
        self.engine = engine
        self.config = config if config is not None else HttpConfig()
        self.failure = failure
        self.faults = faults if faults is not None else FaultInjector()
        if engine is not None:
            self.faults.install(engine)
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._request_ids = itertools.count()
        # -- connection / drain state ------------------------------------
        self._connections: Dict[asyncio.Task, Dict[str, object]] = {}
        self._state = asyncio.Condition()
        self._inflight = 0
        self._draining = False
        self._drain_begun = False
        self._drain_started = asyncio.Event()
        self._terminated = asyncio.Event()
        self._drain_task: Optional[asyncio.Task] = None
        # -- counters (surfaced via /stats) ------------------------------
        self.counters: Dict[str, int] = {
            "requests": 0,
            "queries_answered": 0,
            "mutations_applied": 0,
            "rejected_429": 0,
            "deadline_504": 0,
            "draining_503": 0,
            "errors": 0,
            "peak_inflight": 0,
        }

    # ------------------------------------------------------------------
    # Construction / lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls,
        store,
        *,
        engine_config=None,
        config: Optional[HttpConfig] = None,
        stale_slabs: str = "error",
        faults: Optional[FaultInjector] = None,
        shards: int = 1,
        slab_backend: str = "mmap",
        sidecar_dir=None,
    ) -> "HttpServer":
        """A server over a SQLite store; stale slabs yield a degraded
        server (503 everywhere) instead of a crash — the HTTP analogue
        of the CLI's loud :class:`StaleIndexError` abort.

        With ``shards > 1`` the server fronts a process-parallel
        :class:`~repro.engine.sharded.ShardedEngine` instead of one
        in-process engine: the persisted index slabs are placed once
        (*slab_backend*: mmap'd sidecar files, POSIX shm, or plain heap
        + fork copy-on-write) and every worker serves from the shared
        copy.  Everything above the engine — admission control,
        deadlines, drain, failure injection — is unchanged; drain
        quiesces the router before the workers stop.
        """
        try:
            if shards > 1:
                from .sharded import ShardedEngine

                engine = ShardedEngine.from_store(
                    store,
                    shards=shards,
                    config=engine_config,
                    stale_slabs=stale_slabs,
                    slab_backend=slab_backend,
                    sidecar_dir=sidecar_dir,
                )
            else:
                engine = Engine.from_store(
                    store, config=engine_config, stale_slabs=stale_slabs
                )
        except StaleIndexError as exc:
            log.error("stale index slabs, serving degraded: %s", exc)
            return cls(None, config=config, failure=exc, faults=faults)
        return cls(engine, config=config, faults=faults)

    async def start(self) -> "HttpServer":
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        log.info(
            "listening on http://%s:%d (max_inflight=%d)",
            self.config.host,
            self.port,
            self.config.max_inflight,
        )
        return self

    def install_signal_handlers(self) -> None:
        """SIGTERM / SIGINT trigger one graceful drain."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix loops: the CLI falls back to KeyboardInterrupt

    def request_shutdown(self) -> None:
        """Idempotent shutdown trigger (what the signal handlers call)."""
        if self._drain_task is None and not self._drain_begun:
            self._drain_task = asyncio.ensure_future(self.drain())

    async def wait_terminated(self) -> None:
        await self._terminated.wait()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def drain_started(self) -> asyncio.Event:
        """Set the moment drain begins (the listener is already closed)."""
        return self._drain_started

    async def wait_for_inflight(self, count: int) -> None:
        """Block until at least *count* queries are admitted (test sync
        point: no sleeps needed to know a request is parked in-flight)."""
        async with self._state:
            await self._state.wait_for(lambda: self._inflight >= count)

    async def drain(self) -> None:
        """Stop accepting, flush in-flight work, release the engine.

        Sequence: close the listener (new connections are refused);
        requests injected on existing keep-alive connections answer 503
        + ``Connection: close``; wait — bounded by ``drain_grace`` — for
        every in-flight request to finish and its response to be
        written; force-close idle connections; flush the engine's
        micro-batcher and executor.  Idempotent: late callers await the
        same termination.
        """
        if self._drain_begun:
            await self._terminated.wait()
            return
        self._drain_begun = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._drain_started.set()
        log.info("drain: listener closed, %d connection(s) open", len(self._connections))
        try:
            await asyncio.wait_for(self._wait_idle(), timeout=self.config.drain_grace)
        except asyncio.TimeoutError:  # pragma: no cover - needs a wedged kernel
            log.warning(
                "drain: grace of %.1fs expired with requests still in flight",
                self.config.drain_grace,
            )
        for record in list(self._connections.values()):
            writer = record["writer"]
            if not writer.is_closing():  # type: ignore[union-attr]
                writer.close()  # type: ignore[union-attr]
        handlers = list(self._connections)
        if handlers:
            await asyncio.gather(*handlers, return_exceptions=True)
        if self.engine is not None:
            await self.engine.aclose()
        self._terminated.set()
        log.info("drain: complete")

    async def _wait_idle(self) -> None:
        async with self._state:
            await self._state.wait_for(
                lambda: not any(
                    record["busy"] for record in self._connections.values()
                )
            )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        record: Dict[str, object] = {"writer": writer, "busy": False}
        self._connections[task] = record
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequestLine:
                    writer.write(
                        self._encode(400, error_payload(ValueError("malformed HTTP request")), close=True)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                async with self._state:
                    record["busy"] = True
                    self._state.notify_all()
                close = True
                try:
                    method, path, headers, body = request
                    started = time.perf_counter()
                    try:
                        status, payload, extra = await self._dispatch(
                            method, path, headers, body
                        )
                    except Exception as exc:  # noqa: BLE001 - last-resort 500
                        self._count_failure(exc)
                        status, payload, extra = 500, error_payload(exc), {}
                    close = (
                        self._draining
                        or headers.get("connection", "").lower() == "close"
                    )
                    try:
                        data = self._encode(status, payload, close=close, extra=extra)
                    except Exception as exc:  # noqa: BLE001 - unencodable payload
                        self._count_failure(exc)
                        status, close, extra = 500, True, {}
                        data = self._encode(500, error_payload(exc), close=True)
                    writer.write(data)
                    await writer.drain()
                    log.info(
                        "%s %s -> %d id=%s %.2fms",
                        method,
                        path,
                        status,
                        (extra or {}).get("x-request-id", "-"),
                        (time.perf_counter() - started) * 1e3,
                    )
                finally:
                    async with self._state:
                        record["busy"] = False
                        self._state.notify_all()
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        line = await reader.readline()
        if not line:
            return None  # EOF: client closed the keep-alive connection
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequestLine(line[:80])
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            header_line = await reader.readline()
            if header_line in (b"\r\n", b"\n", b""):
                break
            name, _, value = header_line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", 0) or 0)
        except ValueError:
            raise _BadRequestLine(b"unparseable content-length") from None
        if length < 0:
            raise _BadRequestLine(b"negative content-length")
        if length > MAX_BODY_BYTES:
            raise _BadRequestLine(b"body too large")
        body = await reader.readexactly(length) if length else b""
        path = target.partition("?")[0]
        return method, path, headers, body

    def _encode(
        self,
        status: int,
        payload: Dict[str, object],
        *,
        close: bool,
        extra: Optional[Dict[str, str]] = None,
    ) -> bytes:
        body = json.dumps(payload, default=_jsonable).encode("utf-8")
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            "content-type: application/json",
            f"content-length: {len(body)}",
            f"connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (extra or {}).items():
            headers.append(f"{_header_value(name)}: {_header_value(value)}")
        return ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> _Response:
        self.counters["requests"] += 1
        if path not in _ROUTES:
            return self._refuse(KeyError(f"no such endpoint: {path}"))
        if method != _ROUTES[path]:
            return self._refuse(
                Refusal(
                    405,
                    "method_not_allowed",
                    f"{path} only accepts {_ROUTES[path]}",
                    headers={"allow": _ROUTES[path]},
                )
            )
        if path == "/healthz":
            return self._healthz()
        if path == "/stats":
            return self._stats()
        if path == "/mutate":
            return await self._admit(
                headers,
                body,
                _MUTATION_SHAPE,
                self._parse_mutation,
                self._apply_mutation,
            )
        return await self._admit(
            headers, body, _SEARCH_SHAPE, self._parse_search, self._answer_search
        )

    def _healthz(self) -> _Response:
        if self.failure is not None:
            payload = error_payload(self.failure)
            payload["status"] = "stale_index"
            return 503, payload, {}
        if self._draining:
            return 503, {"status": "draining"}, {}
        served = self.engine.stats()["engine"]["queries_served"]
        return 200, {"status": "ok", "queries_served": served}, {}

    def _stats(self) -> _Response:
        server: Dict[str, object] = dict(self.counters)
        server["inflight"] = self._inflight
        server["max_inflight"] = self.config.max_inflight
        server["draining"] = self._draining
        payload: Dict[str, object] = {"server": server}
        if self.failure is not None:
            payload["error"] = error_payload(self.failure)["error"]
        if self.engine is not None:
            payload["engine"] = self.engine.stats()
        return 200, payload, {}

    # ------------------------------------------------------------------
    # Admission and error shaping
    # ------------------------------------------------------------------
    def _count_failure(self, exc: BaseException) -> int:
        """Bump the server counter *exc* shapes to; returns its status."""
        status, kind = classify_error(exc)
        self.counters[_FAILURE_COUNTERS.get((status, kind), "errors")] += 1
        return status

    def _refuse(
        self,
        exc: BaseException,
        request_id: object = None,
        extra: Optional[Dict[str, str]] = None,
    ) -> _Response:
        """The response for a failed request: status, body, headers and
        server counter all derive from :func:`classify_error`."""
        status = self._count_failure(exc)
        extra = {} if extra is None else extra
        if isinstance(exc, Refusal):
            extra.update(exc.headers)
        return status, error_payload(exc, request_id), extra

    async def _admit(
        self,
        headers: Dict[str, str],
        body: bytes,
        shape: str,
        parse: Callable[[Dict[str, object]], Tuple[object, int]],
        run: Callable[[object, Optional[float], object], Awaitable[Dict[str, object]]],
    ) -> _Response:
        """The one admission envelope of ``/search`` and ``/mutate``.

        Resolves the request id (``X-Request-Id``, else the body's
        ``id``, else a generated one); refuses while degraded or
        draining (503); parses the JSON object body (*shape* names it in
        the 400), its deadline and — through the route's *parse* — the
        work and how many admission slots it occupies; refuses work
        larger than the whole queue (413) or that does not fit now
        (429 + ``Retry-After``); then holds its slots while the route's
        *run* answers.  A write is metered by the same backpressure as a
        read.
        """
        request_id: object = (
            headers.get("x-request-id") or f"req-{next(self._request_ids)}"
        )
        extra = {"x-request-id": str(request_id)}
        if self.failure is not None:
            return self._refuse(self.failure, request_id, extra)
        if self._draining:
            return self._refuse(
                Refusal(
                    503,
                    "draining",
                    "server is draining; retry against another replica",
                ),
                request_id,
                extra,
            )
        try:
            payload_obj = json.loads(body.decode("utf-8")) if body else None
            if not isinstance(payload_obj, dict):
                raise TypeError(f"the request body must be {shape}")
            if "id" in payload_obj and "x-request-id" not in headers:
                request_id = payload_obj["id"]
                extra["x-request-id"] = str(request_id)
            deadline = self._deadline_of(headers, payload_obj)
            work, cost = parse(payload_obj)
            if cost > self.config.max_inflight:
                # No amount of retrying can admit this batch — it is
                # larger than the whole admission queue.  Answer 413 with
                # a remedy instead of a 429 whose Retry-After could never
                # succeed.
                raise Refusal(
                    413,
                    "batch_too_large",
                    f"batch of {cost} queries exceeds max_inflight="
                    f"{self.config.max_inflight}; split it into smaller requests",
                )
            if (
                self.faults.force_queue_full
                or self._inflight + cost > self.config.max_inflight
            ):
                raise Refusal(
                    429,
                    "overloaded",
                    f"admission queue full "
                    f"({self._inflight}/{self.config.max_inflight} in flight)",
                    headers={"retry-after": str(self.config.retry_after)},
                )
        except Exception as exc:  # noqa: BLE001 - shaped by _refuse
            return self._refuse(exc, request_id, extra)

        async with self._state:
            self._inflight += cost
            self.counters["peak_inflight"] = max(
                self.counters["peak_inflight"], self._inflight
            )
            self._state.notify_all()
        try:
            return 200, await run(work, deadline, request_id), extra
        except Exception as exc:  # noqa: BLE001 - shaped by _refuse
            return self._refuse(exc, request_id, extra)
        finally:
            async with self._state:
                self._inflight -= cost
                self._state.notify_all()

    def _deadline_of(
        self, headers: Dict[str, str], payload: Dict[str, object]
    ) -> Optional[float]:
        raw: object = headers.get("x-deadline-ms")
        if raw is None:
            raw = payload.pop("deadline_ms", None)
        if raw is None:
            return self.config.default_deadline
        deadline = float(raw) / 1e3
        if not deadline > 0:  # NaN is not positive either
            raise ValueError(f"deadline_ms must be positive, got {raw!r}")
        if math.isinf(deadline):
            raise ValueError(f"deadline_ms must be finite, got {raw!r}")
        return deadline

    # ------------------------------------------------------------------
    # /search
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_search(payload: Dict[str, object]) -> Tuple[object, int]:
        """One query mapping (one slot), or a ``{"queries": [...]}``
        batch occupying a slot per query."""
        queries = payload.pop("queries", None)
        if queries is None:
            return payload, 1
        if not isinstance(queries, list):
            raise TypeError("'queries' must be a list of query mappings")
        return queries, max(1, len(queries))

    async def _answer_search(
        self, work: object, deadline: Optional[float], request_id: object
    ) -> Dict[str, object]:
        if isinstance(work, dict):
            record = await self._answer_one(work, deadline, request_id)
            self.counters["queries_answered"] += 1
            return record
        # Batch envelope: per-item answers or shaped errors, exactly
        # like the JSONL loop — the envelope itself is the 200.
        outcomes = await asyncio.gather(
            *[
                self._answer_one(item, deadline, f"{request_id}/{position}")
                for position, item in enumerate(work)
            ],
            return_exceptions=True,
        )
        records: List[Dict[str, object]] = []
        for position, outcome in enumerate(outcomes):
            if isinstance(outcome, BaseException):
                self._count_failure(outcome)
                records.append(error_payload(outcome, f"{request_id}/{position}"))
            else:
                self.counters["queries_answered"] += 1
                records.append(outcome)
        return {"id": request_id, "results": records}

    async def _answer_one(
        self, obj: object, deadline: Optional[float], request_id: object
    ) -> Dict[str, object]:
        if isinstance(obj, dict):
            obj = dict(obj)
            item_id = obj.pop("id", request_id)
        else:
            item_id = request_id
        request = QueryRequest.from_obj(
            obj, default_k=self.engine.config.default_k
        )
        if deadline is not None and request.time_budget is None:
            # Map the serving deadline onto the batcher budget: the kernel
            # gets the deadline minus the micro-batch window (and a write
            # slack), floored so a tight deadline still explores a little.
            slack = self.engine.config.batch_deadline + self.config.deadline_slack
            request = replace(
                request, time_budget=max(deadline - slack, deadline / 2)
            )
        response = await asyncio.wait_for(
            self.engine.asearch(request), timeout=deadline
        )
        record = response.to_dict()
        record["id"] = item_id
        return record

    # ------------------------------------------------------------------
    # /mutate
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_mutation(payload: Dict[str, object]) -> Tuple[object, int]:
        return MutationRequest.from_obj(payload), 1

    async def _apply_mutation(
        self, request: object, deadline: Optional[float], request_id: object
    ) -> Dict[str, object]:
        """One write, holding one admission slot while the delta (or
        fallback rebuild) propagates.

        A 504 abandons the *wait*, not the write: the mutation may still
        commit after the deadline answer (at-most-once is the client's
        retry contract via idempotent tag/edge URIs).
        """
        response = await asyncio.wait_for(
            self.engine.amutate(request), timeout=deadline
        )
        self.counters["mutations_applied"] += 1
        record = response.to_dict()
        record["id"] = request_id
        return record


# ----------------------------------------------------------------------
# CLI runner
# ----------------------------------------------------------------------
async def _amain(server: HttpServer, ready=None) -> None:
    await server.start()
    server.install_signal_handlers()
    if ready is not None:
        ready(server)
    await server.wait_terminated()


def run_http_server(server: HttpServer, *, ready=None) -> Dict[str, int]:
    """Run *server* until a signal drains it; returns its counters."""
    try:
        asyncio.run(_amain(server, ready=ready))
    except KeyboardInterrupt:  # pragma: no cover - non-unix fallback
        pass
    return dict(server.counters)
