"""In-process harness for the HTTP serving tier tests.

Boots an :class:`~repro.engine.http.HttpServer` on an **ephemeral
port** (the OS picks it; nothing collides under parallel test runs) and
tears it down through the real drain path, with the
:class:`~repro.engine.http.FaultInjector` hooks armed per test:

* ``faults.hold_kernel()`` parks every micro-batch on a
  ``threading.Event`` — requests sit in a *known* in-flight state until
  the test releases them, so no scenario needs a sleep to line up;
* ``server.wait_for_inflight(n)`` is the matching synchronization
  point on the admission side.

The client half lives here too: a minimal raw-socket HTTP/1.1 client
(one-shot :func:`http_call`, keep-alive :class:`HttpClientConnection`)
shared by the tests and ``benchmarks/bench_serving_http.py`` — tests
talk real HTTP/1.1 bytes, not a shortcut into the handler.  It is not a
general-purpose client and is not part of the ``repro`` package.
"""

from __future__ import annotations

import asyncio
import json
from contextlib import asynccontextmanager
from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.engine import EngineConfig, FaultInjector, HttpConfig, HttpServer

#: Generous ceiling: a hung drain / flush fails fast instead of wedging
#: the suite (mirrors tests/test_engine_async.py).
TIMEOUT = 30.0


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


@asynccontextmanager
async def running_server(
    engine=None,
    *,
    store=None,
    stale_slabs: str = "error",
    config: Optional[HttpConfig] = None,
    engine_config: Optional[EngineConfig] = None,
    faults: Optional[FaultInjector] = None,
    shards: int = 1,
    slab_backend: str = "mmap",
):
    """Boot a server (from an engine or a SQLite store) and always tear
    it down through :meth:`HttpServer.drain` — releasing any armed
    kernel gate first, so a failing test cannot wedge the executor.
    ``shards > 1`` (store mode) boots the process-parallel sharded
    executor behind the same server."""
    faults = faults if faults is not None else FaultInjector()
    config = config if config is not None else HttpConfig(port=0)
    if store is not None:
        server = HttpServer.from_store(
            store,
            engine_config=engine_config,
            config=config,
            stale_slabs=stale_slabs,
            faults=faults,
            shards=shards,
            slab_backend=slab_backend,
        )
    else:
        server = HttpServer(engine, config=config, faults=faults)
    await server.start()
    try:
        yield server
    finally:
        server.faults.release_kernel()
        await asyncio.wait_for(server.drain(), TIMEOUT)


# ----------------------------------------------------------------------
# Minimal HTTP client (test harness + load benchmark)
# ----------------------------------------------------------------------
@dataclass
class ClientResponse:
    status: int
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Dict[str, object]:
        return json.loads(self.body.decode("utf-8"))


class HttpClientConnection:
    """One keep-alive client connection (in-process testing / benching)."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, port: int, host: str = "127.0.0.1") -> "HttpClientConnection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(
        self,
        method: str,
        path: str,
        *,
        body: Union[None, bytes, str, Dict[str, object]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> ClientResponse:
        if isinstance(body, dict):
            body = json.dumps(body)
        if isinstance(body, str):
            body = body.encode("utf-8")
        payload = body or b""
        lines = [f"{method} {path} HTTP/1.1", "host: localhost"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        lines.append(f"content-length: {len(payload)}")
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + payload)
        await self._writer.drain()
        return await self._read_response()

    async def _read_response(self) -> ClientResponse:
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        response_headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", 0) or 0)
        body = await self._reader.readexactly(length) if length else b""
        return ClientResponse(status=status, headers=response_headers, body=body)

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def http_call(
    port: int,
    method: str,
    path: str,
    *,
    body: Union[None, bytes, str, Dict[str, object]] = None,
    headers: Optional[Dict[str, str]] = None,
    host: str = "127.0.0.1",
) -> ClientResponse:
    """One request on a fresh connection (closed afterwards)."""
    connection = await HttpClientConnection.open(port, host=host)
    try:
        return await connection.request(method, path, body=body, headers=headers)
    finally:
        await connection.aclose()
