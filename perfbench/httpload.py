"""The HTTP side of the benchmark: a server child process and a client.

The server is a child process booted through the same path as
``python -m repro serve --db <store> --http 127.0.0.1:0`` (see
``perfbench/server.py``).  The client is a minimal keep-alive HTTP/1.1
client on stdlib asyncio streams, independent of the program's own test
client, with at most one request in flight per connection.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_READY = re.compile(r"serving http://([^:\s]+):(\d+)")


class ServerProcess:
    """One ``repro serve --http`` child; :meth:`stop` drains and reaps it."""

    def __init__(self, root: Path, db: Path, log: Path, trace_out: Optional[Path]):
        command = [sys.executable, str(root / "perfbench" / "server.py"), "--db", str(db)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self.log = log
        self._log_file = open(log, "wb")
        try:
            self.process = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=self._log_file, env=env, cwd=str(root)
            )
        except OSError:
            self._log_file.close()
            raise
        self.port: Optional[int] = None

    def wait_ready(self, timeout: float = 120.0) -> int:
        """Block until the child printed its port; returns it."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _READY.search(self.log.read_text(errors="replace"))
            if match:
                self.port = int(match.group(2))
                return self.port
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}: "
                    + self.log.read_text(errors="replace")[-2000:]
                )
            time.sleep(0.01)
        raise RuntimeError("server did not report its port in time")

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain), then reap; kill if the drain hangs."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self._log_file.close()
        return self.process.returncode


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(
        self, method: str, path: str, body: Optional[bytes] = None, request_id: str = ""
    ) -> Tuple[int, bytes]:
        head = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1"]
        if request_id:
            head.append(f"X-Request-Id: {request_id}")
        if body is not None:
            head += ["Content-Type: application/json", f"Content-Length: {len(body)}"]
        self._writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + (body or b""))
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self._reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Pool:
    """At most ``len(connections)`` requests in flight; others wait for one."""

    def __init__(self, connections: List[Connection]):
        self._connections = connections
        self._free: asyncio.Queue = asyncio.Queue()
        for connection in connections:
            self._free.put_nowait(connection)

    @classmethod
    async def open(cls, port: int, size: int) -> "Pool":
        return cls([await Connection.open(port) for _ in range(size)])

    async def call(
        self, method: str, path: str, obj: Optional[dict] = None, request_id: str = ""
    ) -> Tuple[int, Dict[str, object], float, float]:
        """Status, decoded body, and the round trip's start / end times."""
        connection = await self._free.get()
        try:
            body = json.dumps(obj).encode() if obj is not None else None
            start = time.perf_counter()
            status, payload = await connection.request(method, path, body, request_id)
            end = time.perf_counter()
        finally:
            self._free.put_nowait(connection)
        return status, (json.loads(payload) if payload else {}), start, end

    async def close(self) -> None:
        for connection in self._connections:
            await connection.close()


async def wait_healthy(port: int, timeout: float = 60.0) -> None:
    """Poll ``GET /healthz`` until it answers 200."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            connection = await Connection.open(port)
            try:
                status, _ = await connection.request("GET", "/healthz")
            finally:
                await connection.close()
            if status == 200:
                return
        except (ConnectionError, OSError):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("server never became healthy")
        await asyncio.sleep(0.01)
