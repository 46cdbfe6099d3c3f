"""The HTTP serving tier, built test-first (ISSUE 6).

Contracts under test:

* **wire format** — ``POST /search`` answers the exact
  ``QueryResponse.to_dict()`` record of the JSONL loop, bit-identical
  to the kernel, for single and batch bodies; request ids propagate
  into the ``X-Request-Id`` header, the body, and the server log;
* **error shaping** — malformed bodies 400, unknown endpoints/seekers
  404, wrong method 405, all with the shared structured error record;
* **backpressure** — the bounded admission queue answers 429 with
  ``Retry-After`` on overflow and admits again once capacity frees;
* **deadlines** — an expired per-request deadline answers 504 while
  co-batched neighbors are untouched;
* **graceful drain** — drain stops accepting, answers mid-drain
  requests 503 + ``Connection: close``, flushes in-flight work, and
  terminates; SIGTERM triggers the same path;
* **stale slabs** — a store whose persisted index predates a mutation
  serves 503 from ``/healthz`` and ``/search`` (degraded, not dead),
  and ``stale_slabs="rebuild"`` recovers to 200.

Every scenario synchronizes on the :class:`FaultInjector` kernel gate
and ``wait_for_inflight`` — there is no ``time.sleep`` anywhere.
"""

import asyncio
import logging
import os
import signal

import pytest

from repro import S3kSearch, Tag, URI
from repro.core import ConnectionIndex
from repro.engine import Engine, EngineConfig, FaultInjector, HttpConfig
from repro.storage import SQLiteStore

from .fixtures import figure1_instance
from .http_harness import HttpClientConnection, http_call, running_server, run

QUERY = {"seeker": "u1", "keywords": ["degre"], "k": 3}
OTHER = {"seeker": "u0", "keywords": ["debate"], "k": 2}


def _engine(**overrides):
    defaults = dict(max_batch_size=100, batch_deadline=0.002)
    defaults.update(overrides)
    return Engine(figure1_instance(), config=EngineConfig(**defaults))


class TestRoutingAndWireFormat:
    def test_healthz_and_stats_shapes(self):
        async def go():
            async with running_server(_engine()) as server:
                health = await http_call(server.port, "GET", "/healthz")
                stats = await http_call(server.port, "GET", "/stats")
                return health, stats

        health, stats = run(go())
        assert health.status == 200
        assert health.json()["status"] == "ok"
        payload = stats.json()
        assert payload["server"]["max_inflight"] == 64
        assert payload["server"]["draining"] is False
        assert "batcher" in payload["engine"]

    def test_single_search_is_bit_identical_to_kernel(self):
        engine = _engine()

        async def go():
            async with running_server(engine) as server:
                return await http_call(server.port, "POST", "/search", body=QUERY)

        response = run(go())
        assert response.status == 200
        record = response.json()
        reference = S3kSearch(engine.instance).search("u1", ["degre"], k=3)
        assert record["results"] == [
            {"uri": str(r.uri), "lower": r.lower, "upper": r.upper}
            for r in reference.results
        ]
        assert record["iterations"] == reference.iterations
        assert record["terminated_by"] == reference.terminated_by

    def test_batch_body_answers_in_order_with_per_item_errors(self):
        engine = _engine()

        async def go():
            async with running_server(engine) as server:
                return await http_call(
                    server.port,
                    "POST",
                    "/search",
                    body={
                        "queries": [
                            QUERY,
                            {"seeker": "nobody", "keywords": ["x"]},
                            OTHER,
                        ],
                        "id": "batch-1",
                    },
                )

        response = run(go())
        assert response.status == 200
        payload = response.json()
        assert payload["id"] == "batch-1"
        first, bad, third = payload["results"]
        kernel = S3kSearch(engine.instance)
        expected_first = kernel.search("u1", ["degre"], k=3)
        expected_third = kernel.search("u0", ["debate"], k=2)
        assert [r["uri"] for r in first["results"]] == [
            str(r.uri) for r in expected_first.results
        ]
        assert [r["uri"] for r in third["results"]] == [
            str(r.uri) for r in expected_third.results
        ]
        assert bad["error"]["status"] == 404
        assert bad["error"]["type"] == "not_found"
        assert bad["id"] == "batch-1/1"

    def test_error_statuses_are_structured(self):
        async def go():
            async with running_server(_engine()) as server:
                port = server.port
                return (
                    await http_call(port, "POST", "/search", body="not json"),
                    await http_call(
                        port,
                        "POST",
                        "/search",
                        body={"seeker": "u1", "keywords": ["w"], "bogus": 1},
                    ),
                    await http_call(
                        port,
                        "POST",
                        "/search",
                        body={"seeker": "nobody", "keywords": ["degre"]},
                    ),
                    await http_call(port, "GET", "/no-such-endpoint"),
                    await http_call(port, "GET", "/search"),
                )

        bad_json, bad_field, bad_seeker, bad_path, bad_method = run(go())
        for response, status, kind in (
            (bad_json, 400, "bad_request"),
            (bad_field, 400, "bad_request"),
            (bad_seeker, 404, "not_found"),
            (bad_path, 404, "not_found"),
            (bad_method, 405, "method_not_allowed"),
        ):
            assert response.status == status
            error = response.json()["error"]
            assert error["type"] == kind
            assert error["status"] == status
            assert error["message"]
        assert bad_method.headers["allow"] == "POST"

    def test_keep_alive_connection_serves_sequential_requests(self):
        async def go():
            async with running_server(_engine()) as server:
                connection = await HttpClientConnection.open(server.port)
                try:
                    first = await connection.request("POST", "/search", body=QUERY)
                    second = await connection.request("POST", "/search", body=OTHER)
                finally:
                    await connection.aclose()
                return first, second

        first, second = run(go())
        assert first.status == 200 and second.status == 200
        assert first.headers["connection"] == "keep-alive"

    def test_malformed_request_line_answers_400_and_closes(self):
        async def go():
            async with running_server(_engine()) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"NOT-HTTP\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                writer.close()
                return status_line

        assert b"400" in run(go())

    def test_request_id_propagates_to_header_body_and_log(self, caplog):
        async def go():
            async with running_server(_engine()) as server:
                tagged = await http_call(
                    server.port,
                    "POST",
                    "/search",
                    body=QUERY,
                    headers={"x-request-id": "trace-me"},
                )
                generated = await http_call(server.port, "POST", "/search", body=QUERY)
                return tagged, generated

        with caplog.at_level(logging.INFO, logger="repro.engine.http"):
            tagged, generated = run(go())
        assert tagged.headers["x-request-id"] == "trace-me"
        assert tagged.json()["id"] == "trace-me"
        assert generated.headers["x-request-id"].startswith("req-")
        assert any("id=trace-me" in message for message in caplog.messages)

    def test_request_id_cannot_inject_response_headers(self):
        # A body id carrying CRLF must not split the response: the
        # echoed x-request-id header is sanitized, no forged header
        # reaches the client, and the keep-alive framing stays intact.
        hostile = dict(QUERY, id="x\r\nx-injected: owned")

        async def go():
            async with running_server(_engine()) as server:
                connection = await HttpClientConnection.open(server.port)
                try:
                    first = await connection.request("POST", "/search", body=hostile)
                    # The connection is not desynced: a normal request
                    # on the same socket still parses cleanly.
                    second = await connection.request("POST", "/search", body=QUERY)
                finally:
                    await connection.aclose()
                return first, second

        first, second = run(go())
        assert first.status == 200
        assert "x-injected" not in first.headers
        assert first.headers["x-request-id"] == "xx-injected: owned"
        assert second.status == 200

    def test_non_latin1_request_id_still_gets_a_response(self):
        # "☃" is not latin-1 encodable; the echoed header must be
        # degraded (not raise UnicodeEncodeError and kill the
        # connection), while the JSON body keeps the exact id.
        snowman = dict(QUERY, id="☃")

        async def go():
            async with running_server(_engine()) as server:
                return await http_call(server.port, "POST", "/search", body=snowman)

        response = run(go())
        assert response.status == 200
        assert response.headers["x-request-id"] == "?"
        assert response.json()["id"] == "☃"

    @pytest.mark.parametrize("value", [b"abc", b"-5"])
    def test_bad_content_length_answers_400(self, value):
        async def go():
            async with running_server(_engine()) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b"POST /search HTTP/1.1\r\nhost: localhost\r\n"
                    b"content-length: " + value + b"\r\n\r\n"
                )
                await writer.drain()
                status_line = await reader.readline()
                writer.close()
                return status_line

        assert b"400" in run(go())


class TestBackpressure:
    def test_forced_queue_full_trips_429_with_retry_after(self):
        faults = FaultInjector()
        faults.force_queue_full = True

        async def go():
            async with running_server(
                _engine(), faults=faults, config=HttpConfig(port=0, retry_after=7)
            ) as server:
                rejected = await http_call(server.port, "POST", "/search", body=QUERY)
                faults.force_queue_full = False
                accepted = await http_call(server.port, "POST", "/search", body=QUERY)
                return rejected, accepted, dict(server.counters)

        rejected, accepted, counters = run(go())
        assert rejected.status == 429
        assert rejected.headers["retry-after"] == "7"
        assert rejected.json()["error"]["type"] == "overloaded"
        assert accepted.status == 200
        assert counters["rejected_429"] == 1

    def test_real_overflow_rejects_then_recovers(self):
        faults = FaultInjector()
        faults.hold_kernel()

        async def go():
            async with running_server(
                _engine(), faults=faults, config=HttpConfig(port=0, max_inflight=1)
            ) as server:
                first = asyncio.create_task(
                    http_call(server.port, "POST", "/search", body=QUERY)
                )
                await server.wait_for_inflight(1)
                rejected = await http_call(server.port, "POST", "/search", body=OTHER)
                faults.release_kernel()
                completed = await first
                retried = await http_call(server.port, "POST", "/search", body=OTHER)
                return rejected, completed, retried

        rejected, completed, retried = run(go())
        assert rejected.status == 429
        assert completed.status == 200
        assert retried.status == 200  # capacity freed: admitted again

    def test_impossible_batch_answers_413_not_429(self):
        # A batch larger than max_inflight can never be admitted, so a
        # 429 + Retry-After would send the client into a futile retry
        # loop; it must get a 413 with a split-the-batch remedy instead.
        async def go():
            async with running_server(
                _engine(), config=HttpConfig(port=0, max_inflight=2)
            ) as server:
                return await http_call(
                    server.port,
                    "POST",
                    "/search",
                    body={"queries": [QUERY, OTHER, QUERY]},
                )

        response = run(go())
        assert response.status == 413  # 3 queries > 2 slots, even when idle
        error = response.json()["error"]
        assert error["type"] == "batch_too_large"
        assert "split" in error["message"]
        assert "retry-after" not in response.headers


class TestDeadlines:
    def test_deadline_expiry_answers_504_and_spares_neighbors(self):
        engine = _engine()
        faults = FaultInjector()
        faults.hold_kernel()

        async def go():
            async with running_server(engine, faults=faults) as server:
                neighbor = asyncio.create_task(
                    http_call(server.port, "POST", "/search", body=OTHER)
                )
                doomed = asyncio.create_task(
                    http_call(
                        server.port,
                        "POST",
                        "/search",
                        body=QUERY,
                        headers={"x-deadline-ms": "60"},
                    )
                )
                await server.wait_for_inflight(2)
                expired = await doomed  # the gate is held: expiry is certain
                faults.release_kernel()
                unaffected = await neighbor
                fresh = await http_call(server.port, "POST", "/search", body=QUERY)
                return expired, unaffected, fresh, dict(server.counters)

        expired, unaffected, fresh, counters = run(go())
        assert expired.status == 504
        assert expired.json()["error"]["type"] == "deadline_exceeded"
        assert counters["deadline_504"] == 1
        assert unaffected.status == 200
        reference = S3kSearch(engine.instance).search("u0", ["debate"], k=2)
        assert [r["uri"] for r in unaffected.json()["results"]] == [
            str(r.uri) for r in reference.results
        ]
        assert fresh.status == 200  # the engine survived the cancellation

    def test_generous_deadline_maps_onto_kernel_time_budget(self):
        async def go():
            async with running_server(_engine()) as server:
                return await http_call(
                    server.port,
                    "POST",
                    "/search",
                    body=QUERY,
                    headers={"x-deadline-ms": "5000"},
                )

        response = run(go())
        assert response.status == 200
        echoed = response.json()
        # The serving deadline minus the micro-batch window became the
        # kernel's anytime budget.
        assert 0 < echoed["time_budget"] < 5.0

    @pytest.mark.parametrize("deadline_ms", ["0", "-inf", "nan", "inf", "1e400"])
    def test_nonpositive_deadline_is_a_400(self, deadline_ms):
        async def go():
            async with running_server(_engine()) as server:
                return await http_call(
                    server.port,
                    "POST",
                    "/search",
                    body=QUERY,
                    headers={"x-deadline-ms": deadline_ms},
                )

        response = run(go())
        assert response.status == 400
        assert "deadline" in response.json()["error"]["message"]


class TestGracefulDrain:
    def test_drain_flushes_inflight_rejects_midstream_then_terminates(self):
        engine = _engine()
        faults = FaultInjector()
        faults.hold_kernel()

        async def go():
            async with running_server(engine, faults=faults) as server:
                port = server.port
                # Keep-alive connections opened before the drain begins:
                # one carries the in-flight request, two inject mid-drain.
                busy = await HttpClientConnection.open(port)
                probe = await HttpClientConnection.open(port)
                health = await HttpClientConnection.open(port)
                inflight = asyncio.create_task(
                    busy.request("POST", "/search", body=QUERY)
                )
                await server.wait_for_inflight(1)
                drain = asyncio.create_task(server.drain())
                await server.drain_started.wait()
                # New connections are refused once drain begins.
                with pytest.raises(OSError):
                    await HttpClientConnection.open(port)
                # A request injected mid-drain on a live connection is
                # turned away, not hung.
                turned_away = await probe.request("POST", "/search", body=OTHER)
                liveness = await health.request("GET", "/healthz")
                # The in-flight request still completes: release the
                # kernel and collect its answer.
                faults.release_kernel()
                flushed = await inflight
                await drain
                terminated = server._terminated.is_set()
                for connection in (busy, probe, health):
                    await connection.aclose()
                return turned_away, liveness, flushed, terminated

        turned_away, liveness, flushed, terminated = run(go())
        assert turned_away.status == 503
        assert turned_away.json()["error"]["type"] == "draining"
        assert turned_away.headers["connection"] == "close"
        assert liveness.status == 503
        assert liveness.json()["status"] == "draining"
        assert flushed.status == 200
        assert flushed.headers["connection"] == "close"
        reference = S3kSearch(engine.instance).search("u1", ["degre"], k=3)
        assert [r["uri"] for r in flushed.json()["results"]] == [
            str(r.uri) for r in reference.results
        ]
        assert terminated

    def test_sigterm_triggers_the_drain_path(self):
        async def go():
            server = None
            async with running_server(_engine()) as started:
                server = started
                server.install_signal_handlers()
                before = await http_call(server.port, "POST", "/search", body=QUERY)
                os.kill(os.getpid(), signal.SIGTERM)
                await server.wait_terminated()
                with pytest.raises(OSError):
                    await HttpClientConnection.open(server.port)
                return before

        assert run(go()).status == 200


class TestStaleSlabs:
    @staticmethod
    def _stale_store(tmp_path):
        """A store whose persisted slabs predate an instance mutation."""
        path = tmp_path / "stale.db"
        instance = figure1_instance()
        with SQLiteStore(path) as store:
            store.save_instance(instance)
            store.save_connection_index(ConnectionIndex(instance).ensure_all())
            instance.add_tag(
                Tag(URI("t:late"), URI("d0.5.1"), URI("u2"), keyword="campus")
            )
            instance.saturate()
            store.save_instance(instance)
        return path

    def test_stale_slabs_serve_degraded_503s(self, tmp_path):
        path = self._stale_store(tmp_path)

        async def go():
            async with running_server(store=path) as server:
                return (
                    await http_call(server.port, "GET", "/healthz"),
                    await http_call(server.port, "POST", "/search", body=QUERY),
                    await http_call(server.port, "GET", "/stats"),
                )

        health, search, stats = run(go())
        assert health.status == 503
        assert health.json()["status"] == "stale_index"
        assert "re-run" in health.json()["error"]["message"]
        assert search.status == 503
        assert search.json()["error"]["type"] == "stale_index"
        assert stats.status == 200  # observability stays up while degraded
        assert stats.json()["error"]["type"] == "stale_index"
        assert "engine" not in stats.json()

    def test_rebuild_opt_in_recovers_to_200(self, tmp_path):
        path = self._stale_store(tmp_path)

        async def go():
            async with running_server(store=path, stale_slabs="rebuild") as server:
                health = await http_call(server.port, "GET", "/healthz")
                search = await http_call(
                    server.port,
                    "POST",
                    "/search",
                    body={"seeker": "u1", "keywords": ["campus"], "k": 5},
                )
                return health, search, server.engine

        health, search, engine = run(go())
        assert health.status == 200
        assert search.status == 200
        # The late tag is visible: answers match a fresh kernel over the
        # mutated instance.
        reference = S3kSearch(engine.instance).search("u1", ["campus"], k=5)
        assert [r["uri"] for r in search.json()["results"]] == [
            str(r.uri) for r in reference.results
        ]


class TestStatsCounters:
    def test_server_counters_track_traffic(self):
        async def go():
            async with running_server(_engine()) as server:
                await http_call(server.port, "POST", "/search", body=QUERY)
                await http_call(
                    server.port, "POST", "/search", body={"queries": [QUERY, OTHER]}
                )
                await http_call(server.port, "POST", "/search", body="broken")
                return (await http_call(server.port, "GET", "/stats")).json()

        payload = run(go())
        server_stats = payload["server"]
        assert server_stats["queries_answered"] == 3  # one single + two batched
        assert server_stats["errors"] == 1
        assert server_stats["peak_inflight"] >= 1
        assert payload["engine"]["engine"]["queries_served"] >= 3
