"""The HTTP tier fronting the process-parallel sharded executor.

The PR 4 serving contracts must hold unchanged when ``shards > 1`` —
the router speaks the same ``QueryRequest``/``QueryResponse`` wire
format, so everything above it (admission control, deadlines, drain,
failure injection) is oblivious to the processes underneath:

* ``POST /search`` answers are bit-identical to the single-process
  server, for single bodies and batch envelopes;
* a worker crash mid-request answers a structured 503
  ``shard_unavailable`` — and after the router respawns the worker the
  same query answers 200 with identical results;
* **drain ordering** — the router quiesces (listener closed, in-flight
  requests flushed) *before* any worker process stops: a request parked
  at the injection gate during drain still answers 200, and only then
  do the workers exit;
* backpressure (429) and deadline expiry (504) shape exactly as on the
  in-process engine;
* a stale slab sidecar degrades the server (503 everywhere) before any
  worker forks.

Synchronization is the FaultInjector gate, ``wait_for_inflight`` and
the respawn generation watch — no sleeps.
"""

import asyncio

import pytest

from repro.core import ConnectionIndex, S3kSearch
from repro.engine import Engine, FaultInjector, HttpConfig
from repro.rdf import URI
from repro.social import Tag
from repro.storage import SQLiteStore

from .fixtures import figure1_instance
from .http_harness import http_call, running_server, run

QUERY = {"seeker": "u1", "keywords": ["degre"], "k": 3}


@pytest.fixture()
def indexed_db(tmp_path):
    path = tmp_path / "indexed.db"
    instance = figure1_instance()
    with SQLiteStore(path) as store:
        store.save_instance(instance)
        store.save_connection_index(ConnectionIndex(instance).ensure_all())
    return path


def _reference_record(query=QUERY):
    engine = Engine(figure1_instance())
    record = engine.search(dict(query)).to_dict()
    return record


class TestWireParity:
    def test_search_stats_healthz(self, indexed_db):
        async def go():
            async with running_server(store=indexed_db, shards=2) as server:
                single = await http_call(server.port, "POST", "/search", body=QUERY)
                batch = await http_call(
                    server.port,
                    "POST",
                    "/search",
                    body={
                        "queries": [
                            QUERY,
                            {"seeker": "u0", "keywords": ["campus"], "k": 2},
                        ]
                    },
                )
                stats = await http_call(server.port, "GET", "/stats")
                health = await http_call(server.port, "GET", "/healthz")
                return single, batch, stats, health

        single, batch, stats, health = run(go())
        assert single.status == 200
        reference = _reference_record()
        assert single.json()["results"] == reference["results"]
        assert batch.status == 200
        records = batch.json()["results"]
        assert len(records) == 2
        assert records[0]["results"] == reference["results"]
        payload = stats.json()["engine"]
        assert payload["router"]["shards"] == 2
        assert "shard_0" in payload and "shard_1" in payload
        assert payload["router"]["slab_backend"] == "mmap"
        assert health.status == 200
        assert health.json()["queries_served"] >= 3

    def test_unknown_seeker_still_404s(self, indexed_db):
        async def go():
            async with running_server(store=indexed_db, shards=2) as server:
                return await http_call(
                    server.port,
                    "POST",
                    "/search",
                    body={"seeker": "nobody", "keywords": ["degre"]},
                )

        response = run(go())
        assert response.status == 404
        assert response.json()["error"]["type"] == "not_found"


class TestWorkerCrash:
    def test_crash_answers_structured_503_then_respawns_to_200(self, indexed_db):
        async def go():
            async with running_server(store=indexed_db, shards=2) as server:
                engine = server.engine
                target = engine.shard_of(engine._coerce(dict(QUERY)))
                generation = engine._shards[target].generation
                engine.crash_worker(target)
                crashed = await http_call(server.port, "POST", "/search", body=QUERY)
                await asyncio.to_thread(
                    engine.wait_for_respawn, target, generation
                )
                recovered = await http_call(
                    server.port, "POST", "/search", body=QUERY
                )
                stats = await http_call(server.port, "GET", "/stats")
                return crashed, recovered, stats

        crashed, recovered, stats = run(go())
        assert crashed.status == 503
        assert crashed.json()["error"]["type"] == "shard_unavailable"
        assert "respawning" in crashed.json()["error"]["message"]
        assert recovered.status == 200
        assert recovered.json()["results"] == _reference_record()["results"]
        assert stats.json()["engine"]["router"]["worker_respawns"] == 1


class TestDrainOrdering:
    def test_router_quiesces_before_workers_stop(self, indexed_db):
        """A request parked at the injection gate during drain answers
        200 — which is only possible if every worker is still alive
        until the router has flushed its in-flight work."""
        faults = FaultInjector()
        gate = faults.hold_kernel()

        async def go():
            async with running_server(
                store=indexed_db, shards=2, faults=faults
            ) as server:
                engine = server.engine
                parked = asyncio.ensure_future(
                    http_call(server.port, "POST", "/search", body=QUERY)
                )
                await server.wait_for_inflight(1)
                drain = asyncio.ensure_future(server.drain())
                await server.drain_started.wait()
                # The listener is closed, but no worker has been stopped:
                # the parked request still needs them.
                workers_alive_during_drain = [
                    shard.alive for shard in engine._shards
                ]
                gate.set()
                response = await parked
                await drain
                workers_alive_after_drain = [
                    shard.alive for shard in engine._shards
                ]
                return (
                    workers_alive_during_drain,
                    response,
                    workers_alive_after_drain,
                )

        during, response, after = run(go())
        assert during == [True, True]
        assert response.status == 200
        assert response.json()["results"] == _reference_record()["results"]
        assert after == [False, False]


class TestBackpressureAndDeadlines:
    def test_forced_queue_full_still_429s(self, indexed_db):
        faults = FaultInjector()
        faults.force_queue_full = True

        async def go():
            async with running_server(
                store=indexed_db, shards=2, faults=faults
            ) as server:
                return await http_call(server.port, "POST", "/search", body=QUERY)

        response = run(go())
        assert response.status == 429
        assert response.headers["retry-after"]

    def test_deadline_expiry_still_504s(self, indexed_db):
        faults = FaultInjector()
        gate = faults.hold_kernel()

        async def go():
            async with running_server(
                store=indexed_db, shards=2, faults=faults
            ) as server:
                response = await http_call(
                    server.port,
                    "POST",
                    "/search",
                    body=QUERY,
                    headers={"x-deadline-ms": "60"},
                )
                gate.set()
                return response

        response = run(go())
        assert response.status == 504
        assert response.json()["error"]["type"] == "deadline_exceeded"


class TestStaleSidecar:
    def test_stale_slabs_degrade_before_any_fork(self, tmp_path):
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

        async def go():
            async with running_server(store=path, shards=2) as server:
                health = await http_call(server.port, "GET", "/healthz")
                search = await http_call(server.port, "POST", "/search", body=QUERY)
                return server, health, search

        server, health, search = run(go())
        assert server.engine is None  # no engine, so no worker ever forked
        assert health.status == 503
        assert search.status == 503
        assert search.json()["error"]["type"] == "stale_index"

    def test_rebuild_opt_in_recovers_sharded(self, tmp_path):
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

        async def go():
            async with running_server(
                store=path, shards=2, stale_slabs="rebuild"
            ) as server:
                search = await http_call(
                    server.port,
                    "POST",
                    "/search",
                    body={"seeker": "u1", "keywords": ["campus"], "k": 5},
                )
                return search, server.engine.instance

        search, served_instance = run(go())
        assert search.status == 200
        reference = S3kSearch(served_instance).search("u1", ["campus"], k=5)
        assert [r["uri"] for r in search.json()["results"]] == [
            str(r.uri) for r in reference.results
        ]
