"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def generated_db(tmp_path):
    path = tmp_path / "tiny.db"
    code = main(
        ["generate", "--dataset", "twitter", "--out", str(path), "--scale", "0.1"]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_creates_database(self, generated_db, capsys):
        assert generated_db.exists()

    def test_prints_statistics(self, tmp_path, capsys):
        main(
            [
                "generate",
                "--dataset",
                "vodkaster",
                "--out",
                str(tmp_path / "v.db"),
                "--scale",
                "0.1",
            ]
        )
        output = capsys.readouterr().out
        assert "Users" in output and "Documents" in output

    def test_rejects_unknown_dataset(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--dataset", "nope", "--out", str(tmp_path / "x.db")])


class TestSearch:
    def test_search_round_trip(self, generated_db, capsys):
        code = main(
            [
                "search",
                "--db",
                str(generated_db),
                "--seeker",
                "tw:u0",
                "--keywords",
                "w0",
                "-k",
                "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "terminated by" in output

    def test_no_semantics_flag(self, generated_db, capsys):
        code = main(
            [
                "search",
                "--db",
                str(generated_db),
                "--seeker",
                "tw:u0",
                "--keywords",
                "w0",
                "--no-semantics",
            ]
        )
        assert code == 0

    def test_unknown_keyword_reports_empty(self, generated_db, capsys):
        main(
            [
                "search",
                "--db",
                str(generated_db),
                "--seeker",
                "tw:u0",
                "--keywords",
                "zzznope",
            ]
        )
        assert "no results" in capsys.readouterr().out


class TestBatch:
    def test_batch_reports_throughput(self, generated_db, capsys):
        code = main(
            [
                "batch",
                "--db",
                str(generated_db),
                "--queries",
                "8",
                "--batch-size",
                "4",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "throughput (q/s)" in output
        assert "latency p99" in output

    def test_batch_compare_sequential(self, generated_db, capsys):
        code = main(
            [
                "batch",
                "--db",
                str(generated_db),
                "--queries",
                "6",
                "--batch-size",
                "3",
                "--compare-sequential",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "sequential throughput (q/s)" in output
        assert "speedup" in output

    def test_batch_with_deadline(self, generated_db, capsys):
        code = main(
            [
                "batch",
                "--db",
                str(generated_db),
                "--queries",
                "4",
                "--batch-size",
                "2",
                "--deadline",
                "0.5",
            ]
        )
        assert code == 0
        assert "deadline misses" in capsys.readouterr().out


class TestServe:
    def _serve(self, db, tmp_path, lines, extra=()):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join(lines) + "\n")
        return main(
            ["serve", "--db", str(db), "--input", str(requests), "-k", "3", *extra]
        )

    def test_serve_answers_jsonl(self, generated_db, tmp_path, capsys):
        code = self._serve(
            generated_db,
            tmp_path,
            [
                '{"seeker": "tw:u0", "keywords": ["w0"], "k": 3}',
                '{"seeker": "tw:u1", "keywords": ["w0"]}',
                '{"seeker": "tw:u0", "keywords": ["w0"], "k": 3, "id": "dup"}',
            ],
            extra=["--stats"],
        )
        captured = capsys.readouterr()
        assert code == 0
        records = {
            record["id"]: record
            for record in map(json.loads, captured.out.strip().splitlines())
        }
        assert len(records) == 3
        assert records[0]["results"]  # non-empty answer with uri/lower/upper
        assert {"uri", "lower", "upper"} <= set(records[0]["results"][0])
        # The duplicate request returns the identical answer (collapsed or
        # replayed, depending on micro-batch timing).
        assert records["dup"]["results"] == records[0]["results"]
        assert "served 3/3 requests" in captured.err
        assert "batcher" in captured.err  # --stats engine table

    def test_serve_reports_bad_lines_and_fails(self, generated_db, tmp_path, capsys):
        code = self._serve(
            generated_db,
            tmp_path,
            ['{"seeker": "tw:u0", "keywords": ["w0"]}', "{broken"],
        )
        captured = capsys.readouterr()
        assert code == 1
        records = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert any("error" in record for record in records)
        assert any("results" in record for record in records)

    def test_serve_unknown_seeker_is_an_error_record(
        self, generated_db, tmp_path, capsys
    ):
        code = self._serve(
            generated_db,
            tmp_path,
            ['{"seeker": "tw:nobody", "keywords": ["w0"]}'],
        )
        captured = capsys.readouterr()
        assert code == 1
        (record,) = [json.loads(line) for line in captured.out.strip().splitlines()]
        # The structured error record shared with the HTTP tier.
        assert "unknown seeker" in record["error"]["message"]
        assert record["error"]["type"] == "not_found"
        assert record["error"]["status"] == 404


class TestServeHttp:
    def test_parse_hostport_accepts_host_colon_port(self):
        from repro.cli import _parse_hostport

        assert _parse_hostport("127.0.0.1:8080") == ("127.0.0.1", 8080)
        assert _parse_hostport("0.0.0.0:0") == ("0.0.0.0", 0)

    @pytest.mark.parametrize("bad", ["8080", "host:", ":8080", "host:http", ""])
    def test_parse_hostport_rejects_malformed(self, bad):
        import argparse

        from repro.cli import _parse_hostport

        with pytest.raises(argparse.ArgumentTypeError, match="HOST:PORT"):
            _parse_hostport(bad)

    def test_serve_http_end_to_end(self, generated_db, capsys, monkeypatch):
        """``serve --http`` boots, answers a query, and drains on SIGTERM.

        ``main`` blocks in the server loop on this (main) thread — the
        only thread where asyncio signal handlers work — so a worker
        thread plays the client and sends SIGTERM once it has an answer.
        The server's ready callback hands the worker the ephemeral port
        through an event: no sleeps, no port races.
        """
        import asyncio
        import os
        import signal
        import threading

        import repro.engine.http as http_module

        from .http_harness import http_call

        started = threading.Event()
        box = {}
        real_run = http_module.run_http_server

        def capturing_run(server, *, ready=None):
            def relay(s):
                if ready is not None:
                    ready(s)
                box["port"] = s.port
                started.set()

            return real_run(server, ready=relay)

        monkeypatch.setattr(http_module, "run_http_server", capturing_run)

        def client():
            assert started.wait(timeout=30), "server never became ready"

            async def ask():
                return await http_call(
                    box["port"],
                    "POST",
                    "/search",
                    body={"seeker": "tw:u0", "keywords": ["w0"], "k": 3},
                )

            box["response"] = asyncio.run(ask())
            os.kill(os.getpid(), signal.SIGTERM)

        worker = threading.Thread(target=client)
        worker.start()
        try:
            code = main(["serve", "--db", str(generated_db), "--http", "127.0.0.1:0"])
        finally:
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert code == 0
        response = box["response"]
        assert response.status == 200
        assert response.json()["results"]
        err = capsys.readouterr().err
        assert "serving http://127.0.0.1:" in err and "[ready]" in err
        assert "served 1 queries" in err


class TestStaleIndexCli:
    @pytest.fixture()
    def stale_db(self, generated_db):
        code = main(["index", "--db", str(generated_db)])
        assert code == 0
        # Re-save a mutated instance over the indexed one: the persisted
        # slabs are now stale relative to the stored content.
        from repro import Tag, URI
        from repro.storage import SQLiteStore

        with SQLiteStore(generated_db) as store:
            instance = store.load_instance()
            node = sorted(instance.node_to_document)[0]
            instance.add_tag(Tag(URI("t:stale"), node, URI("tw:u0"), keyword="w0"))
            instance.saturate()
            store.save_instance(instance)
        return generated_db

    def test_stale_slab_aborts_cleanly(self, stale_db, capsys):
        code = main(
            ["search", "--db", str(stale_db), "--seeker", "tw:u0", "--keywords", "w0"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err and "repro index" in captured.err

    def test_rebuild_stale_index_flag_recovers(self, stale_db, capsys):
        code = main(
            [
                "search",
                "--db",
                str(stale_db),
                "--seeker",
                "tw:u0",
                "--keywords",
                "w0",
                "--rebuild-stale-index",
            ]
        )
        assert code == 0
        assert "terminated by" in capsys.readouterr().out


class TestCompare:
    def test_compare_prints_measures(self, generated_db, capsys):
        code = main(["compare", "--db", str(generated_db), "--queries", "4"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Semantic reachability" in output
        assert "Intersection size" in output
