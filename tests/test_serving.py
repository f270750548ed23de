"""Serving subsystem: the match service, deadlines, daemon, concurrency.

Three layers under test. The :class:`MatchService` contract is that
concurrency is invisible in the *results*: N threads hammering
search/match get bit-identical answers to a serial run, and a
repository search racing an ingest sees a consistent prefix of the
corpus — never a torn index. The persistence contract is the
acceptance criterion of this subsystem: a repository whose index is
rebuilt from the manifest catalog's profiles answers searches
bit-identically to one whose profiles were re-derived from the
artifact files. The HTTP layer is checked end to end over
a real socket, including the error-taxonomy → status-code mapping.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import random
import socket
import statistics
import struct
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import SchemaRepository
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.exceptions import (
    BadRequestError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.io.json_io import schema_to_dict, schema_to_json
from repro.io.sql_ddl import parse_sql_ddl
from repro.model.schema import Schema
from repro.pipeline.session import MatchSession
from repro.serving import (
    Deadline,
    LatencyHistogram,
    MatchHTTPServer,
    MatchService,
)
from repro.serving.http import (
    MAX_BODY_BYTES,
    MatchRequestHandler,
    schema_from_spec,
)


def _corpus(n=6, size=12, seed=5):
    generator = SchemaGenerator(seed=seed)
    return [
        generator.generate(
            name=f"serve{i}", n_leaves=size, name_repetition=0.5
        )
        for i in range(n)
    ]


def _query_for(schema, seed=71):
    perturbed, _ = SchemaGenerator(seed=seed).perturb(
        schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
    )
    return perturbed


def _mapping_signature(result):
    return sorted(
        (e.source_path, e.target_path, e.similarity)
        for e in result.leaf_mapping
    )


def _search_signature(search):
    return [
        (m.schema_id, m.score, _mapping_signature(m.result))
        for m in search
    ]


@pytest.fixture()
def repo(tmp_path):
    repository = SchemaRepository(str(tmp_path / "repo"))
    for schema in _corpus(5):
        repository.ingest(schema)
    repository.save()
    return repository


class TestMatchService:
    def test_concurrent_searches_match_serial(self, repo):
        """Concurrent callers must be invisible in the results: 8
        threads of searches return exactly what a direct serial search
        returns."""
        query = _query_for(_corpus(5)[2])
        serial = _search_signature(repo.search(query, k=3, candidates=4))
        with MatchService(repo, queue_depth=32) as service:
            results = [None] * 8
            errors = []

            def worker(i):
                try:
                    results[i] = _search_signature(
                        service.search(query, k=3, candidates=4)
                    )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert all(result == serial for result in results)
            stats = service.stats()
            assert stats["endpoints"]["search"]["count"] == 8
            assert stats["endpoints"]["search"]["p99_ms"] > 0

    def test_async_twins_return_same_results(self, repo):
        import asyncio

        query = _query_for(_corpus(5)[3])
        with MatchService(repo) as service:
            sync = _search_signature(
                service.search(query, k=2, candidates=3)
            )

            async def drive():
                a, b = await asyncio.gather(
                    service.search_async(query, k=2, candidates=3),
                    service.search_async(query, k=2, candidates=3),
                )
                return _search_signature(a), _search_signature(b)

            got_a, got_b = asyncio.run(drive())
            assert got_a == sync and got_b == sync

    def test_match_resolves_repository_ids(self, repo):
        ids = repo.schema_ids()
        with MatchService(repo) as service:
            by_id = service.match(ids[0], ids[1])
            direct = service.match(
                repo.load(ids[0]), repo.load(ids[1])
            )
            assert _mapping_signature(by_id) == _mapping_signature(direct)

    def test_overload_rejects_instead_of_buffering(self, repo):
        service = MatchService(repo, queue_depth=1)
        release = threading.Event()
        entered = threading.Event()

        def stall(session, deadline):
            entered.set()
            release.wait(timeout=30)
            return "done"

        future = service.submit("search", stall)
        assert entered.wait(timeout=10)
        query = _query_for(_corpus(5)[0])
        with pytest.raises(ServiceOverloadedError):
            service.search(query)
        assert service.metrics.endpoint("search").snapshot()[
            "rejected"
        ] == 1
        release.set()
        assert future.result(timeout=10) == "done"
        # Capacity freed: the same request is admitted now.
        assert len(service.search(query, k=2, candidates=2)) == 2
        service.close()

    def test_expired_deadline_surfaces_timeout(self, repo):
        query = _query_for(_corpus(5)[1])
        with MatchService(repo) as service:
            with pytest.raises(RequestTimeoutError):
                service.search(query, timeout=1e-9)
            assert service.metrics.endpoint("search").snapshot()[
                "timeouts"
            ] == 1

    def test_requests_leave_no_per_request_artifacts(self, repo):
        """The service's session caches the corpus, never what one
        request brought: queries and inline match sides are parsed anew
        by every request, so a cached copy could never be hit again and
        would only grow the daemon's heap."""
        corpus = _corpus(5)
        with MatchService(repo) as service:
            service.search(_query_for(corpus[0]), k=2, candidates=3)
            for i in range(20):
                service.search(
                    _query_for(corpus[i % 5], seed=100 + i),
                    k=2, candidates=3,
                )
            for i in range(5):
                service.match(
                    _query_for(corpus[i], seed=200 + i),
                    _query_for(corpus[(i + 1) % 5], seed=300 + i),
                )
            with pytest.raises(RequestTimeoutError):
                service.search(_query_for(corpus[1]), timeout=1e-9)
            info = service.stats()["session_pool"]
        assert info["cached_lsim_pairs"] == 0, info
        assert info["prepared_schemas"] <= len(repo), info

    def test_search_releases_query_when_deadline_expires(self, repo):
        class ExpiresAfter:
            def __init__(self, checks):
                self.checks = checks

            def check(self, context):
                if not self.checks:
                    raise RequestTimeoutError(context)
                self.checks -= 1

        session = MatchSession(pipeline=repo.session.pipeline)
        with pytest.raises(RequestTimeoutError, match="after 2 of 3"):
            repo.search(
                _query_for(_corpus(5)[0]), k=2, candidates=3,
                session=session, deadline=ExpiresAfter(2),
            )
        info = session.cache_info()
        assert info["matches"] == 2
        assert info["cached_lsim_pairs"] == 0
        assert info["prepared_schemas"] == 2  # the matched candidates

    def test_caller_registered_query_stays_registered(self, repo):
        """Library use: a query the caller prepared on its session
        before searching is the caller's to keep."""
        query = _query_for(_corpus(5)[2])
        session = MatchSession(pipeline=repo.session.pipeline)
        held = session.prepare(query)
        repo.search(query, k=2, candidates=3, session=session)
        assert session.prepare(query) is held
        assert session.cache_info()["cached_lsim_pairs"] == 3

    def test_match_by_id_keeps_corpus_cached(self, repo):
        ids = repo.schema_ids()
        with MatchService(repo) as service:
            first = service.match(ids[0], ids[1])
            again = service.match(ids[0], ids[1])
            assert _mapping_signature(again) == _mapping_signature(first)
            info = service.stats()["session_pool"]
        assert info["lsim_hits"] == 1
        assert info["cached_lsim_pairs"] == 1

    def test_closed_service_rejects(self, repo):
        service = MatchService(repo)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.search(_query_for(_corpus(5)[0]))
        service.close()  # idempotent

    def test_concurrent_ingest_search_consistent_prefix(self, tmp_path):
        """A search racing the ingest writer must see a consistent
        prefix of the corpus: every id visible to its index ranking is
        one of the first N ingested, for the N its snapshot caught —
        never a schema in the catalog but not the index or vice
        versa. The match service runs one request at a time, so the
        race is driven through the repository the way library callers
        that share it across threads drive it: two reader threads, each
        searching on its own session on the repository pipeline, while
        this thread ingests and flushes."""
        schemas = _corpus(10, size=8, seed=17)
        query = _query_for(schemas[0], seed=23)
        repository = SchemaRepository(str(tmp_path / "repo"))
        order = [repository.ingest(schemas[0])]
        repository.save()
        snapshots = []
        errors = []
        done = threading.Event()

        def reader():
            session = MatchSession(pipeline=repository.session.pipeline)
            while not done.is_set():
                try:
                    search = repository.search(
                        query, k=2, candidates=2, session=session
                    )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return
                snapshots.append(
                    sorted(sid for sid, _ in search.candidate_scores)
                )

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for schema in schemas[1:]:
            # Let the readers finish a search on every corpus size, so
            # the snapshots span the whole ingest sequence.
            seen = len(snapshots)
            waited = time.monotonic() + 30
            while len(snapshots) == seen and not errors:
                assert time.monotonic() < waited, "readers stalled"
                time.sleep(0.001)
            order.append(repository.ingest(schema))
            repository.save()
        done.set()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        repository.close()
        assert not errors
        valid_prefixes = {
            tuple(sorted(order[:n])): n
            for n in range(1, len(order) + 1)
        }
        for snapshot in snapshots:
            assert tuple(snapshot) in valid_prefixes, (
                f"torn read: {snapshot} is not a prefix of the ingest "
                f"order {order}"
            )
        # The readers really raced the writer: they saw the corpus grow.
        assert len({len(snapshot) for snapshot in snapshots}) > 1

    def test_queue_wait_is_recorded_apart_from_latency(self, repo):
        """A request admitted behind a stalled one waits for the
        compute thread at least as long as the stall. That wait lands
        in the endpoint's queue histogram, not in its execution
        latency."""
        stall = 0.25
        release = threading.Event()
        entered = threading.Event()

        def stalled(session, deadline):
            entered.set()
            release.wait(timeout=30)

        with MatchService(repo) as service:
            blocker = service.submit("ingest", stalled)
            assert entered.wait(timeout=10)
            queued = service.submit("search", lambda session, deadline: 1)
            time.sleep(stall)
            release.set()
            assert queued.result(timeout=10) == 1
            blocker.result(timeout=10)
            search = service.stats()["endpoints"]["search"]
        assert search["queue"]["count"] == search["count"] == 1
        assert search["queue"]["min_ms"] >= stall * 1000.0
        assert search["max_ms"] < stall * 1000.0


class TestSegmentParity:
    def test_reopen_from_segments_is_bit_identical_to_rebuild(
        self, tmp_path
    ):
        """Acceptance criterion: the catalog's profiles are a pure
        cache. A reopen that builds the index from them answers
        searches bit-identically to a reopen that derived every profile
        from the artifact files, as it does for a catalog an earlier
        build wrote (its profiles lived in index segment files)."""
        schemas = _corpus(6, size=10, seed=43)
        queries = [_query_for(s, seed=47 + i) for i, s in
                   enumerate(schemas[:3])]
        path = str(tmp_path / "repo")
        with SchemaRepository(path) as repository:
            for i, schema in enumerate(schemas):
                repository.ingest(schema)
                if i % 2 == 1:
                    repository.save()  # several publishes
        from_catalog = SchemaRepository.open(path)
        assert from_catalog.cache_info()["index_rebuilds"] == 0
        assert from_catalog.cache_info()["artifact_loads"] == 0
        catalog_sigs = [
            _search_signature(from_catalog.search(q, k=3, candidates=4))
            for q in queries
        ]
        # Strip every profile: the next open must derive them from
        # the artifact files, the source of truth.
        manifest_path = os.path.join(path, "repository.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        for entry in manifest["schemas"].values():
            del entry["profile"]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        rebuilt = SchemaRepository.open(path)
        assert rebuilt.cache_info()["index_rebuilds"] == 1
        rebuilt_sigs = [
            _search_signature(rebuilt.search(q, k=3, candidates=4))
            for q in queries
        ]
        assert catalog_sigs == rebuilt_sigs


class TestSessionThreadSafety:
    def test_threaded_match_many_is_bit_identical(self):
        """Regression: the session's LRU tiers race under threads.
        Eight threads matching the same pairs must agree with a serial
        session bit for bit, and the tier bookkeeping must stay sane
        (no lost updates in the counters)."""
        schemas = _corpus(4, size=10, seed=61)
        pairs = [
            (a, b) for a in schemas for b in schemas if a is not b
        ]
        serial = MatchSession()
        expected = {
            (a.name, b.name): _mapping_signature(serial.match(a, b))
            for a, b in pairs
        }
        session = MatchSession()
        errors = []

        def worker():
            try:
                for a, b in pairs:
                    got = _mapping_signature(session.match(a, b))
                    assert got == expected[(a.name, b.name)]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        info = session.cache_info()
        assert info["matches"] == 8 * len(pairs)
        # Every prepare is either a hit or a miss — a lost update
        # under racing threads breaks this invariant.
        assert (
            info["prepare_hits"] + info["prepare_misses"]
            == 2 * 8 * len(pairs)
        )


class TestMetrics:
    def test_histogram_percentiles_bound_resolution(self):
        histogram = LatencyHistogram()
        for ms in range(1, 101):
            histogram.record(ms / 1000.0)
        snap = histogram.snapshot()
        assert snap["count"] == 100
        # Log buckets guarantee ≤ ~12% relative error.
        assert abs(snap["p50_ms"] - 50) / 50 < 0.13
        assert abs(snap["p99_ms"] - 99) / 99 < 0.13
        assert snap["min_ms"] <= snap["p50_ms"] <= snap["max_ms"]

    def test_empty_histogram_snapshot(self):
        snap = LatencyHistogram().snapshot()
        assert snap["count"] == 0
        assert snap["p99_ms"] == 0.0

    def test_deadline_expiry_names_context(self):
        deadline = Deadline(1e-9)
        with pytest.raises(RequestTimeoutError, match="candidate 3"):
            deadline.check("candidate 3")
        Deadline.unbounded().check("never raises")


_SQL_SOURCE = (
    "CREATE TABLE Customers (CustomerID int PRIMARY KEY, "
    "Name varchar(40), City varchar(30));\n"
    "CREATE TABLE Orders (OrderID int PRIMARY KEY, CustomerID int "
    "REFERENCES Customers(CustomerID), Total decimal(10,2));"
)

#: One valid source text per wire format.
_SOURCES = {
    "sql": _SQL_SOURCE,
    "xml": """<schema name="PurchaseOrder">
  <complexType name="Address">
    <attribute name="Street" type="string"/>
    <attribute name="City" type="string"/>
  </complexType>
  <element name="DeliverTo" type="Address"/>
  <element name="Items">
    <attribute name="itemCount" type="integer"/>
    <element name="Item">
      <attribute name="Quantity" type="integer" optional="true"/>
    </element>
  </element>
</schema>""",
    "dtd": """<!ELEMENT po (header, lines)>
<!ELEMENT header (#PCDATA)>
<!ATTLIST header
  ponumber CDATA #REQUIRED
  podate CDATA #IMPLIED>
<!ELEMENT lines (item*)>
<!ELEMENT item (#PCDATA)>
<!ATTLIST item
  qty CDATA #REQUIRED>""",
    "oo": """class PurchaseOrder (OrderNumber: integer (key),
                     ShippingAddress: Address)
class Address (Name: string, Street: string, City: string)""",
    "json": schema_to_json(parse_sql_ddl(_SQL_SOURCE, "Sales")),
}


class TestSchemaSpecFuzz:
    """Malformed source text is the client's error: every format must
    answer with a schema or :class:`BadRequestError` (a 400), never
    an arbitrary exception that the daemon would report as a 500."""

    @pytest.mark.parametrize("fmt", sorted(_SOURCES))
    def test_mutated_sources_parse_or_raise_bad_request(self, fmt):
        text = _SOURCES[fmt]
        assert isinstance(
            schema_from_spec({"text": text, "format": fmt}), Schema
        )
        rng = random.Random(f"spec-fuzz-{fmt}")
        rejected = 0
        for _ in range(80):
            if rng.random() < 0.5:
                mutated = text[: rng.randrange(len(text))]
            else:
                chars = list(text)
                for _ in range(rng.randint(1, 3)):
                    pos = rng.randrange(len(chars))
                    chars[pos] = chr(ord(chars[pos]) ^ (1 << rng.randrange(7)))
                mutated = "".join(chars)
            try:
                parsed = schema_from_spec({"text": mutated, "format": fmt})
            except BadRequestError:
                rejected += 1
            else:
                assert isinstance(parsed, Schema)
        assert rejected > 0  # the mutations really produce bad input


@contextlib.contextmanager
def _serving(repo):
    """A daemon on an ephemeral port over ``repo``, for one block."""
    service = MatchService(repo, queue_depth=16)
    httpd = MatchHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.close()


class TestHTTPDaemon:
    @pytest.fixture()
    def server(self, repo):
        with _serving(repo) as httpd:
            yield httpd

    def _request(self, server, path, body=None):
        data = (
            json.dumps(body).encode("utf-8")
            if body is not None
            else None
        )
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}{path}",
            data=data,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def test_smoke_cycle(self, server):
        health = self._request(server, "/health")
        assert health["status"] == "ok"
        assert health["schemas"] == 5

        extra = _corpus(7, seed=5)[5:]
        ingested = self._request(server, "/ingest", {
            "schemas": [{"schema": schema_to_dict(s)} for s in extra],
        })
        assert len(ingested["ids"]) == 2
        assert ingested["schemas"] == 7
        assert ingested["latency_ms"]["total_ms"] > 0

        query = _query_for(_corpus(5)[1])
        search = self._request(server, "/search", {
            "schema": schema_to_dict(query), "k": 2, "candidates": 3,
        })
        assert len(search["matches"]) == 2
        assert set(search["latency_ms"]) == {
            "total_ms", "index_ms", "match_ms",
        }

        match = self._request(server, "/match", {
            "source": {"id": ingested["ids"][0]},
            "target": {"id": ingested["ids"][1]},
        })
        assert "score" in match and "elements" in match

        stats = self._request(server, "/stats")
        assert stats["endpoints"]["search"]["count"] == 1
        assert stats["endpoints"]["ingest"]["count"] == 1
        assert stats["health"]["schemas"] == 7
        assert stats["session_pool"]["matches"] >= 3

    def test_keep_alive_connection_does_not_stall(self, server):
        """Many requests on one connection, as a long-lived client
        sends them. A response is two sends; if the body waited for
        the client's delayed ACK of the headers, every request after
        the first would take ~40 ms longer."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )
        try:
            conn.connect()
            sock = conn.sock
            health_ms = []
            for _ in range(20):
                start = time.perf_counter()
                conn.request("GET", "/health")
                response = conn.getresponse()
                response.read()
                health_ms.append((time.perf_counter() - start) * 1000.0)
                assert response.status == 200
            body = json.dumps({
                "schema": schema_to_dict(_query_for(_corpus(5)[1])),
                "k": 2,
                "candidates": 3,
            })
            for _ in range(3):
                conn.request(
                    "POST", "/search", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == 200
                assert len(payload["matches"]) == 2
            assert conn.sock is sock  # one connection throughout
        finally:
            conn.close()
        assert statistics.median(health_ms) < 20.0, health_ms

    @staticmethod
    def _record_handler_threads(monkeypatch):
        """The threads that run a handler from now on, in accept order."""
        threads = []
        setup = MatchRequestHandler.setup

        def recording_setup(handler):
            threads.append(threading.current_thread())
            setup(handler)

        monkeypatch.setattr(MatchRequestHandler, "setup", recording_setup)
        return threads

    def test_idle_keep_alive_connection_is_closed(self, server, monkeypatch):
        """A client that sends one request and goes quiet must not
        hold a handler thread until it disconnects: after the idle
        timeout the daemon closes the connection and the thread ends."""
        # The handler declares a finite idle timeout (the stdlib default
        # is None: wait forever); shortened here so the test is quick.
        assert MatchRequestHandler.timeout is not None
        assert MatchRequestHandler.timeout > 0
        monkeypatch.setattr(MatchRequestHandler, "timeout", 0.5)
        threads = self._record_handler_threads(monkeypatch)
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=5
        )
        try:
            conn.request("GET", "/health")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            # Idle from here on. The daemon's close reads as EOF; with
            # no idle timeout this recv would block until the client's
            # own 5 s timeout.
            assert conn.sock.recv(1) == b""
        finally:
            conn.close()
        assert len(threads) == 1
        threads[0].join(timeout=5)
        assert not threads[0].is_alive()

    def test_body_stalled_past_idle_timeout_is_400_and_close(
        self, server, monkeypatch
    ):
        monkeypatch.setattr(MatchRequestHandler, "timeout", 0.5)
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        try:
            sock.sendall(
                b"POST /search HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Length: 100\r\n\r\n{\"k\": 1"
            )
            reply = b""
            while True:  # the daemon answers, then closes
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        finally:
            sock.close()
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in head
        assert "not received" in json.loads(body)["message"]

    def test_client_reset_prints_no_traceback(self, server, monkeypatch,
                                              capsys):
        """Resetting a keep-alive connection with a response unread is
        a closed connection, not a daemon error worth a traceback."""
        threads = self._record_handler_threads(monkeypatch)
        for _ in range(3):
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            )
            sock.sendall(
                b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
            )
            # Wait until the response has arrived, and leave it unread.
            assert sock.recv(1, socket.MSG_PEEK)
            # SO_LINGER 0: close() sends a RST instead of a FIN.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
        assert len(threads) == 3
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert capsys.readouterr().err == ""

    def test_reset_logs_one_line_when_verbose(self, repo, capsys):
        service = MatchService(repo)
        httpd = MatchHTTPServer(("127.0.0.1", 0), service, verbose=True)
        try:
            for error in (ConnectionResetError, BrokenPipeError):
                try:
                    raise error("client went away")
                except error:
                    httpd.handle_error(None, ("127.0.0.1", 4242))
            err = capsys.readouterr().err.splitlines()
            assert [json.loads(line)["event"] for line in err] == [
                "connection_reset", "connection_reset",
            ]
            assert [json.loads(line)["error"] for line in err] == [
                "ConnectionResetError", "BrokenPipeError",
            ]
            # Any other exception keeps socketserver's traceback.
            try:
                raise ValueError("handler bug")
            except ValueError:
                httpd.handle_error(None, ("127.0.0.1", 4242))
            err = capsys.readouterr().err
            assert "Traceback" in err and "ValueError: handler bug" in err
        finally:
            httpd.server_close()
            service.close()

    def test_text_formats_parse_on_the_wire(self, server):
        search = self._request(server, "/search", {
            "text": "CREATE TABLE po (id INT, total FLOAT);",
            "format": "sql",
            "k": 1,
        })
        assert search["query_schema"] == "request-schema"
        assert len(search["matches"]) == 1

    def _status_of(self, server, path, body):
        try:
            self._request(server, path, body)
        except urllib.error.HTTPError as error:
            payload = json.loads(error.read())
            return error.code, payload["error"]
        pytest.fail(f"{path} unexpectedly succeeded")

    def test_damaged_artifact_is_a_server_error(self, repo):
        """A catalogued schema whose artifact file is torn is the
        server's fault, not a missing resource: ``/search`` and
        ``/match`` by id answer 500 and name the error and the id."""
        ids = repo.schema_ids()
        victim = ids[2]
        artifact = os.path.join(repo.path, "schemas", f"{victim}.json")
        with open(artifact, "r+b") as handle:
            handle.truncate(os.path.getsize(artifact) // 2)
        query = schema_to_dict(_query_for(_corpus(5)[1]))
        with _serving(SchemaRepository.open(repo.path)) as server:
            for path, body in (
                ("/search", {"schema": query, "k": 2}),
                ("/match", {
                    "source": {"id": ids[0]}, "target": {"id": victim},
                }),
            ):
                with pytest.raises(urllib.error.HTTPError) as raised:
                    self._request(server, path, body)
                payload = json.loads(raised.value.read())
                assert raised.value.code == 500, (path, payload)
                assert payload["error"] == "ArtifactError", path
                assert victim in payload["message"], path

    def test_error_taxonomy_maps_to_status_codes(self, server):
        assert self._status_of(server, "/search", {"k": 2}) == (
            400, "BadRequestError",
        )
        assert self._status_of(server, "/nope", {}) == (
            404, "NotFound",
        )
        assert self._status_of(server, "/search", {
            "text": "{", "format": "json", "k": 1,
        }) == (400, "BadRequestError")
        assert self._status_of(server, "/match", {
            "source": {"id": "missing-id"},
            "target": {"id": "missing-id"},
        }) == (404, "RepositoryError")
        assert self._status_of(server, "/search", {
            "text": "CREATE TABLE x (a INT);",
            "format": "sql",
            "timeout_s": 1e-9,
        }) == (504, "RequestTimeoutError")
        # A bool is not a deadline, and NaN (which Python's json
        # emits and accepts, but JSON has no such value) would build
        # one that never expires.
        for timeout in (True, float("nan")):
            assert self._status_of(server, "/search", {
                "text": "CREATE TABLE x (a INT);",
                "format": "sql",
                "timeout_s": timeout,
            }) == (400, "BadRequestError"), timeout
        # A Content-Length that is unparseable or over the limit leaves
        # the body unread: 400, and the server closes the connection
        # rather than parse the body as the next request.
        for length in ("abc", str(MAX_BODY_BYTES + 1)):
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                conn.putrequest("POST", "/search")
                conn.putheader("Content-Type", "application/json")
                conn.putheader("Content-Length", length)
                conn.endheaders(b'{"k": 1}')
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert (response.status, payload["error"]) == (
                    400, "BadRequestError",
                ), length
                assert response.getheader("Connection") == "close", length
            finally:
                conn.close()
