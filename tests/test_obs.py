"""Observability layer: tracer, metrics registry, request correlation.

The tracer's contract is that it is *observational only*: a run with
tracing armed must produce bit-identical results to one with it
disarmed, and no trace site may force lazy work it merely reports on
(the kernel's factored lsim table stays unmaterialized either way). A
traced request reads as one connected tree, stamped with its request
id, from the HTTP edge down to the TreeMatch passes.

The metrics registry's contract is single-bookkeeping: ``/stats``
snapshots and ``GET /metrics`` exposition read the same instrument
objects, so their counts agree by construction (asserted end to end
over a real socket below).
"""

from __future__ import annotations

import ast
import io
import json
import pathlib
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import CupidMatcher, SchemaRepository
from repro.config import CupidConfig
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.linguistic.kernel import FactoredLsimTable
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, search_latency_schema
from repro.serving import Deadline, MatchHTTPServer, MatchService


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _pair(n_leaves=48, seed=29):
    generator = SchemaGenerator(seed=seed)
    schema = generator.generate(n_leaves=n_leaves, max_depth=3)
    other, _ = generator.perturb(
        schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
    )
    return schema, other


def _signature(result):
    return sorted(
        (e.source_path, e.target_path, e.similarity)
        for e in result.leaf_mapping
    )


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


def _find_all(spans, name):
    return [
        node
        for root in spans
        for node in _walk(root)
        if node.name == name
    ]


@pytest.fixture()
def tracer():
    """Arm the tracer for one test; restore the ambient state after
    (CI's REPRO_FORCE_TRACE job keeps it armed process-wide)."""
    was_armed = trace.armed()
    trace.arm()
    trace.reset()
    yield
    trace.reset()
    if not was_armed:
        trace.disarm()


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------


class TestTracer:
    def test_disarmed_sites_are_noops(self):
        was_armed = trace.armed()
        trace.disarm()
        try:
            assert trace.start_span("x") is None
            trace.end_span(None)  # must tolerate the disarmed return
            with trace.span("x") as scope:
                assert scope is None
            trace.annotate(ignored=1)
            assert trace.current_span() is None
            assert trace.roots() == []
        finally:
            if was_armed:
                trace.arm()

    def test_nesting_follows_call_structure(self, tracer):
        with trace.span("outer", depth=0):
            with trace.span("inner"):
                trace.annotate(work=7)
        roots = trace.roots()
        assert [r.name for r in roots] == ["outer"]
        outer = roots[0]
        assert outer.counters == {"depth": 0}
        assert outer.wall_s >= 0.0
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.children[0].counters == {"work": 7}

    def test_explicit_lifetime_spans_pair_up(self, tracer):
        opened = trace.start_span("explicit")
        assert trace.current_span() is opened
        child = trace.start_span("child")
        trace.end_span(child)
        trace.end_span(opened, status=200)
        assert trace.current_span() is None
        (root,) = trace.roots()
        assert root.counters["status"] == 200
        assert [c.name for c in root.children] == ["child"]

    def test_request_id_stamps_spans_and_logs(self, tracer):
        token = trace.bind_request_id("r000042")
        try:
            with trace.span("op"):
                pass
            stream = io.StringIO()
            trace.log_event("probe", stream=stream, detail="x")
        finally:
            trace.unbind_request_id(token)
        (root,) = trace.roots()
        assert root.request_id == "r000042"
        record = json.loads(stream.getvalue())
        assert record["event"] == "probe"
        assert record["request_id"] == "r000042"
        assert record["detail"] == "x"
        assert "ts" in record
        # Unbound again: log lines drop the id rather than leak it.
        stream = io.StringIO()
        trace.log_event("probe", stream=stream)
        assert "request_id" not in json.loads(stream.getvalue())

    def test_take_roots_drains(self, tracer):
        with trace.span("once"):
            pass
        assert [r.name for r in trace.take_roots()] == ["once"]
        assert trace.roots() == []

    def test_span_tree_rendering(self, tracer):
        with trace.span("parent", k=1):
            with trace.span("child"):
                pass
        (root,) = trace.take_roots()
        tree = trace.span_tree(root)
        assert tree["name"] == "parent"
        assert tree["counters"] == {"k": 1}
        assert [c["name"] for c in tree["children"]] == ["child"]
        assert tree["wall_ms"] >= tree["children"][0]["wall_ms"]


# ----------------------------------------------------------------------
# Observational-only contract
# ----------------------------------------------------------------------


@pytest.fixture()
def lsim_enumerations(monkeypatch):
    """Every factored table whose ``items()`` is called — what builds
    one entry per element pair."""
    tables = []
    items = FactoredLsimTable.items

    def recording_items(table):
        tables.append(table)
        return items(table)

    monkeypatch.setattr(FactoredLsimTable, "items", recording_items)
    return tables


def _assert_lsim_lazy(result, enumerations):
    table = result.lsim_table
    assert isinstance(table, FactoredLsimTable)
    assert table.overrides == {}, "the run wrote per-pair lsim entries"
    assert table not in enumerations, "the run enumerated lsim pairs"


class TestTracingIsObservational:
    def test_bit_identity_with_tracing_armed(self, lsim_enumerations):
        schema, other = _pair(n_leaves=32, seed=31)
        was_armed = trace.armed()
        trace.disarm()
        try:
            dark = CupidMatcher().match(schema, other)
        finally:
            if was_armed:
                trace.arm()
        _assert_lsim_lazy(dark, lsim_enumerations)
        trace.arm()
        trace.reset()
        try:
            lit = CupidMatcher().match(schema, other)
        finally:
            trace.reset()
            if not was_armed:
                trace.disarm()
        _assert_lsim_lazy(lit, lsim_enumerations)
        assert _signature(dark) == _signature(lit)


class TestStatsKeepLsimLazy:
    """``repro match --stats`` / ``--format json`` report
    ``lsim_entries`` through ``run_stats``; counting must not enumerate
    the factored table's element pairs."""

    @pytest.mark.parametrize("numpy_count", [True, False])
    def test_run_stats_counts_without_materializing(
        self, numpy_count, monkeypatch, lsim_enumerations
    ):
        if not numpy_count:
            monkeypatch.setattr("repro.linguistic.kernel._np", None)
        schema, other = _pair(n_leaves=40, seed=31)
        matcher = CupidMatcher()
        result = matcher.match(schema, other)
        stats = matcher.run_stats(result)
        _assert_lsim_lazy(result, lsim_enumerations)
        entries = stats["lsim_entries"]
        assert entries > 0
        assert entries == len(dict(result.lsim_table.items()))
        assert len(result.lsim_table) == entries


class TestMemoryFacts:
    """``--stats`` / ``--format json`` and ``/stats`` report the sizes
    of the big per-match and per-process structures: the kernel's
    profile lsim matrix and the linguistic memo's token tier."""

    def test_run_stats_reports_real_sizes(self):
        schema, other = _pair(n_leaves=40, seed=31)
        matcher = CupidMatcher()
        result = matcher.match(schema, other)
        stats = matcher.run_stats(result)
        table = result.lsim_table
        assert isinstance(table, FactoredLsimTable)
        values = table.profile_values
        assert stats["lsim_profile_bytes"] == (
            values.buffer_info()[1] * values.itemsize
        )
        assert stats["lsim_profile_bytes"] == 8 * (
            stats["vocab_source_profiles"] * stats["vocab_target_profiles"]
        )
        assert "store_bytes" in stats
        memo = matcher.pipeline.linguistic.memo
        real_entries = sum(len(row) for row in memo._token.values())
        assert stats["memo_token_entries"] == real_entries > 0


def _constant_time(expr) -> bool:
    """A constant, a name, or an attribute read off one of those."""
    while isinstance(expr, ast.Attribute):
        expr = expr.value
    return isinstance(expr, (ast.Constant, ast.Name))


class TestAnnotateArgumentsStayCheap:
    """Module-level ``trace.annotate(...)`` evaluates its arguments
    even when tracing is disarmed (only the call returns early), so an
    argument such as ``len(table)`` costs every match. Each argument
    must be a constant, a name or an attribute read."""

    def test_module_level_annotate_arguments_are_constant_time(self):
        import repro

        package = pathlib.Path(repro.__file__).parent
        sites = 0
        offenders = []
        for path in sorted(package.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast.walk(tree):
                func = getattr(node, "func", None)
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(func, ast.Attribute)
                    and func.attr == "annotate"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "trace"
                ):
                    continue
                sites += 1
                arguments = list(node.args) + [k.value for k in node.keywords]
                for arg in arguments:
                    if not _constant_time(arg):
                        offenders.append(
                            f"{path.relative_to(package.parent)}:"
                            f"{arg.lineno}: {ast.unparse(arg)}"
                        )
        assert sites, "no trace.annotate call found under src/repro"
        assert not offenders, (
            "trace.annotate arguments must be O(1) (constants, names, "
            "attribute reads): " + "; ".join(offenders)
        )


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------


class TestChromeExport:
    REQUIRED = {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}

    def test_export_is_valid_trace_event_json(self, tracer, tmp_path):
        schema, other = _pair(n_leaves=48, seed=37)
        CupidMatcher().match(schema, other)
        path = tmp_path / "trace.json"
        written = trace.write_chrome_trace(str(path))
        assert written > 0
        document = json.loads(path.read_text())
        assert set(document) == {"traceEvents", "displayTimeUnit"}
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert len(events) == written
        for event in events:
            assert self.REQUIRED <= set(event)
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert isinstance(event["ts"], int) and event["ts"] > 0
            assert isinstance(event["dur"], int) and event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert isinstance(event["args"], dict)
        names = {event["name"] for event in events}
        assert "pipeline.run" in names
        assert "treematch.run" in names


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", "x", endpoint="search")
        b = registry.counter("repro_x_total", "x", endpoint="search")
        c = registry.counter("repro_x_total", "x", endpoint="match")
        assert a is b and a is not c

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_y_total", "y")
        with pytest.raises(ValueError):
            registry.histogram("repro_y_total", "y")

    def test_counter_and_gauge_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", "Hits.", endpoint="search").inc(3)
        registry.gauge("repro_level", "Level.").set(2)
        text = registry.render_prometheus()
        assert "# HELP repro_hits_total Hits." in text
        assert "# TYPE repro_hits_total counter" in text
        assert 'repro_hits_total{endpoint="search"} 3' in text
        assert "# TYPE repro_level gauge" in text
        assert "repro_level 2" in text

    def test_histogram_exposition_is_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat_seconds", "Latency.")
        for seconds in (0.001, 0.002, 0.002, 5.0):
            hist.record(seconds)
        text = registry.render_prometheus()
        assert "# TYPE repro_lat_seconds histogram" in text
        buckets = re.findall(
            r'repro_lat_seconds_bucket\{le="([^"]+)"\} (\d+)', text
        )
        assert buckets, "no bucket samples rendered"
        assert buckets[-1][0] == "+Inf"
        counts = [int(count) for _, count in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert counts[-1] == 4
        assert re.search(r"repro_lat_seconds_count 4\b", text)
        sum_value = float(
            re.search(r"repro_lat_seconds_sum (\S+)", text).group(1)
        )
        assert sum_value == pytest.approx(5.005)

    def test_exposition_lines_are_well_formed(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "A.", endpoint="search").inc()
        registry.histogram("repro_b_seconds", "B.").record(0.01)
        registry.callback_gauge("repro_c", lambda: 1.5, "C.")
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
            r" -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$"
        )
        for line in registry.render_prometheus().splitlines():
            if not line or line.startswith("#"):
                continue
            assert sample.match(line), f"malformed sample line: {line!r}"

    def test_search_latency_schema_feeds_registry(self):
        registry = MetricsRegistry()
        stats = {"time_index_ms": 2.0, "time_match_ms": 5.0}
        block = search_latency_schema(stats, 0.01, registry=registry)
        assert block == {
            "total_ms": 10.0, "index_ms": 2.0, "match_ms": 5.0,
        }
        for phase in ("total", "index", "match"):
            hist = registry.histogram(
                "repro_search_phase_seconds", phase=phase
            )
            assert hist.count == 1
        # Without a registry the block is identical — the CLI path
        # records nothing, so daemon metrics can't double-count.
        assert search_latency_schema(stats, 0.01) == block


# ----------------------------------------------------------------------
# Request correlation
# ----------------------------------------------------------------------


class TestRequestCorrelation:
    def test_deadline_error_names_request(self):
        token = trace.bind_request_id("r000099")
        try:
            deadline = Deadline(0.000001)
            time.sleep(0.002)
            with pytest.raises(Exception) as excinfo:
                deadline.check("unit test")
        finally:
            trace.unbind_request_id(token)
        assert "[request r000099]" in str(excinfo.value)
        # Without a bound id the message stays clean.
        deadline = Deadline(0.000001)
        time.sleep(0.002)
        with pytest.raises(Exception) as excinfo:
            deadline.check("unit test")
        assert "[request" not in str(excinfo.value)


# ----------------------------------------------------------------------
# HTTP edge: ids, /metrics, trace blocks, slow-request log
# ----------------------------------------------------------------------


def _corpus(n=3, size=40, seed=5):
    generator = SchemaGenerator(seed=seed)
    return [
        generator.generate(
            name=f"obs{i}", n_leaves=size, name_repetition=0.5
        )
        for i in range(n)
    ]


class TestHTTPObservability:
    @pytest.fixture()
    def server(self, tmp_path):
        repository = SchemaRepository(str(tmp_path / "repo"))
        for schema in _corpus():
            repository.ingest(schema)
        repository.save()
        service = MatchService(repository, queue_depth=16)
        httpd = MatchHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        yield httpd
        httpd.shutdown()
        httpd.server_close()
        service.close()

    def _request(self, server, path, body=None, headers=None):
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}{path}",
            data=data,
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            raw = response.read()
            rid = response.headers.get("X-Request-Id")
            if response.headers.get_content_type() == "application/json":
                return json.loads(raw), rid
            return raw.decode("utf-8"), rid

    def _query(self):
        perturbed, _ = SchemaGenerator(seed=71).perturb(
            _corpus()[0], PerturbationConfig(abbreviate=0.3, synonym=0.2)
        )
        return perturbed

    def test_request_ids_minted_and_echoed(self, server):
        _, first = self._request(server, "/health")
        _, second = self._request(server, "/health")
        assert re.fullmatch(r"r\d{6}", first)
        assert re.fullmatch(r"r\d{6}", second)
        assert first != second
        _, echoed = self._request(
            server, "/health", headers={"X-Request-Id": "client-abc"}
        )
        assert echoed == "client-abc"

    def test_stats_reports_memo_size_once(self, server):
        """The service's session shares the repository pipeline's
        memo, so its size is a repository fact, never a session's."""
        from repro.io.json_io import schema_to_dict

        query = schema_to_dict(self._query())
        self._request(
            server, "/search", {"schema": query, "k": 1, "candidates": 1}
        )
        stats, _ = self._request(server, "/stats")
        memo = server.service.repository.session.pipeline.linguistic.memo
        real_entries = sum(len(row) for row in memo._token.values())
        assert stats["repository"]["memo_token_entries"] == real_entries > 0
        assert "memo_token_entries" not in stats["session_pool"]

    def test_metrics_exposition_agrees_with_stats(self, server):
        from repro.io.json_io import schema_to_dict

        query = schema_to_dict(self._query())
        for _ in range(2):
            self._request(
                server, "/search", {"schema": query, "k": 1, "candidates": 1}
            )
        stats, _ = self._request(server, "/stats")
        text, _ = self._request(server, "/metrics")
        count = int(re.search(
            r'repro_request_latency_seconds_count\{endpoint="search"\} (\d+)',
            text,
        ).group(1))
        assert count == stats["endpoints"]["search"]["count"] == 2
        queued = int(re.search(
            r'repro_request_queue_seconds_count\{endpoint="search"\} (\d+)',
            text,
        ).group(1))
        assert queued == stats["endpoints"]["search"]["queue"]["count"] == 2
        assert "# TYPE repro_request_latency_seconds histogram" in text
        assert "repro_uptime_seconds" in text
        phase_count = int(re.search(
            r'repro_search_phase_seconds_count\{phase="total"\} (\d+)',
            text,
        ).group(1))
        assert phase_count == 2  # one observation per request, no more

    def test_traced_search_yields_connected_tree(self, server):
        from repro.io.json_io import schema_to_dict

        response, rid = self._request(
            server,
            "/search",
            {
                "schema": schema_to_dict(self._query()),
                "k": 1,
                "candidates": 1,
                "trace": True,
            },
        )
        block = response["trace"]
        assert block["request_id"] == rid
        (serve,) = block["spans"]
        assert serve["name"] == "serve.search"

        def names(node):
            yield node["name"], node.get("request_id")
            for child in node.get("children", ()):
                yield from names(child)

        seen = dict(names(serve))
        for expected in (
            "serve.search",
            "repo.search",
            "repo.search.index",
            "repo.search.match",
            "pipeline.run",
            "treematch.run",
        ):
            assert expected in seen, f"span {expected} missing from tree"
            assert seen[expected] == rid, (
                f"span {expected} lost the request id"
            )
        # The daemon runs in-process: the collected root ties the same
        # tree to the HTTP edge span. The handler ends that span (and
        # collects the root) only after the response is written, so
        # the client may read the body first: wait for the root.
        deadline = time.monotonic() + 5.0
        while True:
            edges = [
                root for root in trace.roots()
                if root.name == "http.request" and root.request_id == rid
            ]
            if edges or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert edges, "http.request root span not collected"
        assert _find_all(edges, "serve.search"), (
            "serve span did not re-parent under the HTTP edge"
        )

    def test_error_bodies_carry_request_id(self, server):
        try:
            self._request(
                server, "/search", {"k": 2},
                headers={"X-Request-Id": "err-1"},
            )
        except urllib.error.HTTPError as error:
            payload = json.loads(error.read())
            assert error.code == 400
            assert payload["error"] == "BadRequestError"
            assert payload["request_id"] == "err-1"
            assert error.headers.get("X-Request-Id") == "err-1"
        else:
            pytest.fail("bad request unexpectedly succeeded")

    def test_slow_request_log_fires(self, tmp_path, capsys):
        config = CupidConfig().replace(slow_request_ms=0.0001)
        repository = SchemaRepository(
            str(tmp_path / "slow-repo"), config=config
        )
        for schema in _corpus(n=1, size=10):
            repository.ingest(schema)
        repository.save()
        service = MatchService(repository, queue_depth=4)
        httpd = MatchHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            _, rid = self._request(httpd, "/health")
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.close()
        lines = [
            json.loads(line)
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        slow = [l for l in lines if l.get("event") == "slow_request"]
        assert slow, "no slow_request log line emitted"
        record = slow[0]
        assert record["request_id"] == rid
        assert record["path"] == "/health"
        assert record["status"] == 200
        assert record["elapsed_ms"] >= record["threshold_ms"]
