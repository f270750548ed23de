"""Thin HTTP/JSON front end for :class:`~repro.serving.MatchService`.

Pure stdlib (``http.server``) — no new dependency. One
:class:`ThreadingHTTPServer` accepts connections; every request body
is parsed, and every response encoded, on the connection thread, and
the request itself runs on the service's compute thread, so the daemon
inherits the service's admission control, deadlines, and metrics.

Connections are HTTP/1.1 keep-alive: a client may send any number of
requests on one connection, each answered in turn. Every accepted
socket has ``TCP_NODELAY`` set. A response is two sends (headers,
then body), and with Nagle's algorithm on the body would wait for the
client to ACK the headers — which a keep-alive peer delays by ~40 ms
on Linux. One connection costs one handler thread for as long as the
client keeps it open, or until it sits idle for
``MatchRequestHandler.timeout`` seconds, when the daemon closes it. A
client that resets its connection is a closed connection, not an
error: no traceback (one structured ``connection_reset`` line on
stderr when the daemon runs verbose).

Endpoints (all JSON except /metrics)::

    GET  /health          liveness + corpus size + in-flight gauge
    GET  /stats           latency and queue-wait histograms
                          (p50/p95/p99 per endpoint), session cache
                          counters, repository counters
    GET  /metrics         Prometheus text exposition from the same
                          registry /stats snapshots (counts always
                          agree)
    POST /search          {"schema": {...} | "text": "...", "format":
                          "sql", "k": 5, "candidates": 16,
                          "timeout_s": 10} -> ranked matches
    POST /match           {"source": <schema spec>, "target":
                          <schema spec>} -> one mapping
    POST /ingest          {"schemas": [<schema spec>, ...]} -> ids

Every request gets a request id — minted from a per-daemon counter,
or taken from an ``X-Request-Id`` header when the client sends one —
echoed in the ``X-Request-Id`` response header, stamped on every span
and structured log line, and carried in error bodies so 5xx responses
are attributable in client logs. ``/search`` and ``/match`` bodies
may set ``"trace": true`` to get a ``trace`` block: the request's
full span tree (HTTP → service → repository → pipeline), arming the
process-wide tracer if it wasn't already. Requests slower than
``config.slow_request_ms`` emit one structured JSON log line on
stderr (0 disables).

A *schema spec* is either ``{"schema": {...}}`` (the serialized
schema-JSON format of :mod:`repro.io.json_io`) or ``{"text": "...",
"format": "sql" | "xml" | "dtd" | "oo" | "json"}`` (source text run
through the matching importer). Search/match responses carry a
``latency_ms`` block with the same keys the CLI's ``repro search
--format json`` reports, so one dashboard schema covers both.

Error taxonomy → status codes: :class:`BadRequestError` → 400,
unknown path → 404, :class:`ServiceOverloadedError` /
:class:`ServiceClosedError` → 503 with a jittered ``Retry-After``
header, :class:`RequestTimeoutError` → 504,
:class:`RepositoryReadOnlyError` (degraded to read-only, e.g. disk
full) → 507, :class:`ArtifactError` (a catalogued schema's artifact
file is unreadable or corrupt) → 500, any other
:class:`RepositoryError` → 404 (unknown schema id) and other library
errors → 400. Bodies are ``{"error": <class name>,
"message": ...}``. A failed request is always a named 5xx — never a
200 with partial results.
"""

from __future__ import annotations

import itertools
import json
import random
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import (
    ArtifactError,
    BadRequestError,
    RepositoryError,
    RepositoryReadOnlyError,
    ReproError,
    RequestTimeoutError,
    SchemaError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServingError,
)
from repro.io.dtd import parse_dtd
from repro.io.json_io import mapping_to_dict, schema_from_dict
from repro.io.oo_model import parse_oo_model
from repro.io.sql_ddl import parse_sql_ddl
from repro.io.xml_schema import parse_xml_schema
from repro.mapping.mapping import Mapping
from repro.model.schema import Schema
from repro.obs import trace
from repro.repository.store import match_score
from repro.serving.metrics import search_latency_schema
from repro.serving.service import MatchService

#: Largest accepted request body; a schema far beyond this is almost
#: certainly a client bug, and bounding it keeps a single connection
#: from ballooning daemon memory.
MAX_BODY_BYTES = 32 * 1024 * 1024

def _parse_json_text(text: str, name: str) -> Schema:
    """The ``json`` text format. Malformed text (bad JSON, or JSON
    that is not a serialized schema) raises :class:`SchemaError`, the
    way the other importers raise their parse errors."""
    try:
        return schema_from_dict(json.loads(text))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        # ValueError covers json.JSONDecodeError and unknown enum values.
        raise SchemaError(f"not a valid serialized schema: {exc}") from exc


_TEXT_PARSERS = {
    "sql": lambda text, name: parse_sql_ddl(text, name),
    "xml": lambda text, name: parse_xml_schema(text),
    "dtd": lambda text, name: parse_dtd(text, name),
    "oo": lambda text, name: parse_oo_model(text, name),
    "json": _parse_json_text,
}


def schema_from_spec(spec: Any, what: str = "schema") -> Schema:
    """Decode a request's schema spec (see module docstring)."""
    if not isinstance(spec, dict):
        raise BadRequestError(
            f"{what} must be an object with 'schema' or 'text'+'format' "
            f"(got {type(spec).__name__})"
        )
    if "schema" in spec:
        try:
            return schema_from_dict(spec["schema"])
        except ReproError:
            raise
        except Exception as exc:
            raise BadRequestError(
                f"{what}.schema is not a valid serialized schema: {exc}"
            ) from exc
    if "text" in spec:
        fmt = spec.get("format")
        parser = _TEXT_PARSERS.get(fmt)
        if parser is None:
            raise BadRequestError(
                f"{what}.format must be one of "
                f"{sorted(_TEXT_PARSERS)} (got {fmt!r})"
            )
        name = spec.get("name") or "request-schema"
        try:
            return parser(spec["text"], name)
        except ReproError as exc:
            raise BadRequestError(f"{what} failed to parse: {exc}") from exc
    raise BadRequestError(
        f"{what} must carry either 'schema' (serialized) or "
        "'text'+'format' (source text)"
    )


def _positive_int(body: Dict[str, Any], key: str, default=None):
    value = body.get(key, default)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise BadRequestError(f"{key} must be a positive integer")
    return value


def _timeout(body: Dict[str, Any]) -> Optional[float]:
    value = body.get("timeout_s")
    if value is None:
        return None
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or value < 0
    ):
        raise BadRequestError("timeout_s must be a non-negative number")
    return float(value)


def _reject_constant(token: str) -> None:
    """``json.loads`` hook for the non-JSON ``NaN``/``Infinity`` tokens
    (Python's decoder accepts them by default)."""
    raise BadRequestError(f"request body is not JSON: {token} is not a value")


def _mapping_payload(query_name, target_name, result) -> Dict[str, Any]:
    payload = mapping_to_dict(
        Mapping(query_name, target_name, list(result.leaf_mapping))
    )
    payload["timings_ms"] = {
        phase: round(seconds * 1000.0, 3)
        for phase, seconds in result.timings.items()
    }
    return payload


class MatchRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the owning server's MatchService."""

    server: "MatchHTTPServer"
    protocol_version = "HTTP/1.1"
    # Set TCP_NODELAY on every accepted socket (StreamRequestHandler's
    # setup() hook). A response goes out in two sends, end_headers()
    # and then the body. With Nagle on, the body waits until the
    # client ACKs the headers, and on a keep-alive connection Linux
    # delays that ACK by ~40 ms: every response would stall that long.
    disable_nagle_algorithm = True
    # Idle timeout, in seconds, for every socket operation on the
    # connection (StreamRequestHandler's setup() applies it). A client
    # that opens a connection and goes quiet would otherwise park this
    # handler thread in readline() until it disconnects, and admission
    # control counts requests, not connections. A keep-alive client
    # idles between its requests only briefly (a closed-loop client
    # waits at most for another client's ingest); 60 s is far above
    # that. The timeout never bounds a request's own work, which does
    # not touch the socket.
    timeout = 60

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._handle("GET", self._route_get)

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST", self._route_post)

    def _handle(self, method: str, route) -> None:
        """Request envelope: correlate, span, route, slow-log.

        Minted (or header-supplied) request ids are bound before any
        work so every span, log line, and deadline/overload error
        message produced downstream carries them — even when span
        collection is disarmed.
        """
        rid = self.headers.get("X-Request-Id") or (
            self.server.next_request_id()
        )
        self._request_id = rid
        self._status = 0
        token = trace.bind_request_id(rid)
        self._http_span = trace.start_span(
            "http.request", method=method, path=self.path
        )
        start = time.perf_counter()
        try:
            try:
                route()
            except Exception as exc:
                self._error(exc)
        finally:
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            trace.end_span(self._http_span, status=self._status)
            slow_ms = self.server.slow_request_ms
            if slow_ms and elapsed_ms >= slow_ms:
                trace.log_event(
                    "slow_request",
                    method=method,
                    path=self.path,
                    status=self._status,
                    elapsed_ms=round(elapsed_ms, 3),
                    threshold_ms=slow_ms,
                )
            trace.unbind_request_id(token)

    def _route_get(self) -> None:
        if self.path == "/health":
            self._respond(200, self.server.service.health())
        elif self.path == "/stats":
            self._respond(200, self.server.service.stats())
        elif self.path == "/metrics":
            self._respond_text(
                200,
                self.server.service.metrics.registry.render_prometheus(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._respond(404, {
                "error": "NotFound",
                "message": f"no such endpoint: {self.path}",
            })

    def _route_post(self) -> None:
        body = self._read_body()
        if body.get("trace") and self._http_span is None:
            # Per-request tracing: arm the (process-wide) tracer on
            # demand and open the edge span late — it covers the
            # service call, which is where all the time goes.
            trace.arm()
            self._http_span = trace.start_span(
                "http.request", method="POST", path=self.path
            )
        if self.path == "/search":
            self._respond(200, self._search(body))
        elif self.path == "/match":
            self._respond(200, self._match(body))
        elif self.path == "/ingest":
            self._respond(200, self._ingest(body))
        else:
            self._respond(404, {
                "error": "NotFound",
                "message": f"no such endpoint: {self.path}",
            })

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _search(self, body: Dict[str, Any]) -> Dict[str, Any]:
        query = schema_from_spec(body, what="search body")
        k = _positive_int(body, "k", 5)
        candidates = _positive_int(body, "candidates")
        start = time.perf_counter()
        search = self.server.service.search(
            query, k=k, candidates=candidates, timeout=_timeout(body)
        )
        elapsed = time.perf_counter() - start
        matches = []
        for match in search:
            payload = _mapping_payload(
                search.query_name, match.schema_name, match.result
            )
            payload["schema_id"] = match.schema_id
            payload["score"] = round(match.score, 6)
            matches.append(payload)
        response = {
            "query_schema": search.query_name,
            "matches": matches,
            "stats": search.stats,
            "latency_ms": search_latency_schema(
                search.stats,
                elapsed,
                registry=self.server.service.metrics.registry,
            ),
        }
        self._attach_trace(body, response)
        return response

    def _match(self, body: Dict[str, Any]) -> Dict[str, Any]:
        if "source" not in body or "target" not in body:
            raise BadRequestError(
                "match body must carry 'source' and 'target' schema specs"
            )
        source = self._side(body["source"], "source")
        target = self._side(body["target"], "target")
        start = time.perf_counter()
        result = self.server.service.match(
            source, target, timeout=_timeout(body)
        )
        elapsed = time.perf_counter() - start
        payload = _mapping_payload(
            result.source_schema.name, result.target_schema.name, result
        )
        payload["score"] = round(match_score(result), 6)
        payload["latency_ms"] = {
            "total_ms": round(elapsed * 1000.0, 3)
        }
        self._attach_trace(body, payload)
        return payload

    def _attach_trace(
        self, body: Dict[str, Any], response: Dict[str, Any]
    ) -> None:
        """Add the request's span tree when the body asked for it.

        The HTTP edge span is still open while the response is being
        built, so the block carries its completed children — the
        ``serve.*`` span whose subtree spans service → repository →
        pipeline. The edge timing itself is the
        response's ``latency_ms`` block.
        """
        if not body.get("trace"):
            return
        http_span = self._http_span
        if http_span is None:  # pragma: no cover - defensive
            return
        response["trace"] = {
            "request_id": self._request_id,
            "spans": [
                trace.span_tree(child) for child in http_span.children
            ],
        }

    def _side(self, spec: Any, what: str):
        """A match side: a schema spec or {"id": <repository id>}."""
        if isinstance(spec, dict) and "id" in spec:
            schema_id = spec["id"]
            if not isinstance(schema_id, str):
                raise BadRequestError(f"{what}.id must be a string")
            return schema_id
        return schema_from_spec(spec, what=what)

    def _ingest(self, body: Dict[str, Any]) -> Dict[str, Any]:
        specs = body.get("schemas")
        if not isinstance(specs, list) or not specs:
            raise BadRequestError(
                "ingest body must carry a non-empty 'schemas' list"
            )
        schemas = [
            schema_from_spec(spec, what=f"schemas[{i}]")
            for i, spec in enumerate(specs)
        ]
        start = time.perf_counter()
        ids = self.server.service.ingest(schemas, timeout=_timeout(body))
        elapsed = time.perf_counter() - start
        return {
            "ids": ids,
            "schemas": len(self.server.service.repository),
            "latency_ms": {"total_ms": round(elapsed * 1000.0, 3)},
        }

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _read_body(self) -> Dict[str, Any]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            # The body stays unread (here and over the size limit), so
            # the next request on this connection could not be framed.
            self.close_connection = True
            raise BadRequestError(
                f"Content-Length {header!r} is not an integer"
            ) from None
        if length <= 0:
            raise BadRequestError("request body required")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise BadRequestError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            # The client stalled mid-body for a whole idle timeout; what
            # follows on this connection could not be framed.
            self.close_connection = True
            raise BadRequestError(
                f"request body not received within {self.timeout} s"
            ) from None
        try:
            body = json.loads(
                raw.decode("utf-8"), parse_constant=_reject_constant
            )
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise BadRequestError(f"request body is not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise BadRequestError("request body must be a JSON object")
        return body

    def _respond(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._status = status
        blob = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        rid = getattr(self, "_request_id", None)
        if rid:
            self.send_header("X-Request-Id", rid)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)

    def _respond_text(
        self, status: int, text: str, content_type: str
    ) -> None:
        self._status = status
        blob = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(blob)))
        rid = getattr(self, "_request_id", None)
        if rid:
            self.send_header("X-Request-Id", rid)
        self.end_headers()
        self.wfile.write(blob)

    def _error(self, exc: Exception) -> None:
        status = _status_for(exc)
        headers: Dict[str, str] = {}
        if status == 503:
            retry_after = self.server.retry_after_s()
            if retry_after is not None:
                headers["Retry-After"] = str(retry_after)
        if self.close_connection:
            headers["Connection"] = "close"
        body = {
            "error": type(exc).__name__,
            "message": str(exc),
        }
        rid = getattr(self, "_request_id", None)
        if rid:
            body["request_id"] = rid
        try:
            self._respond(status, body, headers=headers)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-error; nothing to salvage

    def log_message(self, format: str, *args) -> None:
        # The daemon's observability lives in /stats, not an access
        # log; stderr chatter would swamp test output and CLI use.
        if self.server.verbose:
            super().log_message(format, *args)


def _status_for(exc: Exception) -> int:
    if isinstance(exc, BadRequestError):
        return 400
    if isinstance(exc, RequestTimeoutError):
        return 504
    if isinstance(exc, (ServiceOverloadedError, ServiceClosedError)):
        return 503
    if isinstance(exc, ServingError):
        return 500
    if isinstance(exc, RepositoryReadOnlyError):
        # Insufficient Storage: writes are degraded, reads still work.
        return 507
    if isinstance(exc, ArtifactError):
        # A catalogued schema's file is damaged: the server's fault.
        return 500
    if isinstance(exc, RepositoryError):
        return 404
    if isinstance(exc, ReproError):
        return 400
    return 500


class MatchHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one MatchService.

    ``daemon_threads`` so a hung client can never block shutdown;
    requests waiting for the service's compute thread are bounded by
    its admission control, not by the socket layer.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: MatchService,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, MatchRequestHandler)
        self.service = service
        self.verbose = verbose
        self.slow_request_ms = service.repository.config.slow_request_ms
        # Counter, not entropy: ids stay unique within the daemon (all
        # correlation needs) and deterministic across replayed request
        # sequences, so pinned-seed chaos runs keep byte-identical
        # error bodies.
        self._request_counter = itertools.count(1)
        # Seedable so pinned-seed chaos runs replay identical
        # Retry-After values; Random(None) still draws OS entropy for
        # the production default.
        self._jitter = random.Random(
            service.repository.config.serving_retry_after_seed
        )

    @property
    def port(self) -> int:
        return self.server_address[1]

    def next_request_id(self) -> str:
        """Mint the next request id (``r000001``, ...). ``next`` on an
        ``itertools.count`` is atomic under the GIL, so connection
        threads need no extra lock."""
        return f"r{next(self._request_counter):06d}"

    def handle_error(self, request, client_address) -> None:
        """A connection reset by its client ends that connection, the
        way a clean close does: no traceback, and one structured
        ``connection_reset`` line on stderr when verbose. Any other
        exception escaping a handler keeps socketserver's traceback."""
        error = sys.exc_info()[1]
        if isinstance(error, (ConnectionResetError, BrokenPipeError)):
            if self.verbose:
                trace.log_event(
                    "connection_reset",
                    client=f"{client_address[0]}:{client_address[1]}",
                    error=type(error).__name__,
                )
            return
        super().handle_error(request, client_address)

    def retry_after_s(self) -> Optional[int]:
        """Jittered ``Retry-After`` value for 503 responses.

        Uniform in ``[base, 2*base]`` seconds (rounded up to whole
        seconds, as the header requires) so a fleet of clients that
        all hit an overloaded or healing daemon at once doesn't
        synchronize into a retry stampede. ``None`` (header omitted)
        when ``serving_retry_after_s`` is 0.
        """
        base = self.service.repository.config.serving_retry_after_s
        if not base:
            return None
        return max(1, int(self._jitter.uniform(base, 2.0 * base) + 0.999))


def serve(
    service: MatchService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    ready=None,
) -> None:
    """Run the daemon until interrupted; closes the service on exit.

    ``port=0`` binds an ephemeral port (printed, and reported through
    the optional ``ready`` callback — how tests and the benchmark
    learn the address before sending traffic).

    SIGTERM and SIGINT trigger a graceful shutdown: the accept loop
    stops, in-flight requests drain (bounded by the executor's
    completion of already-admitted work), and ``service.close()``
    saves the repository's manifest before the process exits.
    Handlers are installed best-effort — in a non-main thread
    (embedded use, tests) signal wiring is skipped and the caller owns
    shutdown.
    """
    server = MatchHTTPServer((host, port), service, verbose=verbose)

    def _graceful(signum, frame) -> None:
        # server.shutdown() blocks until serve_forever() returns; a
        # direct call from the handler (which runs on the main thread,
        # inside serve_forever) would deadlock — hand it to a thread.
        threading.Thread(
            target=server.shutdown, name="repro-shutdown", daemon=True
        ).start()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _graceful)
        except ValueError:
            # Not the main thread; signals stay with the embedder.
            break
    try:
        if ready is not None:
            ready(server)
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except ValueError:
                pass
        server.server_close()
        service.close()
