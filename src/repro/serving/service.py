"""The match service: one compute thread over a repository.

The paper frames Match as a service over a repository of schemas; the
:class:`~repro.repository.store.SchemaRepository` made the repository
durable, and this module makes it *serve*: a long-lived
:class:`MatchService` admits ``search`` / ``match`` / ``ingest``
requests from any number of caller threads and runs them, one at a
time, on a single :class:`~repro.pipeline.session.MatchSession`.

Execution model
---------------
Every admitted request runs on one compute thread, with one session on
the repository's shared pipeline — hence one linguistic memo, which
starts empty in each daemon and stays in memory. The HTTP handler
threads parse request bodies and encode responses around it. The
session's prepared/lsim LRU tiers are bounded by
``config.max_prepared_schemas``; a request's own schemas (a search
query, an inline ``match`` side) leave them when it ends, so they hold
corpus schemas only.

One thread is measured, not assumed. Cupid's work at served sizes is
interpreter-bound: the dense engine's numpy calls are small, and a
call that releases the GIL hands it to the other request rather than
to an idle core. With two keep-alive clients on the seed-1 serve
corpus (2 cores), a four-thread session pool made 150–440 voluntary
context switches per search against 1.8–4 with one client, spent 18–32%
more daemon CPU per search, and served fewer searches per second with
two clients than with one (41.8 against 46.2/s); 247 of 437 switches
per search sat inside the linguistic kernel. A lock around each
candidate match, pool kept, cut the switches to 13–18 per search but
not the wall time (24.4–24.6 against 22.6–24.1 ms per search): query
preparation, index ranking and response encoding still traded the GIL
with the locked match. One compute thread gave 6.2–6.5 switches,
19.8–21.3 ms of daemon CPU and 46.9–50.6 searches/s, against
23.4–25.6 ms and 42.0–45.2/s with four. Under the GIL a pool only
bought processor sharing between CPU-bound requests, at that price.
What one thread gives up is that a huge request delays the requests
admitted behind it; admission control and deadlines bound that, and
the time a request waits for the compute thread is on ``/stats`` and
``/metrics`` as ``repro_request_queue_seconds``.

Admission control is explicit: at most ``config.serving_queue_depth``
requests may be admitted-but-unfinished; beyond that the service
raises :class:`~repro.exceptions.ServiceOverloadedError` immediately
(backpressure, not unbounded buffering). Every request carries a
cooperative :class:`~repro.serving.metrics.Deadline` that includes its
queueing time; searches check it between candidate matches, so a
timed-out request releases the compute thread promptly and surfaces
:class:`~repro.exceptions.RequestTimeoutError`.

An ingest request writes one artifact per new schema and then saves
the repository once: one manifest write publishes the whole batch,
catalog and index profiles together. These writes run on the
compute thread, so searches admitted behind an ingest wait for them.

An asyncio front end rides on top for free: every operation has an
``*_async`` twin returning an awaitable (the concurrent future wrapped
with :func:`asyncio.wrap_future`), which is what embedding event loops
use.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Union

from repro import faults
from repro.exceptions import ServiceClosedError, ServiceOverloadedError
from repro.model.schema import Schema
from repro.obs import trace
from repro.pipeline.prepared import PreparedSchema
from repro.pipeline.result import CupidResult
from repro.pipeline.session import MatchSession
from repro.repository.store import (
    RepositorySearchResult,
    SchemaRepository,
)
from repro.serving.metrics import Deadline, ServiceMetrics

SchemaLike = Union[Schema, PreparedSchema]


class MatchService:
    """Search/match/ingest over a schema repository, one request at a
    time.

    >>> with MatchService(SchemaRepository(path)) as service:
    ...     service.ingest([schema_a, schema_b])
    ...     hits = service.search(query, k=3, candidates=8)
    ...     service.stats()["endpoints"]["search"]["p99_ms"]

    Parameters default to the repository config's serving knobs:
    ``queue_depth`` (admission bound) and ``timeout_s`` (default
    per-request deadline; 0 = none). The service owns the repository's
    persistence: every ingest request saves it, and closing the
    service saves it once more.
    """

    def __init__(
        self,
        repository: SchemaRepository,
        queue_depth: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        config = repository.config
        self.repository = repository
        self._queue_depth = (
            queue_depth
            if queue_depth is not None
            else config.serving_queue_depth
        )
        self._default_timeout = (
            timeout_s if timeout_s is not None else config.serving_timeout_s
        )
        # The compute thread's session: on the repository pipeline, so
        # it shares the repository's warm memo.
        self._session = MatchSession(pipeline=repository.session.pipeline)
        self._executor = ThreadPoolExecutor(
            1, thread_name_prefix="repro-serve"
        )
        self.metrics = ServiceMetrics()
        self._admission_lock = threading.Lock()
        self._admitted = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------

    def _deadline(self, timeout: Optional[float]) -> Deadline:
        if timeout is None:
            timeout = self._default_timeout
        return Deadline(timeout) if timeout else Deadline.unbounded()

    def submit(
        self, endpoint: str, fn, *args, timeout: Optional[float] = None
    ) -> "Future[Any]":
        """Admit a request and queue it for the compute thread, which
        calls ``fn(session, deadline, *args)``.

        Returns the :class:`concurrent.futures.Future`; the sync
        wrappers below just wait on it. The deadline starts *now*, so
        time spent queued counts against it, and the endpoint's queue
        histogram records that time apart from execution latency.
        """
        metrics = self.metrics.endpoint(endpoint)
        # The rejection paths carry the caller's request id (bound at
        # the HTTP edge) so 5xx responses are attributable end to end.
        rid = trace.request_id()
        rid_suffix = f" [request {rid}]" if rid else ""
        with self._admission_lock:
            if self._closed:
                metrics.reject()
                raise ServiceClosedError(
                    f"{endpoint} rejected: service is closed{rid_suffix}"
                )
            if self._admitted >= self._queue_depth:
                metrics.reject()
                raise ServiceOverloadedError(
                    f"{endpoint} rejected: {self._admitted} requests "
                    f"in flight (queue depth {self._queue_depth})"
                    f"{rid_suffix}"
                )
            self._admitted += 1
        admitted_at = time.perf_counter()
        deadline = self._deadline(timeout)
        # Request-scoped contextvars (request id, open span) do not
        # cross executor threads on their own: capture the caller's
        # context now and run the request inside it, so every span and
        # timeout raised on the compute thread stays correlated.
        submit_context = contextvars.copy_context()

        def run() -> Any:
            try:
                metrics.queue_wait.record(time.perf_counter() - admitted_at)
                with trace.span("serve." + endpoint, endpoint=endpoint):
                    with metrics.track():
                        deadline.check(f"{endpoint} still queued")
                        faults.check("serve.execute")
                        return fn(self._session, deadline, *args)
            finally:
                with self._admission_lock:
                    self._admitted -= 1

        return self._executor.submit(submit_context.run, run)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def search(
        self,
        query: SchemaLike,
        k: int = 5,
        candidates: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> RepositorySearchResult:
        """Top-k repository search on the compute thread."""
        return self.submit(
            "search", self._do_search, query, k, candidates,
            timeout=timeout,
        ).result()

    def search_async(
        self,
        query: SchemaLike,
        k: int = 5,
        candidates: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> "asyncio.Future[RepositorySearchResult]":
        return asyncio.wrap_future(
            self.submit(
                "search", self._do_search, query, k, candidates,
                timeout=timeout,
            )
        )

    def _do_search(
        self,
        session: MatchSession,
        deadline: Deadline,
        query: SchemaLike,
        k: int,
        candidates: Optional[int],
    ) -> RepositorySearchResult:
        return self.repository.search(
            query, k=k, candidates=candidates,
            session=session, deadline=deadline,
        )

    def match(
        self,
        source: Union[SchemaLike, str],
        target: Union[SchemaLike, str],
        timeout: Optional[float] = None,
    ) -> CupidResult:
        """Match two schemas on the compute thread.

        Either side may be a repository schema id (string), which is
        loaded from the corpus artifacts.
        """
        return self.submit(
            "match", self._do_match, source, target, timeout=timeout
        ).result()

    def match_async(
        self,
        source: Union[SchemaLike, str],
        target: Union[SchemaLike, str],
        timeout: Optional[float] = None,
    ) -> "asyncio.Future[CupidResult]":
        return asyncio.wrap_future(
            self.submit(
                "match", self._do_match, source, target, timeout=timeout
            )
        )

    def _do_match(
        self,
        session: MatchSession,
        deadline: Deadline,
        source: Union[SchemaLike, str],
        target: Union[SchemaLike, str],
    ) -> CupidResult:
        deadline.check("match before execution")
        # A side given as a repository id is corpus and stays cached in
        # the session; a side the request brought is prepared for this
        # match only, like a search query.
        with contextlib.ExitStack() as request:
            sides = [
                self.repository.load(side) if isinstance(side, str)
                else request.enter_context(session.transient(side))
                for side in (source, target)
            ]
            return session.match(*sides)

    def ingest(
        self,
        schemas: Union[SchemaLike, Sequence[SchemaLike]],
        timeout: Optional[float] = None,
    ) -> List[str]:
        """Ingest one schema or a batch; returns repository ids.

        The whole request is one ingest batch: each new schema's
        artifact is written, then one repository save publishes the
        batch.
        """
        return self.submit(
            "ingest", self._do_ingest, schemas, timeout=timeout
        ).result()

    def ingest_async(
        self,
        schemas: Union[SchemaLike, Sequence[SchemaLike]],
        timeout: Optional[float] = None,
    ) -> "asyncio.Future[List[str]]":
        return asyncio.wrap_future(
            self.submit("ingest", self._do_ingest, schemas, timeout=timeout)
        )

    def _do_ingest(
        self,
        session: MatchSession,
        deadline: Deadline,
        schemas: Union[SchemaLike, Sequence[SchemaLike]],
    ) -> List[str]:
        if isinstance(schemas, (Schema, PreparedSchema)):
            schemas = [schemas]
        ids = []
        for position, schema in enumerate(schemas):
            deadline.check(
                f"ingest after {position} of {len(schemas)} schemas"
            )
            ids.append(self.repository.ingest(schema, session=session))
        self.repository.save()
        return ids

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Cheap liveness snapshot (not queued for the compute
        thread)."""
        with self._admission_lock:
            admitted, closed = self._admitted, self._closed
        return {
            "status": "closed" if closed else "ok",
            "schemas": len(self.repository),
            "in_flight": admitted,
            "queue_depth": self._queue_depth,
            # A read-only repository still serves searches; liveness
            # stays "ok" so orchestrators don't restart a healthy
            # reader out of a full disk.
            "read_only": self.repository.read_only,
        }

    def stats(self) -> Dict[str, Any]:
        """Full metrics: endpoint latency and queue-wait histograms
        (p50/p95/p99), in-flight gauges, the session's cache counters
        (``session_pool``), and repository counters — the ``/stats``
        payload."""
        info = self.metrics.snapshot()
        info["health"] = self.health()
        info["session_pool"] = self._session.cache_info()
        info["repository"] = self.repository.cache_info()
        info["recovery"] = self.repository.recovery_info()
        return info

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drain in-flight requests, then flush the repository.

        New requests are rejected with :class:`ServiceClosedError` the
        moment draining starts. Idempotent.
        """
        with self._admission_lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=True)
        self.repository.save()

    def __enter__(self) -> "MatchService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
