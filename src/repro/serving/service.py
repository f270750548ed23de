"""The concurrent match service: a session pool over a repository.

The paper frames Match as a service over a repository of schemas; the
:class:`~repro.repository.store.SchemaRepository` made the repository
durable, and this module makes it *serve*: a long-lived
:class:`MatchService` multiplexes ``search`` / ``match`` / ``ingest``
requests over a bounded pool of :class:`~repro.pipeline.session.
MatchSession` workers.

Execution model
---------------
Requests run on a thread pool sized to the session pool (one session
per worker thread, so checkout never blocks). Python threads are the
right vehicle here despite the GIL: the dense engine's numpy region
ops release the GIL, artifact loading is I/O, and the shared
linguistic memo plus the repository's persistent simcache mean most of
a warm request's time is spent in vectorized code. Each worker session
keeps its own prepared/lsim LRU tiers (bounded by
``config.max_prepared_schemas``) but all sessions share one pipeline —
and therefore one linguistic memo, preloaded from the repository's
``simcache.json``. A request's own schemas (a search query, an inline
``match`` side) leave those tiers when it ends, so they hold corpus
schemas only.

Admission control is explicit: at most ``config.serving_queue_depth``
requests may be admitted-but-unfinished; beyond that the service
raises :class:`~repro.exceptions.ServiceOverloadedError` immediately
(backpressure, not unbounded buffering). Every request carries a
cooperative :class:`~repro.serving.metrics.Deadline` that includes its
queueing time; searches check it between candidate matches, so a
timed-out request releases its session promptly and surfaces
:class:`~repro.exceptions.RequestTimeoutError`.

Ingest batches flush one append-only index segment each; when the
segment sequence exceeds ``config.segment_compaction_threshold`` a
background thread compacts it — ingest requests never pay compaction
latency.

An asyncio front end rides on top for free: every operation has an
``*_async`` twin returning an awaitable (the concurrent future wrapped
with :func:`asyncio.wrap_future`), which is what the HTTP daemon and
embedding event loops use.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import os
import queue
import threading
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


def available_cpu_count() -> int:
    """CPUs actually available to this process.

    ``os.cpu_count()`` reports the machine, not the cgroup/affinity
    limits a container imposes — an auto-sized session pool would then
    oversubscribe a 2-core cgroup on a 64-core host. Prefer
    ``os.process_cpu_count()`` (3.13+), fall back to the scheduler
    affinity mask, and only then to the raw count."""
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:
        count = getter()
        if count:
            return count
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


class MatchService:
    """Concurrent search/match/ingest over a schema repository.

    >>> with MatchService(SchemaRepository(path)) as service:
    ...     service.ingest([schema_a, schema_b])
    ...     hits = service.search(query, k=3, candidates=8)
    ...     service.stats()["endpoints"]["search"]["p99_ms"]

    Parameters default to the repository config's serving knobs:
    ``sessions`` (pool width; 0 = one per CPU core), ``queue_depth``
    (admission bound), ``timeout_s`` (default per-request deadline;
    0 = none). The service owns the repository's persistence: closing
    it flushes pending segments, the manifest, and the simcache.
    """

    def __init__(
        self,
        repository: SchemaRepository,
        sessions: Optional[int] = None,
        queue_depth: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        config = repository.config
        width = (
            sessions if sessions is not None else config.serving_sessions
        )
        if width == 0:
            # Available (cgroup/affinity-respecting) cores, not the
            # machine's: a 2-core container on a 64-core host must not
            # get a 64-session pool.
            width = available_cpu_count()
        if width < 1:
            raise ValueError(f"sessions must be >= 0 (got {width})")
        self.repository = repository
        self._width = width
        self._queue_depth = (
            queue_depth
            if queue_depth is not None
            else config.serving_queue_depth
        )
        self._default_timeout = (
            timeout_s if timeout_s is not None else config.serving_timeout_s
        )
        # One session per worker thread; all share the repository
        # pipeline (hence its warm memo and the preloaded simcache),
        # each holds its own LRU-bounded prepared/lsim tiers.
        self._sessions: List[MatchSession] = [
            MatchSession(pipeline=repository.session.pipeline)
            for _ in range(width)
        ]
        self._idle: "queue.Queue[MatchSession]" = queue.Queue()
        for session in self._sessions:
            self._idle.put(session)
        self._executor = ThreadPoolExecutor(
            width, thread_name_prefix="repro-serve"
        )
        self.metrics = ServiceMetrics()
        self._admission_lock = threading.Lock()
        self._admitted = 0
        self._closed = False
        self._compaction_lock = threading.Lock()
        self._compaction_thread: Optional[threading.Thread] = None
        self._compaction_timer: Optional[threading.Timer] = None
        #: Consecutive background-compaction failures (drives the
        #: exponential backoff; reset on success).
        self._compaction_failures = 0
        #: Total supervised compaction retries ever scheduled.
        self._compaction_retries = 0
        self._compaction_backoff = config.serving_compaction_backoff_s

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
        """Admit a request and schedule it on the pool.

        Returns the :class:`concurrent.futures.Future`; the sync
        wrappers below just wait on it. The deadline starts *now*, so
        time spent queued counts against it.
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
        deadline = self._deadline(timeout)
        # Request-scoped contextvars (request id, open span) do not
        # cross executor threads on their own: capture the caller's
        # context now and run the request inside it, so every span and
        # timeout raised on the worker thread stays correlated.
        submit_context = contextvars.copy_context()

        def run() -> Any:
            try:
                with trace.span("serve." + endpoint, endpoint=endpoint):
                    with metrics.track():
                        deadline.check(f"{endpoint} still queued")
                        faults.check("serve.execute")
                        session = self._idle.get()
                        try:
                            return fn(session, deadline, *args)
                        finally:
                            self._idle.put(session)
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
        """Top-k repository search on a pool session."""
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
        """Match two schemas on a pool session.

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
        # the pool session; a side the request brought is prepared for
        # this match only, like a search query.
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

        The whole request is one ingest batch: its profiles flush as
        one append-only index segment, and if the segment sequence has
        outgrown the compaction threshold a *background* compaction is
        scheduled — the request never pays for it.
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
        self.repository.save(auto_compact=False)
        self._maybe_compact()
        return ids

    # ------------------------------------------------------------------
    # Background compaction
    # ------------------------------------------------------------------

    #: Ceiling on the supervised compaction backoff delay, seconds.
    COMPACTION_BACKOFF_CAP_S = 30.0

    def _maybe_compact(self) -> None:
        threshold = self.repository.config.segment_compaction_threshold
        if not threshold:
            return
        if self.repository.segment_count() <= threshold:
            return
        with self._compaction_lock:
            if (
                self._compaction_thread is not None
                and self._compaction_thread.is_alive()
            ):
                return  # one compactor at a time; it folds everything
            if self._compaction_timer is not None:
                return  # a supervised retry is already scheduled
            self._compaction_thread = threading.Thread(
                target=self._compact_now,
                name="repro-compact",
                daemon=True,
            )
            self._compaction_thread.start()

    def _compact_now(self) -> None:
        """Run one background compaction under supervision.

        A failure (e.g. disk full) leaves the longer-but-valid segment
        sequence in place and schedules a retry with capped
        exponential backoff — the service heals itself once the
        condition clears instead of waiting for the next ingest.
        """
        with self._compaction_lock:
            self._compaction_timer = None
        try:
            self.repository.compact()
        except Exception:
            with self._compaction_lock:
                self._compaction_failures += 1
                base = self._compaction_backoff
                if not base or self._closing_for_compaction():
                    return
                delay = min(
                    self.COMPACTION_BACKOFF_CAP_S,
                    base * 2 ** (self._compaction_failures - 1),
                )
                self._compaction_retries += 1
                timer = threading.Timer(delay, self._compact_now)
                timer.daemon = True
                self._compaction_timer = timer
                timer.start()
        else:
            with self._compaction_lock:
                self._compaction_failures = 0

    def _closing_for_compaction(self) -> bool:
        with self._admission_lock:
            return self._closed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Cheap liveness snapshot (no pool dispatch)."""
        with self._admission_lock:
            admitted, closed = self._admitted, self._closed
        return {
            "status": "closed" if closed else "ok",
            "schemas": len(self.repository),
            "segments": self.repository.segment_count(),
            "sessions": self._width,
            "in_flight": admitted,
            "queue_depth": self._queue_depth,
            # A read-only repository still serves searches; liveness
            # stays "ok" so orchestrators don't restart a healthy
            # reader out of a full disk.
            "read_only": self.repository.read_only,
        }

    def stats(self) -> Dict[str, Any]:
        """Full metrics: endpoint latency histograms (p50/p95/p99),
        in-flight gauges, session-pool cache counters, and repository
        counters — the ``/stats`` payload."""
        pool: Dict[str, int] = {}
        for session in self._sessions:
            for key, value in session.cache_info().items():
                if isinstance(value, (int, float)):
                    pool[key] = pool.get(key, 0) + value
        info = self.metrics.snapshot()
        info["health"] = self.health()
        info["session_pool"] = pool
        info["repository"] = self.repository.cache_info()
        recovery = self.repository.recovery_info()
        with self._compaction_lock:
            recovery["compaction_retries"] = self._compaction_retries
            recovery["compaction_failures"] = self._compaction_failures
        info["recovery"] = recovery
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
        with self._compaction_lock:
            compactor = self._compaction_thread
            if self._compaction_timer is not None:
                self._compaction_timer.cancel()
                self._compaction_timer = None
        if compactor is not None:
            compactor.join(timeout=60.0)
        self.repository.save()

    def __enter__(self) -> "MatchService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
