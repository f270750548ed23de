"""Serving metrics: registry-backed latency instruments + deadlines.

The instruments themselves now live in :mod:`repro.obs.metrics` — a
central :class:`~repro.obs.metrics.MetricsRegistry` owned by the
service. This module keeps the serving-shaped views over them:

* :class:`EndpointMetrics` — per-endpoint execution-latency and
  queue-wait histograms, in-flight gauge, and error/timeout/rejected
  counters, all registered under labelled Prometheus families
  (``repro_request_latency_seconds{endpoint=...}``,
  ``repro_request_queue_seconds{endpoint=...}`` etc.), with a
  ``track()`` context manager the service wraps around request
  execution;
* :class:`ServiceMetrics` — one registry per
  :class:`~repro.serving.service.MatchService`; its ``snapshot()``
  feeds ``/stats`` and ``registry.render_prometheus()`` feeds
  ``GET /metrics``, so the two always agree — they read the same
  instrument objects;
* :class:`Deadline` — a cooperative per-request timeout: long
  operations call ``check()`` between units of work (the repository
  checks between candidate matches) and get a
  :class:`~repro.exceptions.RequestTimeoutError` naming what timed
  out where, stamped with the bound request id so 5xx responses are
  attributable in client logs;
* :func:`search_latency_schema` — re-exported from
  :mod:`repro.obs.metrics`: the one timing dict shape both the CLI
  (``repro search --format json``) and the daemon report.

Everything here is thread-safe; recording takes one short lock.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Dict, Optional

from repro.exceptions import RequestTimeoutError
from repro.obs import trace
from repro.obs.metrics import (
    LatencyHistogram,
    MetricsRegistry,
    search_latency_schema,
)

__all__ = [
    "Deadline",
    "EndpointMetrics",
    "LatencyHistogram",
    "ServiceMetrics",
    "search_latency_schema",
]


class EndpointMetrics:
    """Latency + liveness for one endpoint (search/match/ingest/...).

    ``latency`` times a request's execution; ``queue_wait`` the time
    from its admission to the start of that execution, which the
    service records when the compute thread picks the request up. All
    instruments are created in the service's shared registry with an
    ``endpoint`` label, so ``GET /metrics`` exposes exactly the series
    ``snapshot()`` summarises."""

    def __init__(self, name: str, registry: MetricsRegistry) -> None:
        self.name = name
        self.latency = registry.histogram(
            "repro_request_latency_seconds",
            "Request execution latency by endpoint.",
            endpoint=name,
        )
        self.queue_wait = registry.histogram(
            "repro_request_queue_seconds",
            "Time from admission to execution start by endpoint.",
            endpoint=name,
        )
        self._errors = registry.counter(
            "repro_request_errors_total",
            "Requests that raised a non-timeout error.",
            endpoint=name,
        )
        self._timeouts = registry.counter(
            "repro_request_timeouts_total",
            "Requests that exceeded their deadline.",
            endpoint=name,
        )
        self._rejected = registry.counter(
            "repro_requests_rejected_total",
            "Requests refused at admission (overload).",
            endpoint=name,
        )
        self._in_flight = registry.gauge(
            "repro_requests_in_flight",
            "Requests currently executing.",
            endpoint=name,
        )

    @property
    def in_flight(self) -> int:
        return int(self._in_flight.value)

    def reject(self) -> None:
        """Count a request refused before execution (overload)."""
        self._rejected.inc()

    def track(self) -> "_Tracker":
        """Context manager timing one request's execution."""
        return _Tracker(self)

    def snapshot(self) -> Dict[str, Any]:
        info = {
            "in_flight": int(self._in_flight.value),
            "errors": self._errors.value,
            "timeouts": self._timeouts.value,
            "rejected": self._rejected.value,
        }
        info.update(self.latency.snapshot())
        info["queue"] = self.queue_wait.snapshot()
        return info


class _Tracker:
    def __init__(self, metrics: EndpointMetrics) -> None:
        self._metrics = metrics
        self._start = 0.0

    def __enter__(self) -> "_Tracker":
        self._metrics._in_flight.inc()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        self._metrics.latency.record(elapsed)
        self._metrics._in_flight.dec()
        if exc_type is not None:
            if issubclass(exc_type, RequestTimeoutError):
                self._metrics._timeouts.inc()
            else:
                self._metrics._errors.inc()


class ServiceMetrics:
    """Per-endpoint metrics; one registry per :class:`MatchService`."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._endpoints: Dict[str, EndpointMetrics] = {}
        self.started_at = time.time()
        self.registry.callback_gauge(
            "repro_uptime_seconds",
            lambda: time.time() - self.started_at,
            "Seconds since the service's metrics came up.",
        )

    def endpoint(self, name: str) -> EndpointMetrics:
        with self._lock:
            metrics = self._endpoints.get(name)
            if metrics is None:
                metrics = self._endpoints[name] = EndpointMetrics(
                    name, self.registry
                )
            return metrics

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            endpoints = dict(self._endpoints)
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "endpoints": {
                name: metrics.snapshot()
                for name, metrics in sorted(endpoints.items())
            },
        }


class Deadline:
    """A cooperative request deadline.

    ``Deadline(seconds)`` starts the clock immediately; ``check()`` is
    called between units of work and raises
    :class:`RequestTimeoutError` once the budget is spent. ``None`` /
    ``0`` budgets never expire (:meth:`unbounded`). The error message
    carries the bound request id, when one is set, so timeouts are
    attributable end to end.
    """

    def __init__(self, seconds: Optional[float]) -> None:
        self.seconds = seconds if seconds else None
        self._expires = (
            time.monotonic() + seconds if self.seconds else math.inf
        )

    @classmethod
    def unbounded(cls) -> "Deadline":
        return cls(None)

    def remaining(self) -> float:
        return self._expires - time.monotonic()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, context: str) -> None:
        if self.expired():
            rid = trace.request_id()
            suffix = f" [request {rid}]" if rid else ""
            raise RequestTimeoutError(
                f"deadline of {self.seconds}s exceeded: {context}{suffix}"
            )
