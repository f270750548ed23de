"""Serving subsystem: concurrent match service + HTTP/JSON daemon.

Layers (each usable on its own):

* :mod:`repro.serving.metrics` — latency histograms, per-endpoint
  gauges, cooperative deadlines;
* :mod:`repro.serving.service` — :class:`MatchService`, one compute
  thread and session behind admission control, saving the repository
  once per ingest request;
* :mod:`repro.serving.http` — the stdlib ThreadingHTTPServer front
  end behind ``repro serve``.
"""

from repro.serving.http import MatchHTTPServer, serve
from repro.serving.metrics import (
    Deadline,
    EndpointMetrics,
    LatencyHistogram,
    ServiceMetrics,
    search_latency_schema,
)
from repro.serving.service import MatchService

__all__ = [
    "Deadline",
    "EndpointMetrics",
    "LatencyHistogram",
    "MatchHTTPServer",
    "MatchService",
    "ServiceMetrics",
    "search_latency_schema",
    "serve",
]
