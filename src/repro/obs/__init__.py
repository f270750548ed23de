"""repro.obs — unified observability: tracing, metrics, correlation.

Three concerns, one package:

* request-correlated span trees (:mod:`repro.obs.trace`) — armed via
  :func:`arm` or ``REPRO_FORCE_TRACE=1``, zero-overhead disarmed
  (one ``None``-check per site, the :mod:`repro.faults` pattern),
  exportable as Chrome trace-event JSON;
* a central :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) with
  Prometheus text exposition — the single source behind ``/stats``
  and ``GET /metrics``;
* request ids (:func:`bind_request_id` / :func:`request_id`) minted
  at the HTTP edge and stamped on spans, structured log lines
  (:func:`log_event`), and serving error messages.
"""

from repro.obs.metrics import (
    CallbackGauge,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    global_registry,
    search_latency_schema,
)
from repro.obs.trace import (
    Span,
    annotate,
    arm,
    armed,
    bind_request_id,
    chrome_trace_events,
    current_span,
    disarm,
    end_span,
    log_event,
    request_id,
    reset,
    roots,
    span,
    span_tree,
    start_span,
    take_roots,
    unbind_request_id,
    write_chrome_trace,
)

__all__ = [
    "CallbackGauge",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "Span",
    "annotate",
    "arm",
    "armed",
    "bind_request_id",
    "chrome_trace_events",
    "current_span",
    "disarm",
    "end_span",
    "global_registry",
    "log_event",
    "request_id",
    "reset",
    "roots",
    "search_latency_schema",
    "span",
    "span_tree",
    "start_span",
    "take_roots",
    "unbind_request_id",
    "write_chrome_trace",
]
