"""Span-based tracing with request correlation.

The tracer mirrors the arming discipline of :mod:`repro.faults`: a
single module-global state object, ``None`` when disarmed, checked
once per instrumentation site. Disarmed, every site costs one global
read and one ``is None`` branch — no allocation, no locking, no
contextvar traffic — so tracing can stay compiled into every layer
of the stack permanently.

Armed (:func:`arm`, or ``REPRO_FORCE_TRACE=1`` in the environment,
which subprocesses inherit), sites open :class:`Span` records that
form trees: the active span lives in a :class:`contextvars.ContextVar`
so nesting follows call structure, survives ``contextvars.copy_context``
into executor threads, and never leaks across concurrent requests.
Finished root spans collect in a bounded deque for export.

Spans carry wall time, thread CPU time, a counter dict, the pid/tid
they ran on, and the request id bound at the time they started
(:func:`bind_request_id` — minted at the HTTP edge).

Export: :func:`chrome_trace_events` / :func:`write_chrome_trace`
render span trees as Chrome trace-event JSON (the ``chrome://tracing``
/ Perfetto ``"X"`` complete-event format); :func:`span_tree` renders
one span as a nested dict for JSON responses; :func:`log_event` emits
one structured JSON log line stamped with the bound request id.

Tracing is observational only: no site may alter control flow or
data, so results are bit-identical armed or disarmed (held in CI by
a tier-1 job running under ``REPRO_FORCE_TRACE=1``).
"""

from __future__ import annotations

import collections
import contextvars
import json
import os
import sys
import threading
import time
from typing import Any, Deque, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "arm",
    "disarm",
    "armed",
    "reset",
    "span",
    "start_span",
    "end_span",
    "annotate",
    "current_span",
    "bind_request_id",
    "unbind_request_id",
    "request_id",
    "roots",
    "take_roots",
    "span_tree",
    "chrome_trace_events",
    "write_chrome_trace",
    "log_event",
]

#: Request id bound at the serving edge (or by the CLI); stamped on
#: every span started while bound and on every structured log line.
_REQUEST_ID: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_obs_request_id", default=None
)

#: The innermost open span in this execution context.
_ACTIVE: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_obs_active_span", default=None
)


class Span:
    """One timed operation: a node in a per-request span tree.

    Usable standalone, without any armed global state:
    ``Span.begin(name)`` starts the clocks, ``finish()`` stops them.
    Parenting is the tracer's job.
    """

    __slots__ = (
        "name",
        "ts_us",
        "pid",
        "tid",
        "request_id",
        "wall_s",
        "cpu_s",
        "counters",
        "children",
        "_t0",
        "_cpu0",
        "_parent",
        "_token",
        "_state",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.ts_us = 0
        self.pid = 0
        self.tid = 0
        self.request_id: Optional[str] = None
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.counters: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self._t0 = 0.0
        self._cpu0 = 0.0
        self._parent: Optional["Span"] = None
        self._token: Optional[contextvars.Token] = None
        self._state: Optional["_TraceState"] = None

    @classmethod
    def begin(cls, name: str, **counters: Any) -> "Span":
        span = cls(name)
        if counters:
            span.counters.update(counters)
        span.pid = os.getpid()
        span.tid = threading.get_native_id()
        # Epoch microseconds anchor the span on a clock shared across
        # processes, so traces exported by separate processes line up
        # in one Chrome trace; perf_counter supplies the duration.
        span.ts_us = int(time.time() * 1e6)
        span._cpu0 = time.thread_time()
        span._t0 = time.perf_counter()
        return span

    def finish(self, **counters: Any) -> "Span":
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.thread_time() - self._cpu0
        if counters:
            self.counters.update(counters)
        return self

    def annotate(self, **counters: Any) -> None:
        self.counters.update(counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, wall={self.wall_s * 1000.0:.3f}ms, "
            f"children={len(self.children)})"
        )


class _TraceState:
    """Armed-tracer state: finished root spans, bounded."""

    __slots__ = ("lock", "roots")

    def __init__(self, max_roots: int) -> None:
        self.lock = threading.Lock()
        self.roots: Deque[Span] = collections.deque(maxlen=max_roots)


#: The armed tracer, or None. Every site reads this once; disarmed
#: tracing is exactly that read plus an ``is None`` branch (the
#: faults.py pattern).
_STATE: Optional[_TraceState] = None


def arm(max_roots: int = 256) -> None:
    """Arm the tracer process-wide. Idempotent; keeps existing roots."""
    global _STATE
    if _STATE is None:
        _STATE = _TraceState(max_roots)


def disarm() -> None:
    """Disarm and drop any collected root spans."""
    global _STATE
    _STATE = None


def armed() -> bool:
    return _STATE is not None


def reset() -> None:
    """Drop collected roots; keep the tracer armed."""
    state = _STATE
    if state is not None:
        with state.lock:
            state.roots.clear()


class _NoopScope:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


_NOOP = _NoopScope()


class _SpanScope:
    __slots__ = ("_state", "_name", "_counters", "span")

    def __init__(
        self, state: _TraceState, name: str, counters: Dict[str, Any]
    ) -> None:
        self._state = state
        self._name = name
        self._counters = counters
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        opened = Span.begin(self._name, **self._counters)
        opened.request_id = _REQUEST_ID.get()
        opened._parent = _ACTIVE.get()
        opened._state = self._state
        opened._token = _ACTIVE.set(opened)
        self.span = opened
        return opened

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        opened = self.span
        if opened is not None:
            end_span(opened)
        return False


def span(name: str, **counters: Any) -> Any:
    """Context manager opening a child span of the current context.

    Disarmed: returns a shared no-op scope (one ``None``-check)."""
    state = _STATE
    if state is None:
        return _NOOP
    return _SpanScope(state, name, counters)


def start_span(name: str, **counters: Any) -> Optional[Span]:
    """Explicit-lifetime twin of :func:`span` for awkward control
    flow (HTTP handlers). Returns None when disarmed; pair with
    :func:`end_span`, which tolerates None."""
    state = _STATE
    if state is None:
        return None
    opened = Span.begin(name, **counters)
    opened.request_id = _REQUEST_ID.get()
    opened._parent = _ACTIVE.get()
    opened._state = state
    opened._token = _ACTIVE.set(opened)
    return opened


def end_span(opened: Optional[Span], **counters: Any) -> None:
    if opened is None:
        return
    opened.finish(**counters)
    if opened._token is not None:
        try:
            _ACTIVE.reset(opened._token)
        except ValueError:
            # Ended in a different context than it started in; the
            # parent link below still threads the tree correctly.
            _ACTIVE.set(opened._parent)
        opened._token = None
    parent = opened._parent
    if parent is not None:
        parent.children.append(opened)
    elif opened._state is not None:
        with opened._state.lock:
            opened._state.roots.append(opened)


def annotate(**counters: Any) -> None:
    """Attach counters to the innermost open span, if tracing is on."""
    if _STATE is None:
        return
    opened = _ACTIVE.get()
    if opened is not None:
        opened.counters.update(counters)


def current_span() -> Optional[Span]:
    if _STATE is None:
        return None
    return _ACTIVE.get()


def bind_request_id(rid: Optional[str]) -> contextvars.Token:
    """Bind the request id for this execution context; returns a
    token for :func:`unbind_request_id`. Always available — request
    correlation works (in logs and error messages) even when span
    collection is disarmed."""
    return _REQUEST_ID.set(rid)


def unbind_request_id(token: contextvars.Token) -> None:
    try:
        _REQUEST_ID.reset(token)
    except ValueError:  # pragma: no cover - cross-context unbind
        _REQUEST_ID.set(None)


def request_id() -> Optional[str]:
    return _REQUEST_ID.get()


def roots() -> List[Span]:
    """Snapshot of finished root spans (oldest first)."""
    state = _STATE
    if state is None:
        return []
    with state.lock:
        return list(state.roots)


def take_roots() -> List[Span]:
    """Drain and return finished root spans."""
    state = _STATE
    if state is None:
        return []
    with state.lock:
        drained = list(state.roots)
        state.roots.clear()
    return drained


def span_tree(opened: Span) -> Dict[str, Any]:
    """Nested-dict rendering for JSON responses and walkthroughs."""
    node: Dict[str, Any] = {
        "name": opened.name,
        "wall_ms": round(opened.wall_s * 1000.0, 3),
        "cpu_ms": round(opened.cpu_s * 1000.0, 3),
    }
    if opened.request_id is not None:
        node["request_id"] = opened.request_id
    if opened.counters:
        node["counters"] = dict(opened.counters)
    if opened.children:
        node["children"] = [span_tree(child) for child in opened.children]
    return node


def chrome_trace_events(
    spans: Iterable[Span],
) -> List[Dict[str, Any]]:
    """Flatten span trees into Chrome trace-event ``"X"`` records."""
    events: List[Dict[str, Any]] = []

    def walk(opened: Span) -> None:
        args: Dict[str, Any] = dict(opened.counters)
        if opened.request_id is not None:
            args["request_id"] = opened.request_id
        args["cpu_ms"] = round(opened.cpu_s * 1000.0, 3)
        events.append(
            {
                "name": opened.name,
                "cat": "repro",
                "ph": "X",
                "ts": opened.ts_us,
                "dur": max(0, int(opened.wall_s * 1e6)),
                "pid": opened.pid,
                "tid": opened.tid,
                "args": args,
            }
        )
        for child in opened.children:
            walk(child)

    for opened in spans:
        walk(opened)
    return events


def write_chrome_trace(
    path: str, spans: Optional[Iterable[Span]] = None
) -> int:
    """Write collected (or given) span trees as a Chrome trace file.

    Returns the number of trace events written. The output loads in
    ``chrome://tracing`` and Perfetto as-is."""
    if spans is None:
        spans = roots()
    events = chrome_trace_events(spans)
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return len(events)


def log_event(event: str, stream: Any = None, **fields: Any) -> None:
    """Emit one structured JSON log line, request-id stamped."""
    record: Dict[str, Any] = {
        "ts": round(time.time(), 6),
        "event": event,
    }
    rid = _REQUEST_ID.get()
    if rid is not None:
        record["request_id"] = rid
    record.update(fields)
    out = stream if stream is not None else sys.stderr
    out.write(json.dumps(record, default=str) + "\n")


def _bootstrap() -> None:
    """Arm from the environment at import, mirroring faults.py, so
    spawned subprocesses and CI jobs inherit arming without code."""
    if os.environ.get("REPRO_FORCE_TRACE"):
        arm()


_bootstrap()
