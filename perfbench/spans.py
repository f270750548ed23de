"""The benchmark's own tracer: spans around the program's public entry points.

Traced runs install wrappers around the functions each layer exposes
(see :func:`install`), from the benchmark's files only — the
program's own ``repro.obs`` spans are never read, so later changes may
move those without redefining the benchmark. A span records its name,
start, end, parent span and request id; spans stay in memory and are
written when the process ends. Garbage collections become
``runtime.gc`` spans through ``gc.callbacks``, so every other layer's
self time excludes them.

A wrapper records only while the current op or request is traced: the
match worker toggles :attr:`Recorder.enabled` per op, and the daemon
traces a request when its ``X-Request-Id`` starts with ``t``. Untraced
ops in the same process pay one flag check per wrapped call, which is
what lets one traced run also price the tracing overhead.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import gc
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_PARENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_parent", default=None
)
#: (request id, traced?, kind) bound by the daemon's request wrapper.
_REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)

#: Span name prefix -> layer (the program's module names).
LAYERS = {
    "io": "io",
    "pipeline": "pipeline",
    "prepare": "pipeline",
    "linguistic": "linguistic",
    "treematch": "structure",
    "mapping": "mapping",
    "runtime": "runtime",
    "repository": "repository",
    "serving": "serving",
}


def layer_of(name: str) -> str:
    """Layer a span name belongs to; root spans are ``unattributed``."""
    return LAYERS.get(name.split(".", 1)[0], "unattributed")


class Recorder:
    """In-memory span and counter store for one program process."""

    def __init__(self) -> None:
        #: (name, start_ns, end_ns, span_id, parent_id, request_id, tid)
        self.spans: List[Tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.enabled = False
        self.request_id: Optional[str] = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._gc_open: Dict[int, Tuple[int, Any, int]] = {}
        #: perf_counter_ns -> epoch µs anchor for Chrome trace export.
        self.epoch_ns = time.time_ns() - time.perf_counter_ns()

    # ------------------------------------------------------------------

    def active(self) -> bool:
        request = _REQUEST.get()
        if request is not None:
            return request[1]
        return self.enabled

    def current_request(self) -> Optional[str]:
        request = _REQUEST.get()
        return request[0] if request is not None else self.request_id

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    def _close(self, name, start, span_id, parent) -> None:
        self.spans.append((
            name, start, time.perf_counter_ns(), span_id, parent,
            self.current_request(), threading.get_ident(),
        ))

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span around benchmark-side code (e.g. one whole op)."""
        if not self.active():
            yield
            return
        span_id = next(self._ids)
        parent = _PARENT.get()
        token = _PARENT.set(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            _PARENT.reset(token)
            self._close(name, start, span_id, parent)

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``. Outside the span,
        ``before(args)`` may snapshot state and ``after(recorder, args,
        result, snapshot)`` then records counters."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active():
                return fn(*args, **kwargs)
            snapshot = before(args) if before is not None else None
            span_id = next(recorder._ids)
            parent = _PARENT.get()
            token = _PARENT.set(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                _PARENT.reset(token)
                recorder._close(name, start, span_id, parent)
            if after is not None:
                after(recorder, args, result, snapshot)
            return result

        return wrapper

    def gc_callback(self, phase: str, info: Dict[str, Any]) -> None:
        tid = threading.get_ident()
        if phase == "start":
            if self.active():
                self._gc_open[tid] = (
                    time.perf_counter_ns(), _PARENT.get(), info["generation"]
                )
            return
        opened = self._gc_open.pop(tid, None)
        if opened is None:
            return
        start, parent, generation = opened
        self._close("runtime.gc", start, next(self._ids), parent)
        if generation == 2:
            self.count("runtime.gc_full_collections")


# ----------------------------------------------------------------------
# Counters read off the wrapped calls' arguments and results
# ----------------------------------------------------------------------


def _memo_totals(args) -> Tuple[int, int]:
    """(hits, misses) over the memo tiers of the matcher ``args[0]``."""
    memo = args[0].memo
    if memo is None:
        return 0, 0
    stats = memo.stats()
    hits = misses = 0
    for tier in ("token_sim", "token_set_sim", "element_sim"):
        hits += stats[f"{tier}_hits"]
        misses += stats[f"{tier}_misses"]
    return hits, misses


def _after_lsim(recorder: Recorder, args, table, before) -> None:
    kernel = getattr(table, "kernel_stats", None) or {}
    recorder.count(
        "linguistic.distinct_name_pairs",
        kernel.get("kernel_distinct_name_pairs", 0),
    )
    hits, misses = _memo_totals(args)
    recorder.count("linguistic.memo_hits", hits - before[0])
    recorder.count(
        "linguistic.memo_lookups", hits + misses - before[0] - before[1]
    )


def _after_first_pass(recorder: Recorder, args, result, _) -> None:
    source_tree, target_tree = args[1], args[2]
    recorder.count("treematch.compared_pairs", result.compared_pairs)
    recorder.count("treematch.scaled_pairs", result.scaled_pairs)
    recorder.count(
        "treematch.leaf_pairs",
        len(source_tree.root.leaves()) * len(target_tree.root.leaves()),
    )


def _after_second_pass(recorder: Recorder, args, refreshed, _) -> None:
    result = args[1]
    recorder.count("treematch.recompute_pairs", result.recompute_pairs)
    recorder.count("treematch.recompute_skipped", result.recompute_skipped)
    describe = getattr(result.sims, "describe", None)
    facts = describe() if describe is not None else {}
    kind = facts.get("store", "none")
    recorder.count(f"store.bytes.{kind}", facts.get("store_bytes", 0))
    recorder.count(
        "parallel.sharded_ops",
        facts.get("parallel_scan_ops", 0) + facts.get("parallel_scale_ops", 0),
    )


def _after_write(recorder: Recorder, args, result, _) -> None:
    request = _REQUEST.get()
    if request is not None and request[2] == "/ingest":
        recorder.count("repository.ingest_bytes_written", len(args[1]))


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------


def _replace_everywhere(original: Callable, replacement: Callable,
                        undo: List[Callable]) -> None:
    """Point every loaded module global bound to ``original`` (including
    ``from x import f`` copies) at ``replacement``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__", "").startswith(
            "repro"
        ):
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append(functools.partial(setattr, module, attr, original))


def _patch_method(cls, attr: str, replacement_for: Callable,
                  undo: List[Callable]) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        patched = classmethod(replacement_for(raw.__func__))
    elif isinstance(raw, property):
        patched = property(replacement_for(raw.fget), doc=raw.__doc__)
    else:
        patched = replacement_for(raw)
    setattr(cls, attr, patched)
    undo.append(functools.partial(setattr, cls, attr, raw))


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer's public entry points; returns an undo function.

    Import the program before calling this: the wrappers patch the
    loaded modules in place.
    """
    from repro.io import json_io
    from repro.linguistic.matcher import LinguisticMatcher
    from repro.mapping.generator import MappingGenerator
    from repro.pipeline.pipeline import MatchPipeline
    from repro.pipeline.prepared import PreparedSchema
    from repro.repository import durability
    from repro.repository.store import SchemaRepository
    from repro.serving.http import MatchRequestHandler
    from repro.serving.service import MatchService
    from repro.structure.treematch import TreeMatch

    undo: List[Callable] = []
    for fn in (json_io.schema_from_json, json_io.schema_from_dict):
        _replace_everywhere(fn, recorder.wrap(fn, "io.parse"), undo)
    write = durability.atomic_write_bytes
    _replace_everywhere(
        write, recorder.wrap(write, "repository.write", _after_write), undo
    )

    def method(name, after=None, before=None):
        return lambda fn: recorder.wrap(fn, name, after, before)

    for cls, attr, replacement in (
        (MatchPipeline, "default", method("pipeline.build")),
        (PreparedSchema, "linguistic", method("prepare.linguistic")),
        (PreparedSchema, "tree", method("prepare.tree")),
        (PreparedSchema, "leaf_layout", method("prepare.tree")),
        (LinguisticMatcher, "compute_prepared",
         method("linguistic.lsim", _after_lsim, _memo_totals)),
        (TreeMatch, "run", method("treematch.first_pass", _after_first_pass)),
        (TreeMatch, "recompute_wsim",
         method("treematch.second_pass", _after_second_pass)),
        (MappingGenerator, "leaf_mapping", method("mapping.leaf")),
        (MappingGenerator, "nonleaf_mapping", method("mapping.nonleaf")),
        (SchemaRepository, "search", method("repository.search")),
        (SchemaRepository, "ingest", method("repository.ingest")),
        (SchemaRepository, "load", method("repository.load")),
        (MatchService, "search", method("serving.search")),
        (MatchService, "ingest", method("serving.ingest")),
        (MatchRequestHandler, "do_GET", _request_root(recorder)),
        (MatchRequestHandler, "do_POST", _request_root(recorder)),
    ):
        _patch_method(cls, attr, replacement, undo)

    gc.callbacks.append(recorder.gc_callback)
    undo.append(functools.partial(gc.callbacks.remove, recorder.gc_callback))

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall


def _request_root(recorder: Recorder):
    """Handler wrapper: bind the request id, trace ``t``-prefixed ones."""

    def replacement_for(fn):
        timed = recorder.wrap(fn, "serving.http")

        @functools.wraps(fn)
        def handler(self):
            rid = self.headers.get("X-Request-Id") or ""
            token = _REQUEST.set((rid, rid.startswith("t"), self.path))
            try:
                return timed(self)
            finally:
                _REQUEST.reset(token)

        return handler

    return replacement_for


# ----------------------------------------------------------------------
# Analysis and export
# ----------------------------------------------------------------------


def self_times(spans: List[Tuple]) -> List[Tuple[str, int, int, Any]]:
    """``(name, duration_ns, self_ns, request_id)`` per span: a span's
    self time is its duration minus the part its children cover."""
    covered: Dict[Any, int] = defaultdict(int)
    for name, start, end, span_id, parent, rid, tid in spans:
        if parent is not None:
            covered[parent] += end - start
    out = []
    for name, start, end, span_id, parent, rid, tid in spans:
        duration = end - start
        out.append((name, duration, max(0, duration - covered[span_id]), rid))
    return out


def chrome_trace(spans: List[Tuple], epoch_ns: int, pid: int) -> Dict:
    """Chrome trace-event JSON (complete ``"X"`` events), the format
    ``repro --trace`` writes."""
    events = []
    for name, start, end, span_id, parent, rid, tid in spans:
        events.append({
            "name": name,
            "cat": layer_of(name),
            "ph": "X",
            "ts": (epoch_ns + start) // 1000,
            "dur": max(0, (end - start) // 1000),
            "pid": pid,
            "tid": tid,
            "args": {"span": span_id, "parent": parent, "request_id": rid},
        })
    events.sort(key=lambda event: event["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}
