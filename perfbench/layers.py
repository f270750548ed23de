"""Per-layer metrics from a traced run, and what each should move.

:data:`MOVES` records, for every per-layer metric, the end-to-end
metric and workload it is expected to move — written down before any
optimisation is measured, as the benchmark's contract with later
changes. Time metrics are self times (a span's duration minus its
children's), averaged per traced op (match workloads) or per traced
request (serve-mixed); counts are per traced op or request unless the
name says otherwise. A metric a workload never exercises reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from spans import layer_of, self_times

_P50 = "latency_p50_ms"
_P50_TAIL = "latency_p50_ms, latency_tail_ms"
_MATCH = "match-context, match-wide"
_SERVE = "serve-mixed"
#: per-layer metric -> (end-to-end metric it should move, on which
#: workloads). Shares are of a match op's latency.
MOVES: Dict[str, Tuple[str, str]] = {
    "io.parse_ms": (_P50, "serve-mixed (every body); 1-2% of a match op"),
    "io.write_ms": (_P50, _MATCH),
    "pipeline.build_ms": (_P50, _MATCH),
    "prepare.linguistic_ms": (_P50, "with tree: match-wide 7%, context 4%"),
    "prepare.tree_ms": (_P50, "with linguistic: match-wide 7%, context 4%"),
    "linguistic.lsim_ms": (_P50, "match-context 27%, match-wide 26%"),
    "linguistic.distinct_name_pairs": (_P50, _MATCH),
    "linguistic.memo_hit_ratio": (_P50, "serve-mixed (shared memo)"),
    "treematch.first_pass_ms": (
        "latency_p50_ms, peak_rss_mb",
        "with second pass: match-context 63%, match-wide 58%",
    ),
    "treematch.second_pass_ms": (_P50, _MATCH),
    "treematch.compared_pairs": ("latency_p50_ms, peak_rss_mb", _MATCH),
    "treematch.leaf_pair_share": (_P50, _MATCH),
    "treematch.scaled_pairs": (_P50, "match-context"),
    "treematch.second_pass_skip_ratio": (_P50, _MATCH),
    "store.bytes.flat": ("peak_rss_mb", "match-context"),
    "store.bytes.blocked": ("peak_rss_mb", "match-wide"),
    "parallel.sharded_ops": (_P50, _MATCH),
    "mapping.leaf_ms": (_P50, _MATCH + " (about 4%)"),
    "mapping.nonleaf_ms": (_P50, _MATCH + " (about 4%)"),
    "runtime.gc_ms": (_P50, "match-wide 16%, match-context 10%"),
    "runtime.gc_full_collections": (_P50, _MATCH),
    "repository.index_ms": (_P50, _SERVE),
    "repository.candidate_match_ms": (_P50, _SERVE),
    "repository.ingest_ms": ("ingest p50 (printed)", _SERVE),
    "repository.bytes_written_per_ingest": ("ingest p50 (printed)", _SERVE),
    "repository.compactions": ("latency_tail_ms", "serve-mixed, per run"),
    "repository.artifact_loads": (_P50, "serve-mixed, per run"),
    "session.prepared_schemas": ("peak_rss_mb", "serve-mixed, at run end"),
    "session.cached_lsim_pairs": ("peak_rss_mb", "serve-mixed, at run end"),
    "session.lsim_hit_ratio": ("peak_rss_mb, latency_p50_ms", _SERVE),
    "serving.service_ms": (_P50_TAIL, _SERVE),
    "serving.queue_wait_ms": (_P50_TAIL, _SERVE),
    "serving.edge_ms": (_P50_TAIL, _SERVE),
    "serving.rejected": ("latency_tail_ms", "serve-mixed, per run"),
    "serving.ingest_p50_ms": ("ingest p50 (printed)", _SERVE),
    "obs.tracing_overhead": ("traced / untraced latency_p50_ms", "all"),
    "obs.layer_coverage": ("share of op latency layers explain", "all"),
}

#: Spans whose summed self time per traced unit is the metric
#: ``<span>_ms``.
SELF_TIME_SPANS = (
    "io.parse", "io.write", "pipeline.build", "prepare.linguistic",
    "prepare.tree", "linguistic.lsim", "treematch.first_pass",
    "treematch.second_pass", "mapping.leaf", "mapping.nonleaf",
    "runtime.gc",
)

#: Recorder counts reported per traced unit under their own name.
PER_UNIT_COUNTS = (
    "linguistic.distinct_name_pairs", "treematch.compared_pairs",
    "treematch.scaled_pairs", "store.bytes.flat", "store.bytes.blocked",
    "parallel.sharded_ops", "runtime.gc_full_collections",
)

UNITS = {
    "ratio": ("linguistic.memo_hit_ratio", "treematch.leaf_pair_share",
              "treematch.second_pass_skip_ratio", "session.lsim_hit_ratio",
              "obs.tracing_overhead", "obs.layer_coverage"),
    "bytes": ("store.bytes.flat", "store.bytes.blocked",
              "repository.bytes_written_per_ingest"),
}


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    for unit, names in UNITS.items():
        if metric in names:
            return unit
    return "count"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(trace: Dict[str, Any], units: int,
                  traced_ms: List[float], untraced_ms: List[float],
                  client_ms: float) -> Tuple[Dict, Dict]:
    """Per-layer metrics plus the per-layer self-time table.

    ``units`` is the number of traced ops/requests the spans cover,
    ``client_ms`` their summed client-observed latency.
    """
    counts = defaultdict(float, trace["counts"])
    by_name: Dict[str, float] = defaultdict(float)
    by_layer: Dict[str, float] = defaultdict(float)
    for name, _, self_ns, _ in self_times(trace["spans"]):
        by_name[name] += self_ns / 1e6
        by_layer[layer_of(name)] += self_ns / 1e6
    metrics = {name: 0.0 for name in MOVES}
    for name in SELF_TIME_SPANS:
        metrics[name + "_ms"] = _ratio(by_name[name], units)
    for name in PER_UNIT_COUNTS:
        metrics[name] = _ratio(counts[name], units)
    metrics["linguistic.memo_hit_ratio"] = _ratio(
        counts["linguistic.memo_hits"], counts["linguistic.memo_lookups"]
    )
    metrics["treematch.leaf_pair_share"] = _ratio(
        counts["treematch.leaf_pairs"], counts["treematch.compared_pairs"]
    )
    metrics["treematch.second_pass_skip_ratio"] = _ratio(
        counts["treematch.recompute_skipped"],
        counts["treematch.recompute_pairs"],
    )
    if traced_ms and untraced_ms:
        metrics["obs.tracing_overhead"] = (
            statistics.median(traced_ms) / statistics.median(untraced_ms)
        )
    attributed = sum(v for k, v in by_layer.items() if k != "unattributed")
    metrics["obs.layer_coverage"] = _ratio(attributed, client_ms)
    table = {
        layer: _ratio(ms, units) for layer, ms in sorted(by_layer.items())
    }
    return metrics, table


def serving_metrics(trace: Dict[str, Any], results: List[Dict[str, Any]],
                    stats: Dict[str, Any], metrics: Dict[str, float]) -> None:
    """Fill the serve-mixed-only metrics in place."""
    traced = [r for r in results if r["rid"].startswith("t")]
    searches = [r for r in traced if r["path"] == "/search"]
    ingests = [r for r in traced if r["path"] == "/ingest"]
    spans = trace["spans"]
    duration = {span[3]: span[2] - span[1] for span in spans}
    service: Dict[str, float] = {}
    queue_wait: List[float] = []
    for name, start, end, span_id, parent, rid, tid in spans:
        if name == "serving.search":
            service[rid] = (end - start) / 1e6
        elif name == "repository.search" and parent in duration:
            queue_wait.append((duration[parent] - (end - start)) / 1e6)
    edge = [
        r["ms"] - service[r["rid"]] for r in searches if r["rid"] in service
    ]
    metrics["serving.service_ms"] = _mean(list(service.values()))
    metrics["serving.queue_wait_ms"] = _mean(queue_wait)
    metrics["serving.edge_ms"] = _mean(edge)
    metrics["serving.ingest_p50_ms"] = (
        statistics.median([r["ms"] for r in ingests]) if ingests else 0.0
    )
    for metric, key in (("repository.index_ms", "time_index_ms"),
                        ("repository.candidate_match_ms", "time_match_ms")):
        metrics[metric] = _mean(
            [r["stats"][key] for r in searches if "stats" in r]
        )
    ingest_ns = sum(
        own for name, _, own, _ in self_times(spans)
        if name == "repository.ingest"
    )
    metrics["repository.ingest_ms"] = _ratio(ingest_ns / 1e6, len(ingests))
    metrics["repository.bytes_written_per_ingest"] = _ratio(
        trace["counts"].get("repository.ingest_bytes_written", 0.0),
        len(ingests),
    )
    repository = stats.get("repository", {})
    metrics["repository.compactions"] = repository.get(
        "segment_compactions", 0
    )
    metrics["repository.artifact_loads"] = repository.get("artifact_loads", 0)
    pool = stats.get("session_pool", {})
    metrics["session.prepared_schemas"] = pool.get("prepared_schemas", 0)
    metrics["session.cached_lsim_pairs"] = pool.get("cached_lsim_pairs", 0)
    metrics["session.lsim_hit_ratio"] = _ratio(
        pool.get("lsim_hits", 0),
        pool.get("lsim_hits", 0) + pool.get("lsim_misses", 0),
    )
    metrics["serving.rejected"] = sum(
        endpoint.get("rejected", 0)
        for endpoint in stats.get("endpoints", {}).values()
    )
