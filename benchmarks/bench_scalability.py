"""E9 — scalability sweep (Section 10 lists this as required future
work; we provide the analysis on synthetic schemas).

Matches a generated schema against a perturbed copy at increasing
sizes, reporting wall time, compared pairs, and match quality, so the
O(n²·L²)-ish cost of the post-order double loop is visible — and the
effect of leaf-count pruning on it.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import CupidMatcher
from repro.config import CupidConfig
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.eval.metrics import evaluate_mapping
from repro.eval.reporting import render_table

SIZES = [10, 20, 40, 80, 160]

#: Sizes used for the dense-vs-reference engine comparison (the
#: reference engine is O(N²·L²) with big constants; 160 leaves/side is
#: already >1 s per reference run).
ENGINE_COMPARISON_SIZES = [20, 40, 80, 160]

#: Acceptance floor: at 80 leaves/side the dense engine must be at
#: least this much faster than the reference engine in the same run.
REQUIRED_SPEEDUP_AT_80 = 3.0

#: Repetition axis of the engine comparison: name-repetition factors
#: the duplicate-heavy records sweep (0.0 = every name distinct).
REPETITION_AXIS = [0.0, 0.9]

#: Duplicate-heavy workload shape for the linguistic-kernel ablation:
#: wide, shallow trees (star-schema-like fact tables) whose element
#: names repeat with this probability.
KERNEL_REPETITION = 0.9
KERNEL_SIZES = [80, 160, 320]

#: Acceptance floor: at the largest duplicate-heavy size the reference
#: engine runs at, the dense engine's linguistic phase (the
#: distinct-name kernel) must beat the reference engine's per-pair
#: path by this factor.
REQUIRED_KERNEL_SPEEDUP = 2.0

#: The reference engine is ~20x slower on this workload; it runs only
#: up to this size.
KERNEL_REFERENCE_MAX_SIZE = 160


def _workload(n_leaves, seed=11, repetition=0.0):
    generator = SchemaGenerator(seed=seed)
    schema = generator.generate(
        n_leaves=n_leaves, max_depth=3, name_repetition=repetition
    )
    copy, gold = generator.perturb(
        schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
    )
    return schema, copy, gold


def _repetition_workload(n_leaves, repetition=KERNEL_REPETITION, seed=11):
    """Duplicate-heavy wide workload (see KERNEL_REPETITION)."""
    generator = SchemaGenerator(seed=seed)
    schema = generator.generate(
        n_leaves=n_leaves, max_depth=2, fanout=12,
        name_repetition=repetition,
    )
    copy, gold = generator.perturb(
        schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
    )
    return schema, copy, gold


def test_scalability_sweep(publish):
    rows = []
    for size in SIZES:
        schema, copy, gold = _workload(size)
        start = time.perf_counter()
        result = CupidMatcher().match(schema, copy)
        elapsed = time.perf_counter() - start
        quality = evaluate_mapping(result.leaf_mapping, gold)
        rows.append(
            [
                size,
                f"{elapsed * 1000:.1f} ms",
                result.treematch_result.compared_pairs,
                result.treematch_result.pruned_pairs,
                f"{quality.recall:.2f}",
            ]
        )
    publish(
        "scalability",
        render_table(
            ["Leaves/side", "Wall time", "Pairs compared",
             "Pairs pruned", "Recall"],
            rows,
            title="E9 — scalability on synthetic schemas",
        ),
    )
    # Quality should not collapse with size.
    assert all(float(row[4]) >= 0.7 for row in rows)


def _timed_match(config, schema, copy, repeats=2):
    """Best-of-N match, returning (wall seconds, result)."""
    best_time = None
    result = None
    for _ in range(repeats):
        matcher = CupidMatcher(config=config)
        start = time.perf_counter()
        result = matcher.match(schema, copy)
        elapsed = time.perf_counter() - start
        if best_time is None or elapsed < best_time:
            best_time = elapsed
    return best_time, result


def _mapping_signature(mapping):
    return sorted(
        (e.source_path, e.target_path, e.similarity) for e in mapping
    )


def test_engine_comparison(publish, results_dir):
    """Dense vs reference engines: wall time, per-phase breakdown.

    Sweeps both size and the name-repetition axis (duplicate-heavy
    schemas exercise the distinct-name kernel), publishes the rendered
    table and BENCH_scalability_engines.json (the machine-readable
    speedup trajectory), and asserts the acceptance floor: >= 3x at 80
    leaves/side, with identical mappings.
    """
    rows = []
    records = []
    speedup_at_80 = None
    for size in ENGINE_COMPARISON_SIZES:
        for repetition in REPETITION_AXIS:
            schema, copy, _ = _workload(size, repetition=repetition)
            engine_results = {}
            for engine in ("dense", "reference"):
                config = CupidConfig(engine=engine)
                elapsed, result = _timed_match(config, schema, copy)
                engine_results[engine] = (elapsed, result)
                timings = result.timings
                rows.append(
                    [
                        size,
                        repetition,
                        engine,
                        f"{timings['linguistic'] * 1000:.1f} ms",
                        f"{timings['treematch'] * 1000:.1f} ms",
                        f"{timings['mapping'] * 1000:.1f} ms",
                        f"{elapsed * 1000:.1f} ms",
                        result.treematch_result.compared_pairs,
                    ]
                )
                records.append(
                    {
                        "size": size,
                        "repetition": repetition,
                        "engine": engine,
                        "backend": getattr(
                            result.treematch_result.sims, "backend", "dict"
                        ),
                        "linguistic_ms": round(
                            timings["linguistic"] * 1000, 2
                        ),
                        "treematch_ms": round(
                            timings["treematch"] * 1000, 2
                        ),
                        "mapping_ms": round(timings["mapping"] * 1000, 2),
                        "total_ms": round(elapsed * 1000, 2),
                        "compared_pairs": (
                            result.treematch_result.compared_pairs
                        ),
                        "scaled_pairs": result.treematch_result.scaled_pairs,
                    }
                )
            dense_time, dense_result = engine_results["dense"]
            reference_time, reference_result = engine_results["reference"]
            # The dense engine must be a pure speedup: same mappings.
            assert _mapping_signature(dense_result.leaf_mapping) == (
                _mapping_signature(reference_result.leaf_mapping)
            )
            speedup = reference_time / dense_time
            records.append(
                {
                    "size": size,
                    "repetition": repetition,
                    "speedup_dense_vs_reference": round(speedup, 2),
                }
            )
            rows.append(
                [size, repetition, "speedup", "", "", "",
                 f"{speedup:.2f}x", ""]
            )
            if size == 80 and repetition == 0.0:
                speedup_at_80 = speedup

    publish(
        "scalability_engines",
        render_table(
            ["Leaves/side", "Repetition", "Engine", "Linguistic",
             "TreeMatch", "Mapping", "Total", "Pairs"],
            rows,
            title="Dense vs reference engine (per-phase wall time)",
        ),
    )
    json_path = os.path.join(results_dir, "BENCH_scalability_engines.json")
    with open(json_path, "w") as handle:
        json.dump(records, handle, indent=2)
    print(f"[written to {json_path}]")

    assert speedup_at_80 is not None
    assert speedup_at_80 >= REQUIRED_SPEEDUP_AT_80, (
        f"dense engine only {speedup_at_80:.2f}x faster than reference at "
        f"80 leaves/side (required {REQUIRED_SPEEDUP_AT_80}x)"
    )


def test_linguistic_kernel_speedup(publish, results_dir):
    """Distinct-name kernel vs the per-pair path on the duplicate-heavy
    workload.

    The dense engine (always the kernel) against the reference
    engine's per-element-pair linguistic phase, up to
    KERNEL_REFERENCE_MAX_SIZE. Mappings must be identical everywhere;
    at the largest size the reference runs at, the kernel must cut the
    linguistic phase by REQUIRED_KERNEL_SPEEDUP x. Publishes the table
    and BENCH_linguistic_kernel.json.
    """
    rows = []
    records = []
    kernel_speedup_at_largest = None
    largest = max(
        size for size in KERNEL_SIZES if size <= KERNEL_REFERENCE_MAX_SIZE
    )
    for size in KERNEL_SIZES:
        schema, copy, _ = _repetition_workload(size)
        variants = [("dense+kernel", CupidConfig())]
        if size <= KERNEL_REFERENCE_MAX_SIZE:
            variants.append(("reference", CupidConfig(engine="reference")))
        timings = {}
        results = {}
        for label, config in variants:
            elapsed, result = _timed_match(config, schema, copy)
            linguistic_ms = result.timings["linguistic"] * 1000
            timings[label] = linguistic_ms
            results[label] = result
            record = {
                "size": size,
                "repetition": KERNEL_REPETITION,
                "variant": label,
                "linguistic_ms": round(linguistic_ms, 2),
                "total_ms": round(elapsed * 1000, 2),
            }
            stats = getattr(result.lsim_table, "kernel_stats", None)
            if stats:
                record.update(
                    vocab_names=(
                        stats["vocab_source_names"],
                        stats["vocab_target_names"],
                    ),
                    kernel_hit_rate=round(stats["kernel_hit_rate"], 4),
                    kernel_element_pairs=stats["kernel_element_pairs"],
                    kernel_distinct_name_pairs=(
                        stats["kernel_distinct_name_pairs"]
                    ),
                )
            records.append(record)
            rows.append(
                [size, label, f"{linguistic_ms:.1f} ms",
                 f"{elapsed * 1000:.1f} ms"]
            )
        baseline = _mapping_signature(results["dense+kernel"].leaf_mapping)
        for label, result in results.items():
            assert _mapping_signature(result.leaf_mapping) == baseline, (
                f"{label} changed the mapping at size {size}"
            )
        if "reference" not in timings:
            continue
        speedup = timings["reference"] / timings["dense+kernel"]
        records.append(
            {
                "size": size,
                "repetition": KERNEL_REPETITION,
                "kernel_linguistic_speedup": round(speedup, 2),
            }
        )
        rows.append([size, "kernel speedup", f"{speedup:.2f}x", ""])
        if size == largest:
            kernel_speedup_at_largest = speedup

    publish(
        "scalability_kernel",
        render_table(
            ["Leaves/side", "Variant", "Linguistic", "Total"],
            rows,
            title=(
                "Distinct-name kernel on the duplicate-heavy workload "
                f"(name repetition {KERNEL_REPETITION})"
            ),
        ),
    )
    json_path = os.path.join(results_dir, "BENCH_linguistic_kernel.json")
    with open(json_path, "w") as handle:
        json.dump(records, handle, indent=2)
    print(f"[written to {json_path}]")

    assert kernel_speedup_at_largest is not None
    assert kernel_speedup_at_largest >= REQUIRED_KERNEL_SPEEDUP, (
        f"distinct-name kernel only {kernel_speedup_at_largest:.2f}x on "
        f"the linguistic phase at {largest} leaves/side "
        f"(required {REQUIRED_KERNEL_SPEEDUP}x)"
    )


def test_stdlib_fallback_speedup(publish):
    """The pure-stdlib dense backend must also beat the reference
    engine (no hard numpy dependency for the speedup)."""
    schema, copy, _ = _workload(80)
    stdlib_time, stdlib_result = _timed_match(
        CupidConfig(engine="dense", dense_backend="stdlib"), schema, copy
    )
    reference_time, reference_result = _timed_match(
        CupidConfig(engine="reference"), schema, copy
    )
    assert stdlib_result.treematch_result.sims.backend == "stdlib"
    assert _mapping_signature(stdlib_result.leaf_mapping) == (
        _mapping_signature(reference_result.leaf_mapping)
    )
    publish(
        "scalability_stdlib_fallback",
        render_table(
            ["Setting", "Wall time"],
            [
                ["dense (stdlib arrays)", f"{stdlib_time * 1000:.1f} ms"],
                ["reference", f"{reference_time * 1000:.1f} ms"],
            ],
            title="Pure-stdlib dense fallback at 80 leaves/side",
        ),
    )
    assert stdlib_time < reference_time


def test_match_throughput_small(benchmark):
    schema, copy, _ = _workload(20)
    matcher = CupidMatcher()
    benchmark(matcher.match, schema, copy)


def test_match_throughput_medium(benchmark):
    schema, copy, _ = _workload(60)
    matcher = CupidMatcher()
    benchmark(matcher.match, schema, copy)


def test_pruning_speeds_up_large_match(publish):
    schema, copy, gold = _workload(80)
    pruned_matcher = CupidMatcher()
    unpruned_matcher = CupidMatcher(
        config=CupidConfig(prune_by_leaf_count=False)
    )

    start = time.perf_counter()
    pruned = pruned_matcher.match(schema, copy)
    pruned_time = time.perf_counter() - start

    start = time.perf_counter()
    unpruned = unpruned_matcher.match(schema, copy)
    unpruned_time = time.perf_counter() - start

    publish(
        "scalability_pruning",
        render_table(
            ["Setting", "Wall time", "Pairs compared"],
            [
                ["pruning on", f"{pruned_time * 1000:.1f} ms",
                 pruned.treematch_result.compared_pairs],
                ["pruning off", f"{unpruned_time * 1000:.1f} ms",
                 unpruned.treematch_result.compared_pairs],
            ],
            title="Pruning effect at 80 leaves/side",
        ),
    )
    assert pruned.treematch_result.compared_pairs < (
        unpruned.treematch_result.compared_pairs
    )
