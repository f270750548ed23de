"""Perf-regression smoke for the duplicate-heavy repetition workload.

The recorded floor lives beside the batch-session benchmark results
(``benchmarks/results/BENCH_repetition_floor.json``): steady-state
``match_many`` on the name-repetition workload must finish under its
``floor_ms``. The ceiling is deliberately generous (~20x the recorded
measurement) — like ``test_perf_smoke``, this exists to catch
order-of-magnitude regressions in CI (the distinct-name kernel
silently disabled, TreeMatch falling back from waves to its per-pair
loop, session caches bypassed), not to benchmark. Real numbers live in
``benchmarks/bench_scalability.py`` and ``bench_batch_session.py``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import MatchSession
from repro.datasets.generator import PerturbationConfig, SchemaGenerator

pytestmark = pytest.mark.perf

_FLOOR_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir,
    "benchmarks", "results", "BENCH_repetition_floor.json",
)


@pytest.fixture(scope="module")
def floor_record():
    with open(_FLOOR_PATH) as handle:
        return json.load(handle)


def _workload(spec):
    generator = SchemaGenerator(seed=spec["seed"])
    source = generator.generate(
        n_leaves=spec["n_leaves"],
        max_depth=spec["max_depth"],
        fanout=spec["fanout"],
        name_repetition=spec["name_repetition"],
    )
    perturbation = PerturbationConfig(**spec["perturbation"])
    targets = []
    for i in range(spec["n_targets"]):
        perturber = SchemaGenerator(seed=spec["seed"] + 100 + i)
        copy, _ = perturber.perturb(source, perturbation)
        targets.append(copy)
    return source, targets


def test_repetition_steady_state_under_floor(floor_record):
    source, targets = _workload(floor_record["workload"])
    session = MatchSession()
    warm = session.match_many(source, targets)
    assert all(len(result.leaf_mapping) > 0 for result in warm)

    best = None
    for _ in range(2):
        start = time.perf_counter()
        session.match_many(source, targets)
        elapsed = (time.perf_counter() - start) * 1000.0
        if best is None or elapsed < best:
            best = elapsed

    floor_ms = floor_record["floor_ms"]
    assert best < floor_ms, (
        f"steady-state match_many on the repetition workload took "
        f"{best:.1f} ms (recorded floor {floor_ms} ms, last measured "
        f"{floor_record['measured_steady_state_ms']} ms) — a hot path "
        "has regressed badly"
    )


def test_repetition_workload_engages_kernel_caches(floor_record):
    """The floor only means something if the tiers it guards are on."""
    source, targets = _workload(floor_record["workload"])
    session = MatchSession()
    session.match_many(source, targets)
    info = session.cache_info()
    # Every prepared schema grew a distinct-name vocabulary table...
    assert info["vocabulary_tables"] == info["prepared_schemas"] > 0
    assert info["vocabulary_distinct_names"] > 0
    # ...and the workload is actually duplicate-heavy: far fewer
    # distinct names than elements.
    total_elements = sum(
        len(schema.elements) for schema in [source] + targets
    )
    assert info["vocabulary_distinct_names"] < total_elements / 2

    result = session.match(source, targets[0])
    stats = session.pipeline.run_stats(result)
    assert stats["kernel_hit_rate"] > 0.5
    # Pure generated trees: TreeMatch ran its wave schedule.
    assert stats["treematch_waves"] > 0
