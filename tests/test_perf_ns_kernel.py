"""Perf-regression smoke for the distinct-name ns kernel.

The recorded floor lives beside the benchmark results
(``benchmarks/results/BENCH_ns_kernel_floor.json``): the linguistic
phase on the sparse independent-pair workload must finish under its
``floor_ms`` on the default (kernel) path. Like
``test_perf_repetition``, the ceiling is generous (~20x the recorded
measurement) — it catches the kernel silently degenerating (the
cross-product matrix collapsing into per-pair Python, or the
workload falling off the kernel), not small drifts. Real numbers
live in ``benchmarks/bench_ns_kernel.py``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import CupidMatcher
from repro.config import CupidConfig
from repro.datasets.generator import SchemaGenerator
from repro.linguistic.kernel import FactoredLsimTable
from repro.linguistic.lexicon import builtin_thesaurus
from repro.linguistic.matcher import LinguisticMatcher

pytestmark = pytest.mark.perf

_FLOOR_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir,
    "benchmarks", "results", "BENCH_ns_kernel_floor.json",
)


@pytest.fixture(scope="module")
def floor_record():
    with open(_FLOOR_PATH) as handle:
        return json.load(handle)


def _workload(spec):
    source = SchemaGenerator(seed=spec["seed_source"]).generate(
        name="mediated",
        n_leaves=spec["n_leaves"],
        max_depth=spec["max_depth"],
    )
    target = SchemaGenerator(seed=spec["seed_target"]).generate(
        name="candidate",
        n_leaves=spec["n_leaves"],
        max_depth=spec["max_depth"],
    )
    return source, target


def test_batched_ns_under_floor(floor_record):
    source, target = _workload(floor_record["workload"])
    config = CupidConfig(thlow=0.0)

    best = None
    for _ in range(2):
        matcher = LinguisticMatcher(builtin_thesaurus(), config)
        start = time.perf_counter()
        matcher.compute(source, target)
        elapsed = (time.perf_counter() - start) * 1000.0
        if best is None or elapsed < best:
            best = elapsed

    floor_ms = floor_record["floor_ms"]
    assert best < floor_ms, (
        f"kernel linguistic phase took {best:.1f} ms (recorded floor "
        f"{floor_ms} ms, last measured "
        f"{floor_record['measured_batched_ms']} ms) — the kernel "
        "has regressed badly"
    )


def test_workload_engages_batched_ns(floor_record):
    """The floor only means something if the kernel is the path
    running: the match must produce a factored table without
    overrides that computed distinct name pairs on this workload."""
    source, target = _workload(floor_record["workload"])
    matcher = CupidMatcher(config=CupidConfig(thlow=0.0))
    result = matcher.match(source, target)
    assert isinstance(result.lsim_table, FactoredLsimTable)
    assert result.lsim_table.overrides == {}
    stats = matcher.run_stats(result)
    assert stats["kernel_distinct_name_pairs"] > 0
