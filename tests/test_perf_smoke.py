"""Fast perf smoke (satellite of the dense-engine PR).

Budget-asserted at a deliberately generous ceiling: the point is to
catch order-of-magnitude regressions (e.g. the dense engine silently
falling back to per-pair probes) in CI, not to benchmark. The real
numbers live in ``benchmarks/bench_scalability.py``.
"""

from __future__ import annotations

import time

import pytest

from repro import CupidMatcher
from repro.config import CupidConfig
from repro.datasets.generator import PerturbationConfig, SchemaGenerator

pytestmark = pytest.mark.perf

#: Seconds allowed for a 40-leaf dense match (measured ~0.03 s; the
#: ceiling leaves two orders of magnitude of headroom for slow CI).
_BUDGET_SECONDS = 5.0


def _workload(n_leaves: int):
    generator = SchemaGenerator(seed=11)
    schema = generator.generate(n_leaves=n_leaves, max_depth=3)
    copy, _ = generator.perturb(
        schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
    )
    return schema, copy


def test_dense_match_within_budget():
    schema, copy = _workload(40)
    matcher = CupidMatcher()  # dense is the default engine
    start = time.perf_counter()
    result = matcher.match(schema, copy)
    elapsed = time.perf_counter() - start
    assert elapsed < _BUDGET_SECONDS, (
        f"40-leaf dense match took {elapsed:.2f}s (budget "
        f"{_BUDGET_SECONDS}s) — dense hot path has regressed badly"
    )
    assert result.treematch_result.engine == "dense"
    assert result.treematch_result.compared_pairs > 0


def test_stdlib_backend_within_budget():
    """The pure-stdlib fallback must stay usable, not just correct."""
    schema, copy = _workload(40)
    matcher = CupidMatcher(
        config=CupidConfig(dense_backend="stdlib")
    )
    start = time.perf_counter()
    matcher.match(schema, copy)
    elapsed = time.perf_counter() - start
    assert elapsed < _BUDGET_SECONDS


def test_run_stats_counters():
    """run_stats exposes the counters --stats prints, with sane values."""
    schema, copy = _workload(20)
    matcher = CupidMatcher()
    result = matcher.match(schema, copy)
    stats = matcher.run_stats(result)
    assert stats["engine"] == "dense"
    assert stats["store"] == "flat"
    assert stats["backend"] in ("numpy", "stdlib")
    assert stats["compared_pairs"] > 0
    assert stats["scaled_pairs"] > 0
    assert stats["lsim_entries"] == len(result.lsim_table)
    # The memoized linguistic phase must actually hit its caches. One
    # match resolves each token pair once (its first match is all
    # misses); a second match of the pair computes nothing new.
    again = matcher.run_stats(matcher.match(schema, copy))
    assert again["token_sim_misses"] == stats["token_sim_misses"] > 0
    assert again["token_sim_hits"] > stats["token_sim_hits"]
    assert 0.0 <= again["token_sim_hit_rate"] <= 1.0
    for phase in ("linguistic", "trees", "treematch", "mapping"):
        assert stats[f"time_{phase}_ms"] >= 0.0


def test_run_stats_names_the_treematch_path():
    """``treematch_waves`` counts the first pass's waves on pure trees
    and reads 0 where a per-pair loop ran: on a join-view DAG, and on
    the reference engine."""
    from repro.datasets.rdb_star import rdb_schema, star_schema

    schema, copy = _workload(20)
    matcher = CupidMatcher()
    stats = matcher.run_stats(matcher.match(schema, copy))
    assert stats["treematch_waves"] > 0
    assert stats["recompute_pairs"] > 0
    dag = matcher.run_stats(matcher.match(rdb_schema(), star_schema()))
    assert dag["treematch_waves"] == 0
    assert dag["recompute_pairs"] > 0
    reference = CupidMatcher(config=CupidConfig(engine="reference"))
    assert reference.run_stats(
        reference.match(schema, copy)
    )["treematch_waves"] == 0


def test_reference_engine_has_no_memo():
    matcher = CupidMatcher(config=CupidConfig(engine="reference"))
    assert matcher.linguistic.memo is None
    schema, copy = _workload(10)
    result = matcher.match(schema, copy)
    stats = matcher.run_stats(result)
    assert stats["engine"] == "reference"
    assert "token_sim_hits" not in stats
    assert "backend" not in stats
