"""Second-pass parity: ``recompute_wsim`` against the reference engine.

The dense engine's second TreeMatch pass (Section 7) recomputes every
node pair with a non-leaf: in waves on pure trees, one pair at a time
in post-order on join-view DAGs and under ``leaf_prune_depth > 0``.
These cases once held an incremental pass, which skipped pairs whose
leaf blocks saw no ``thaccept`` crossing, to a forced full rescan; that
skip is gone, and the same cases now hold the single pass to the
reference engine's. On generated schemas (with and without numpy, with
and without name repetition), a join-view DAG, and depth-pruned
frontiers, the refreshed wsim map must be identical and cover the same
pairs, and nothing may be skipped.
"""

from __future__ import annotations

import pytest

from repro.config import CupidConfig
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.pipeline.pipeline import MatchPipeline
from repro.structure.dense import numpy_available


def _workload(seed, n_leaves=40, repetition=0.0):
    generator = SchemaGenerator(seed=seed)
    schema = generator.generate(
        n_leaves=n_leaves, max_depth=3, name_repetition=repetition
    )
    copy, _ = generator.perturb(
        schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
    )
    return schema, copy


def _recompute_signature(source, target, config):
    """Path-keyed refreshed wsim map of one first + second pass."""
    pipeline = MatchPipeline.default(config=config)
    prep_s = pipeline.prepare(source)
    prep_t = pipeline.prepare(target)
    table = pipeline.linguistic.compute_prepared(
        prep_s.linguistic, prep_t.linguistic
    )
    result = pipeline.treematch.run(
        prep_s.tree, prep_t.tree, table,
        source_layout=prep_s.leaf_layout,
        target_layout=prep_t.leaf_layout,
    )
    refreshed = pipeline.treematch.recompute_wsim(result)
    source_paths = {n.node_id: n.path() for n in prep_s.tree.nodes()}
    target_paths = {n.node_id: n.path() for n in prep_t.tree.nodes()}
    signature = sorted(
        (source_paths[s], target_paths[t], value)
        for (s, t), value in refreshed.items()
    )
    return signature, result


def _assert_second_pass_parity(source, target, **overrides):
    """Dense second pass == reference second pass; returns the dense
    result."""
    dense, dense_result = _recompute_signature(
        source, target, CupidConfig(**overrides)
    )
    reference, reference_result = _recompute_signature(
        source, target, CupidConfig(engine="reference", **overrides)
    )
    assert dense == reference
    assert dense_result.recompute_pairs == reference_result.recompute_pairs
    assert dense_result.recompute_pairs > 0
    assert dense_result.recompute_skipped == 0
    assert reference_result.recompute_skipped == 0
    return dense_result


BACKENDS = ["stdlib"] + (["numpy"] if numpy_available() else [])


class TestIncrementalMatchesFullRescan:
    """Named for the incremental pass these cases used to check; each
    now runs the single second pass against the reference engine."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_generated_schema(self, seed, backend):
        source, target = _workload(seed)
        result = _assert_second_pass_parity(
            source, target, dense_backend=backend
        )
        # Pure trees: both passes ran in waves.
        assert result.waves > 0

    @pytest.mark.parametrize("seed", [7, 19])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_heavy_schema(self, seed, backend):
        source, target = _workload(seed, n_leaves=50, repetition=0.8)
        _assert_second_pass_parity(source, target, dense_backend=backend)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_matches_reference_engine(self, seed):
        """End to end: the wsim map the mapping stage leaves on the
        result, and both mappings, equal the reference engine's."""
        source, target = _workload(seed)

        def run(engine):
            result = MatchPipeline.default(
                config=CupidConfig(engine=engine)
            ).run(source, target)
            paths_s = {n.node_id: n.path() for n in result.source_tree.nodes()}
            paths_t = {n.node_id: n.path() for n in result.target_tree.nodes()}
            wsim = sorted(
                (paths_s[s], paths_t[t], value)
                for (s, t), value in result.treematch_result.wsim.items()
            )
            mappings = [
                sorted(
                    (e.source_path, e.target_path, e.similarity)
                    for e in mapping
                )
                for mapping in (result.leaf_mapping, result.nonleaf_mapping)
            ]
            return wsim, mappings, result.treematch_result

        dense_wsim, dense_maps, dense = run("dense")
        ref_wsim, ref_maps, reference = run("reference")
        assert dense_wsim == ref_wsim
        assert dense_maps == ref_maps
        assert dense.recompute_pairs == reference.recompute_pairs

    def test_join_view_dag(self):
        """Gather-list (non-contiguous) leaf indices: the per-pair
        second pass."""
        from repro.datasets.rdb_star import rdb_schema, star_schema

        result = _assert_second_pass_parity(rdb_schema(), star_schema())
        assert result.waves == 0

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("seed", [5, 11])
    def test_leaf_prune_depth_incremental_parity(self, seed, depth):
        """Depth-pruned frontiers read the non-leaf wsims of their
        stand-ins, which the second pass itself rewrites, so it runs
        pair by pair in post-order and must still equal the
        reference."""
        source, target = _workload(seed, n_leaves=30)
        result = _assert_second_pass_parity(
            source, target, leaf_prune_depth=depth
        )
        assert result.waves == 0

    def test_leaf_prune_depth_matches_reference(self):
        """Both fallbacks at once: a join-view DAG with a depth-pruned
        frontier."""
        from repro.datasets.rdb_star import rdb_schema, star_schema

        _assert_second_pass_parity(
            rdb_schema(), star_schema(), leaf_prune_depth=1
        )
