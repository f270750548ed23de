"""Dirty-set incremental recompute_wsim parity.

The dense engine's second TreeMatch pass skips node pairs whose leaf
blocks provably saw no thaccept crossing since their first-pass visit
(:meth:`DenseSimilarityStore.block_dirty_since`). These tests assert
the property that makes the skip sound: on generated schemas (with and
without numpy, with and without name repetition), the incremental pass
produces *exactly* the map a forced full rescan produces, which in turn
matches the reference engine's always-full rescan.
"""

from __future__ import annotations

import pytest

from repro.config import CupidConfig
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.pipeline.pipeline import MatchPipeline
from repro.structure.dense import DenseSimilarityStore, numpy_available


def _workload(seed, n_leaves=40, repetition=0.0):
    generator = SchemaGenerator(seed=seed)
    schema = generator.generate(
        n_leaves=n_leaves, max_depth=3, name_repetition=repetition
    )
    copy, _ = generator.perturb(
        schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
    )
    return schema, copy


def _recompute_signature(source, target, config, force_full):
    """Path-keyed refreshed wsim map of one full match + second pass."""
    pipeline = MatchPipeline.default(config=config)
    prep_s = pipeline.prepare(source)
    prep_t = pipeline.prepare(target)
    table = pipeline.linguistic.compute_prepared(
        prep_s.linguistic, prep_t.linguistic
    )
    result = pipeline.treematch.run(prep_s.tree, prep_t.tree, table)
    refreshed = pipeline.treematch.recompute_wsim(
        result, force_full=force_full
    )
    source_paths = {n.node_id: n.path() for n in prep_s.tree.nodes()}
    target_paths = {n.node_id: n.path() for n in prep_t.tree.nodes()}
    signature = sorted(
        (source_paths[s], target_paths[t], value)
        for (s, t), value in refreshed.items()
    )
    return signature, result


BACKENDS = ["stdlib"] + (["numpy"] if numpy_available() else [])


class TestIncrementalMatchesFullRescan:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_generated_schema(self, seed, backend):
        source, target = _workload(seed)
        config = CupidConfig(dense_backend=backend)
        incremental, inc_result = _recompute_signature(
            source, target, config, force_full=False
        )
        full, full_result = _recompute_signature(
            source, target, config, force_full=True
        )
        assert incremental == full
        assert inc_result.recompute_pairs == full_result.recompute_pairs
        # force_full must really disable the skip.
        assert full_result.recompute_skipped == 0
        assert full_result.recompute_dirty == full_result.recompute_pairs

    @pytest.mark.parametrize("seed", [7, 19])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_heavy_schema(self, seed, backend):
        source, target = _workload(seed, n_leaves=50, repetition=0.8)
        config = CupidConfig(dense_backend=backend)
        incremental, _ = _recompute_signature(
            source, target, config, force_full=False
        )
        full, _ = _recompute_signature(
            source, target, config, force_full=True
        )
        assert incremental == full

    @pytest.mark.parametrize("seed", [3, 11])
    def test_matches_reference_engine(self, seed):
        source, target = _workload(seed)
        incremental, _ = _recompute_signature(
            source, target, CupidConfig(), force_full=False
        )
        reference, reference_result = _recompute_signature(
            source, target, CupidConfig(engine="reference"),
            force_full=False,
        )
        assert incremental == reference
        # The reference engine never skips: it is the oracle.
        assert reference_result.recompute_skipped == 0

    def test_join_view_dag(self):
        """Gather-list (non-contiguous) leaf indices stay sound."""
        from repro.datasets.rdb_star import rdb_schema, star_schema

        incremental, _ = _recompute_signature(
            rdb_schema(), star_schema(), CupidConfig(), force_full=False
        )
        full, _ = _recompute_signature(
            rdb_schema(), star_schema(), CupidConfig(), force_full=True
        )
        assert incremental == full

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("seed", [5, 11])
    def test_leaf_prune_depth_incremental_parity(self, seed, depth):
        """Under leaf_prune_depth the skip is decided per pair: pairs
        whose frontier is fully real leaves (frontier == complete leaf
        set, every read covered by the crossing stamps) may skip; pairs
        with non-leaf stand-ins stand down. The incremental pass must
        still reproduce the forced full rescan exactly."""
        source, target = _workload(seed, n_leaves=30)
        config = CupidConfig(leaf_prune_depth=depth)
        incremental, inc_result = _recompute_signature(
            source, target, config, force_full=False
        )
        full, full_result = _recompute_signature(
            source, target, config, force_full=True
        )
        assert incremental == full
        assert inc_result.recompute_pairs == full_result.recompute_pairs
        assert full_result.recompute_skipped == 0

    def test_leaf_prune_depth_standdown_counter(self):
        """Stand-in frontier pairs are recomputed and counted, so
        --stats can explain a depressed skip rate under pruning."""
        source, target = _workload(5, n_leaves=30)
        _, result = _recompute_signature(
            source, target, CupidConfig(leaf_prune_depth=2),
            force_full=False,
        )
        # Shallow subtrees (frontier == real leaves) may now skip ...
        assert result.recompute_skipped > 0
        # ... deep ones must stand down, and be accounted for.
        assert result.recompute_standdown > 0
        assert (
            result.recompute_dirty + result.recompute_skipped
            == result.recompute_pairs
        )
        assert result.recompute_standdown <= result.recompute_dirty

    def test_leaf_prune_depth_matches_reference(self):
        """End to end: prune-depth incremental == the reference engine
        (which recomputes everything from dicts)."""
        source, target = _workload(11, n_leaves=30)
        incremental, _ = _recompute_signature(
            source, target, CupidConfig(leaf_prune_depth=1),
            force_full=False,
        )
        reference, _ = _recompute_signature(
            source, target,
            CupidConfig(leaf_prune_depth=1, engine="reference"),
            force_full=False,
        )
        assert incremental == reference


class TestDirtySetEffectiveness:
    def test_skips_clean_pairs(self):
        """On the standard perturbed workload a meaningful share of
        second-pass pairs is provably clean — the optimization must
        actually engage, not silently degrade to a full rescan."""
        source, target = _workload(11, n_leaves=80)
        _, result = _recompute_signature(
            source, target, CupidConfig(), force_full=False
        )
        assert isinstance(result.sims, DenseSimilarityStore)
        assert result.recompute_skipped > 0
        assert (
            result.recompute_dirty + result.recompute_skipped
            == result.recompute_pairs
        )

    def test_no_context_variant_skips_everything(self):
        """Without cinc/cdec scaling nothing ever crosses thaccept, so
        every pair is clean on the second pass."""
        source, target = _workload(3, n_leaves=30)
        pipeline = MatchPipeline.default().with_variant(
            "structural", "no-context"
        )
        prep_s = pipeline.prepare(source)
        prep_t = pipeline.prepare(target)
        table = pipeline.linguistic.compute_prepared(
            prep_s.linguistic, prep_t.linguistic
        )
        treematch = pipeline.get_stage("structural").treematch
        result = treematch.run(prep_s.tree, prep_t.tree, table)
        treematch.recompute_wsim(result)
        assert result.recompute_dirty == 0
        assert result.recompute_skipped == result.recompute_pairs
