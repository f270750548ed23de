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


_FK_SOURCE = """
CREATE TABLE Customer (
  CustomerID int PRIMARY KEY,
  Name varchar(40),
  Address varchar(60)
);
CREATE TABLE PurchaseOrder (
  OrderID int PRIMARY KEY,
  ProductName varchar(40),
  CustomerID int REFERENCES Customer(CustomerID)
);
"""

_FK_TARGET = """
CREATE TABLE Customer (
  CustID int PRIMARY KEY,
  CustomerName varchar(40),
  Address varchar(60)
);
CREATE TABLE Orders (
  OrderNo int PRIMARY KEY,
  Product varchar(40),
  CustID int REFERENCES Customer(CustID)
);
"""


def _join_views(tree):
    from repro.tree.refint import augment_with_join_views

    assert augment_with_join_views(tree)  # reindexes the tree


def _added_node(tree):
    from repro.model.element import SchemaElement
    from repro.tree.schema_tree import SchemaTreeNode

    parent = next(node for node in tree.postorder() if node.children)
    parent.add_child(SchemaTreeNode(SchemaElement(name="Nickname")))
    tree.reindex()


def _mutated_second_passes(source, target, mutate, **overrides):
    """First pass, ``mutate`` on both trees, then the second pass
    twice: the two path-keyed refreshed maps, and the result."""
    config = CupidConfig(use_refint_joins=False, **overrides)
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
    planned = result.wave_plan is not None
    mutate(prep_s.tree)
    mutate(prep_t.tree)
    source_paths = {n.node_id: n.path() for n in prep_s.tree.nodes()}
    target_paths = {n.node_id: n.path() for n in prep_t.tree.nodes()}
    maps = [
        sorted(
            (source_paths[s], target_paths[t], value)
            for (s, t), value in pipeline.treematch.recompute_wsim(
                result
            ).items()
        )
        for _ in range(2)
    ]
    return maps, result, planned


class TestPlanReuse:
    """The second pass reuses the first pass's wave plan only while
    both trees are the ones it was planned on."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_second_pass_runs_the_first_pass_plan(
        self, backend, monkeypatch
    ):
        from repro.structure.treematch import TreeMatch

        planned = []
        waves = TreeMatch._waves

        def counted(self, *args):
            planned.append(args)
            return waves(self, *args)

        monkeypatch.setattr(TreeMatch, "_waves", counted)
        source, target = _workload(3)
        result = MatchPipeline.default(
            config=CupidConfig(dense_backend=backend)
        ).run(source, target)
        assert result.treematch_result.waves > 0
        assert len(planned) == 1  # pure trees: one wave schedule
        assert result.treematch_result.wave_plan is None  # dropped

    @pytest.mark.parametrize(
        "workload, mutate",
        [("ddl", _join_views), ("ddl", _added_node),
         ("generated", _added_node)],
        ids=["ddl-join-views", "ddl-node", "generated-node"],
    )
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tree_mutated_between_passes(self, backend, workload, mutate):
        """A tree mutated between ``TreeMatch.run`` and
        ``recompute_wsim`` gets a plan of its own: the refreshed map
        equals the reference engine's for the same calls, and a
        second ``recompute_wsim`` gives the same map again."""
        from repro.io.sql_ddl import parse_sql_ddl

        if workload == "ddl":
            source = parse_sql_ddl(_FK_SOURCE, "S")
            target = parse_sql_ddl(_FK_TARGET, "T")
        else:
            source, target = _workload(11)
        (dense, again), dense_result, planned = _mutated_second_passes(
            source, target, mutate, dense_backend=backend
        )
        (reference, _), reference_result, _ = _mutated_second_passes(
            source, target, mutate, engine="reference"
        )
        assert planned  # the dense first pass left a plan to reject
        assert dense == reference
        assert again == dense
        assert dense_result.recompute_pairs == (
            reference_result.recompute_pairs
        )
