"""Engine parity: dense and reference engines must agree bit-for-bit.

The dense engine (``config.engine = "dense"``) replaces the TreeMatch
hot path with contiguous-array arithmetic and memoizes the linguistic
phase; the reference engine is the correctness oracle. Because the
dense paths apply exactly the same IEEE-754 double operations, the
two must produce *identical* (not merely close) lsim tables, wsim
values, and leaf/non-leaf mappings — these tests assert exact
equality, on the canonical dataset, the Figure 2 walkthrough,
rdb_star, and seeded generator schemas (including the join-view DAG
and depth-pruned-frontier configurations).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro import CupidMatcher
from repro.config import CupidConfig
from repro.datasets.canonical import canonical_examples
from repro.datasets.figure2 import figure2_po, figure2_purchase_order
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.datasets.rdb_star import rdb_schema, star_schema
from repro.mapping.generator import MappingGenerator
from repro.model.builder import SchemaBuilder
from repro.pipeline.pipeline import MatchPipeline
from repro.structure.dense import (
    DenseSimilarityStore,
    LeafPlaneWsim,
    numpy_available,
    resolve_backend,
)
from repro.structure.similarity import SimilarityStore
from repro.structure.treematch import TreeMatch
from repro.tree.schema_tree import SchemaTreeNode


def _mapping_signature(mapping):
    return sorted(
        (e.source_path, e.target_path, e.similarity) for e in mapping
    )


def _wsim_signature(result):
    """wsim values keyed by node *paths* (node ids differ across runs)."""
    source_paths = {n.node_id: n.path() for n in result.source_tree.nodes()}
    target_paths = {n.node_id: n.path() for n in result.target_tree.nodes()}
    return sorted(
        (source_paths[s], target_paths[t], value)
        for (s, t), value in result.treematch_result.wsim.items()
    )


def _run(source, target, engine, **overrides):
    config = CupidConfig(engine=engine, **overrides)
    return CupidMatcher(config=config).match(source, target)


def assert_parity(source, target, **overrides):
    dense = _run(source, target, "dense", **overrides)
    reference = _run(source, target, "reference", **overrides)

    assert sorted(dense.lsim_table.items()) == sorted(
        reference.lsim_table.items()
    )
    assert _wsim_signature(dense) == _wsim_signature(reference)
    assert _mapping_signature(dense.leaf_mapping) == _mapping_signature(
        reference.leaf_mapping
    )
    assert _mapping_signature(dense.nonleaf_mapping) == _mapping_signature(
        reference.nonleaf_mapping
    )
    tm_dense = dense.treematch_result
    tm_reference = reference.treematch_result
    assert tm_dense.compared_pairs == tm_reference.compared_pairs
    assert tm_dense.pruned_pairs == tm_reference.pruned_pairs
    assert tm_dense.scaled_pairs == tm_reference.scaled_pairs
    assert isinstance(tm_dense.sims, DenseSimilarityStore)
    assert not isinstance(tm_reference.sims, DenseSimilarityStore)
    return dense, reference


class TestCanonicalParity:
    @pytest.mark.parametrize("example_id", [1, 2, 3, 4, 5, 6])
    def test_canonical_example(self, example_id):
        example = canonical_examples()[example_id - 1]
        assert_parity(example.schema1, example.schema2)


class TestFigure2Parity:
    def test_figure2_walkthrough(self):
        assert_parity(figure2_po(), figure2_purchase_order())

    def test_figure2_stdlib_backend(self):
        assert_parity(
            figure2_po(), figure2_purchase_order(), dense_backend="stdlib"
        )

    def test_figure2_no_optional_discount(self):
        assert_parity(
            figure2_po(),
            figure2_purchase_order(),
            discount_optional_leaves=False,
        )


class TestRdbStarParity:
    def test_rdb_star(self):
        # Join-view augmentation turns both trees into DAGs, so this
        # exercises the gather (non-contiguous leaf slice) path.
        assert_parity(rdb_schema(), star_schema())

    def test_rdb_star_without_joins(self):
        assert_parity(rdb_schema(), star_schema(), use_refint_joins=False)

    def test_rdb_star_leaf_prune_depth(self):
        # Depth-pruned frontiers contain non-leaf stand-ins, forcing
        # the dense engine's fallback to the per-pair reference loop.
        assert_parity(rdb_schema(), star_schema(), leaf_prune_depth=2)


class TestGeneratedSchemasParity:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_perturbed_generated_schema(self, seed):
        generator = SchemaGenerator(seed=seed)
        schema = generator.generate(n_leaves=30, max_depth=3)
        copy, _ = generator.perturb(
            schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
        )
        assert_parity(schema, copy)

    def test_generated_schema_refint_dag(self):
        generator = SchemaGenerator(seed=7)
        schema = generator.generate(n_leaves=24, max_depth=3)
        copy, _ = generator.perturb(schema, PerturbationConfig())
        assert_parity(schema, copy, use_refint_joins=True)

    def test_generated_schema_leaf_prune_depth(self):
        generator = SchemaGenerator(seed=13)
        schema = generator.generate(n_leaves=24, max_depth=4)
        copy, _ = generator.perturb(schema, PerturbationConfig())
        assert_parity(schema, copy, leaf_prune_depth=1)

    def test_generated_schema_no_pruning(self):
        generator = SchemaGenerator(seed=5)
        schema = generator.generate(n_leaves=20, max_depth=3)
        copy, _ = generator.perturb(schema, PerturbationConfig())
        assert_parity(schema, copy, prune_by_leaf_count=False)


class TestDuplicateHeavyParity:
    """The distinct-name kernel must stay bit-identical where it pays
    off most: schemas whose names repeat heavily."""

    @pytest.mark.parametrize("seed", [7, 11])
    def test_repetition_workload(self, seed):
        generator = SchemaGenerator(seed=seed)
        schema = generator.generate(
            n_leaves=40, max_depth=3, name_repetition=0.8
        )
        copy, _ = generator.perturb(
            schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
        )
        assert_parity(schema, copy)

    def test_wide_star_shape(self):
        generator = SchemaGenerator(seed=11)
        schema = generator.generate(
            n_leaves=48, max_depth=2, fanout=12, name_repetition=0.9
        )
        copy, _ = generator.perturb(schema, PerturbationConfig())
        assert_parity(schema, copy)

    def test_repetition_stdlib_backend(self):
        generator = SchemaGenerator(seed=13)
        schema = generator.generate(
            n_leaves=36, max_depth=3, name_repetition=0.7
        )
        copy, _ = generator.perturb(schema, PerturbationConfig())
        assert_parity(schema, copy, dense_backend="stdlib")

    @pytest.mark.parametrize("repetition", [0.0, 0.8])
    def test_kernel_ablation_identical(self, repetition):
        """The dense engine's kernel and the reference engine's
        per-pair path agree exactly (same lsim items, same mappings) —
        the kernel is a pure reorganization of the same float
        computations."""
        generator = SchemaGenerator(seed=17)
        schema = generator.generate(
            n_leaves=35, max_depth=3, name_repetition=repetition
        )
        copy, _ = generator.perturb(
            schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
        )
        with_kernel = _run(schema, copy, "dense")
        without = _run(schema, copy, "reference")
        assert sorted(with_kernel.lsim_table.items()) == sorted(
            without.lsim_table.items()
        )
        assert _wsim_signature(with_kernel) == _wsim_signature(without)
        assert _mapping_signature(with_kernel.leaf_mapping) == (
            _mapping_signature(without.leaf_mapping)
        )
        assert _mapping_signature(with_kernel.nonleaf_mapping) == (
            _mapping_signature(without.nonleaf_mapping)
        )

    def test_kernel_produces_factored_table(self):
        from repro.linguistic.kernel import FactoredLsimTable

        example = canonical_examples()[0]
        dense = _run(example.schema1, example.schema2, "dense")
        reference = _run(example.schema1, example.schema2, "reference")
        assert isinstance(dense.lsim_table, FactoredLsimTable)
        assert not isinstance(reference.lsim_table, FactoredLsimTable)
        # Factored reads agree with the materialized dict form.
        for (id1, id2), value in reference.lsim_table.items():
            assert dense.lsim_table.get_by_id(id1, id2) == value


class TestBackendParity:
    """numpy and stdlib dense backends agree with each other too."""

    def test_backends_identical(self):
        source, target = figure2_po(), figure2_purchase_order()
        stdlib = _run(source, target, "dense", dense_backend="stdlib")
        auto = _run(source, target, "dense", dense_backend="auto")
        assert _wsim_signature(stdlib) == _wsim_signature(auto)
        assert _mapping_signature(stdlib.leaf_mapping) == _mapping_signature(
            auto.leaf_mapping
        )
        assert stdlib.treematch_result.sims.backend == "stdlib"
        expected = "numpy" if numpy_available() else "stdlib"
        assert auto.treematch_result.sims.backend == expected

    @pytest.mark.skipif(
        not numpy_available(), reason="numpy not installed"
    )
    def test_forced_numpy_backend(self):
        result = _run(
            figure2_po(),
            figure2_purchase_order(),
            "dense",
            dense_backend="numpy",
        )
        assert result.treematch_result.sims.backend == "numpy"

    def test_resolve_backend(self):
        assert resolve_backend("stdlib") == "stdlib"
        expected = "numpy" if numpy_available() else "stdlib"
        assert resolve_backend("auto") == expected


class TestVectorizedPaths:
    """Force the numpy vector paths (normally reserved for blocks of
    >= _VECTOR_MIN_CELLS cells) onto small schemas and re-assert
    parity, covering both the contiguous-slice and the join-view
    gather (np.ix_) branches."""

    @pytest.fixture(autouse=True)
    def _force_vectorization(self, monkeypatch):
        if not numpy_available():
            pytest.skip("numpy not installed")
        monkeypatch.setattr(DenseSimilarityStore, "_VECTOR_MIN_CELLS", 1)

    def test_figure2_all_vector(self):
        assert_parity(figure2_po(), figure2_purchase_order())

    def test_rdb_star_gather_vector(self):
        # Join-view DAG leaves are non-contiguous: np.ix_ gather path.
        assert_parity(rdb_schema(), star_schema())

    def test_generated_schema_vector(self):
        generator = SchemaGenerator(seed=17)
        schema = generator.generate(n_leaves=25, max_depth=3)
        copy, _ = generator.perturb(
            schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
        )
        assert_parity(schema, copy)


class TestDenseStoreBehaviour:
    def test_scalar_accessors_match_reference_defaults(self):
        """Dense matrix defaults equal the reference lazy defaults."""
        from repro.linguistic.matcher import LsimTable
        from repro.model.datatypes import default_compatibility_table
        from repro.tree.construction import construct_schema_tree

        source, target = figure2_po(), figure2_purchase_order()
        config = CupidConfig()
        compat = default_compatibility_table()
        source_tree = construct_schema_tree(source)
        target_tree = construct_schema_tree(target)
        table = LsimTable()
        dense = DenseSimilarityStore(
            table, config, compat, source_tree, target_tree
        )
        reference = SimilarityStore(table, config, compat)
        for s in source_tree.leaves():
            for t in target_tree.leaves():
                assert dense.ssim(s, t) == reference.ssim(s, t)
                assert dense.wsim(s, t) == reference.wsim(s, t)

    def test_set_and_scale_roundtrip(self):
        from repro.linguistic.matcher import LsimTable
        from repro.model.datatypes import default_compatibility_table
        from repro.tree.construction import construct_schema_tree

        source, target = figure2_po(), figure2_purchase_order()
        config = CupidConfig()
        source_tree = construct_schema_tree(source)
        target_tree = construct_schema_tree(target)
        dense = DenseSimilarityStore(
            LsimTable(),
            config,
            default_compatibility_table(),
            source_tree,
            target_tree,
        )
        s = source_tree.leaves()[0]
        t = target_tree.leaves()[0]
        dense.set_ssim(s, t, 0.7)
        assert dense.ssim(s, t) == 0.7
        dense.scale_ssim(s, t, 2.0)
        assert dense.ssim(s, t) == 1.0  # clamped
        # wsim reflects the update immediately.
        expected = (
            config.wstruct_leaf * 1.0
            + (1.0 - config.wstruct_leaf) * dense.lsim(s, t)
        )
        assert dense.wsim(s, t) == expected


# ----------------------------------------------------------------------
# Leaf plane: the dense first pass hoists every leaf×leaf pair into one
# plane operation; the loops and dicts only see pairs with a non-leaf.
# ----------------------------------------------------------------------

BACKENDS = ["stdlib"] + (["numpy"] if numpy_available() else [])


def _generated_pair(seed, n_leaves):
    generator = SchemaGenerator(seed=seed)
    schema = generator.generate(n_leaves=n_leaves, max_depth=3)
    copy, _ = generator.perturb(
        schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
    )
    return schema, copy


def _prepared(source, target, config):
    """Prepared trees, layouts and lsim table of one pair."""
    pipeline = MatchPipeline.default(config=config)
    prep_s = pipeline.prepare(source)
    prep_t = pipeline.prepare(target)
    table = pipeline.linguistic.compute_prepared(
        prep_s.linguistic, prep_t.linguistic
    )
    return pipeline, prep_s, prep_t, table


class TestNoContextParity:
    """``structural=no-context`` switches off both scaling sites (the
    leaf-plane operation and the per-pair block scaling) through one
    override; the dense engine must still equal the reference."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", ["figure2", "generated"])
    def test_no_context_matches_reference(self, case, backend):
        if case == "figure2":
            source, target = figure2_po(), figure2_purchase_order()
        else:
            # 64 leaves/side: a 4096-cell plane takes the numpy path.
            source, target = _generated_pair(11, 64)

        def run(**overrides):
            return (
                MatchPipeline.default(config=CupidConfig(**overrides))
                .with_variant("structural", "no-context")
                .run(source, target)
            )

        dense = run(dense_backend=backend)
        reference = run(engine="reference")
        assert _wsim_signature(dense) == _wsim_signature(reference)
        assert _mapping_signature(dense.leaf_mapping) == _mapping_signature(
            reference.leaf_mapping
        )
        assert _mapping_signature(
            dense.nonleaf_mapping
        ) == _mapping_signature(reference.nonleaf_mapping)
        tm_dense = dense.treematch_result
        tm_reference = reference.treematch_result
        assert tm_dense.scaled_pairs == 0
        assert tm_reference.scaled_pairs == 0
        assert tm_dense.compared_pairs == tm_reference.compared_pairs
        assert tm_dense.pruned_pairs == tm_reference.pruned_pairs


class TestLeafPlane:
    @staticmethod
    def _spy_store(monkeypatch):
        """Count calls of the per-pair and the wave store kernels."""
        calls = {}
        for name in (
            "scale_block", "structural_fraction", "wave_fractions",
            "scale_wave",
        ):
            original = getattr(DenseSimilarityStore, name)

            def spy(store, *args, _original=original, _name=name, **kw):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(store, *args, **kw)

            monkeypatch.setattr(DenseSimilarityStore, name, spy)
        return calls

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_first_pass_scales_only_pairs_with_a_nonleaf(
        self, backend, monkeypatch
    ):
        """On a generated 80-leaf pair of pure trees the first pass
        runs the leaf plane and then waves: no per-pair
        ``scale_block`` or ``structural_fraction`` call, no
        per-leaf-pair dict entry, and every leaf pair still
        compared."""
        source, target = _generated_pair(11, 80)
        config = CupidConfig(dense_backend=backend)
        pipeline, prep_s, prep_t, table = _prepared(source, target, config)
        calls = self._spy_store(monkeypatch)
        result = pipeline.treematch.run(
            prep_s.tree, prep_t.tree, table,
            source_layout=prep_s.leaf_layout,
            target_layout=prep_t.leaf_layout,
        )
        assert "scale_block" not in calls
        assert "structural_fraction" not in calls
        assert calls["wave_fractions"] > 1
        assert 0 < calls["scale_wave"] <= calls["wave_fractions"]
        assert result.waves == calls["wave_fractions"] + 1
        leaf_pairs = len(prep_s.tree.root.leaves()) * len(
            prep_t.tree.root.leaves()
        )
        wsim = result.wsim
        assert isinstance(wsim, LeafPlaneWsim)
        assert len(wsim.pairs) == result.compared_pairs - leaf_pairs
        assert len(wsim) == result.compared_pairs
        nodes_s = {n.node_id: n for n in prep_s.tree.nodes()}
        nodes_t = {n.node_id: n for n in prep_t.tree.nodes()}
        assert not any(
            nodes_s[s].is_leaf and nodes_t[t].is_leaf for s, t in wsim.pairs
        )
        # The second pass runs the same fraction kernel, wave by wave.
        calls.clear()
        pipeline.treematch.recompute_wsim(result)
        assert "structural_fraction" not in calls
        assert calls["wave_fractions"] == result.waves - 1
        assert result.recompute_pairs == len(wsim.pairs)

    def test_join_view_dag_takes_the_plane_loop(self, monkeypatch):
        """A join view and a table it joins share leaves at the same
        height, so a DAG keeps the leaf plane but visits the pairs
        with a non-leaf one at a time, in post-order."""
        config = CupidConfig()
        pipeline, prep_s, prep_t, table = _prepared(
            rdb_schema(), star_schema(), config
        )
        assert any(not n.pure for n in prep_s.tree.nodes())
        calls = self._spy_store(monkeypatch)
        result = pipeline.treematch.run(
            prep_s.tree, prep_t.tree, table,
            source_layout=prep_s.leaf_layout,
            target_layout=prep_t.leaf_layout,
        )
        assert isinstance(result.wsim, LeafPlaneWsim)
        assert result.waves == 0
        assert "wave_fractions" not in calls
        assert "scale_wave" not in calls
        assert calls["structural_fraction"] == len(result.wsim.pairs)
        pipeline.treematch.recompute_wsim(result)
        assert "wave_fractions" not in calls

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_plane_op_equals_per_cell_scale_block(
        self, vectorized, monkeypatch
    ):
        """``scale_leaf_plane`` leaves every cell and count where one
        1×1 ``scale_block`` per leaf pair would."""
        if vectorized:
            if not numpy_available():
                pytest.skip("numpy not installed")
            monkeypatch.setattr(DenseSimilarityStore, "_VECTOR_MIN_CELLS", 1)
        source, target = _generated_pair(3, 30)
        config = CupidConfig(dense_backend="numpy" if vectorized else "stdlib")
        pipeline, prep_s, prep_t, table = _prepared(source, target, config)

        def store():
            return DenseSimilarityStore(
                table, config, pipeline.compat, prep_s.tree, prep_t.tree
            )

        plane, cells = store(), store()
        count = plane.scale_leaf_plane(
            config.thhigh, config.thlow, config.cinc, config.cdec
        )
        expected = 0
        for x in prep_s.tree.root.leaves():
            for y in prep_t.tree.root.leaves():
                wsim = cells.wsim(x, y)
                if wsim > config.thhigh:
                    expected += cells.scale_block(x, y, config.cinc)
                elif wsim < config.thlow:
                    expected += cells.scale_block(x, y, config.cdec)
        assert count == expected > 0
        assert list(plane._S) == list(cells._S)
        assert list(plane._W) == list(cells._W)

    def test_wsim_map_contract(self):
        """``result.wsim`` answers get / [] / in / items() / len() like
        the reference engine's dict over the same trees."""
        source, target = _generated_pair(5, 40)
        pipeline, prep_s, prep_t, table = _prepared(
            source, target, CupidConfig()
        )
        dense = pipeline.treematch.run(prep_s.tree, prep_t.tree, table)
        pipeline.treematch.recompute_wsim(dense)
        oracle = TreeMatch(CupidConfig(engine="reference"))
        reference = oracle.run(prep_s.tree, prep_t.tree, table)
        oracle.recompute_wsim(reference)
        assert isinstance(dense.wsim, LeafPlaneWsim)
        assert len(dense.wsim) == len(reference.wsim)
        assert dict(dense.wsim.items()) == reference.wsim
        for key, value in reference.wsim.items():
            assert key in dense.wsim
            assert dense.wsim[key] == value
            assert dense.wsim.get(key) == value
        assert dense.pruned_pairs > 0
        pruned = next(
            (s.node_id, t.node_id)
            for s in prep_s.tree.nodes()
            for t in prep_t.tree.nodes()
            if (s.node_id, t.node_id) not in reference.wsim
        )
        assert pruned not in dense.wsim
        assert dense.wsim.get(pruned) is None
        with pytest.raises(KeyError):
            dense.wsim[pruned]

    def test_stale_layout_takes_the_pair_loop(self):
        """A tree grown after its layout was built has a leaf the plane
        does not hold: TreeMatch must visit pair by pair, and still
        equal the reference engine."""
        source, target = _generated_pair(3, 30)
        config = CupidConfig()
        pipeline, prep_s, prep_t, table = _prepared(source, target, config)
        layouts = (prep_s.leaf_layout, prep_t.leaf_layout)
        tree_s, tree_t = prep_s.tree, prep_t.tree
        parent = next(
            n for n in tree_s.postorder()
            if not n.is_leaf and any(c.is_leaf for c in n.children)
        )
        donor = next(c for c in parent.children if c.is_leaf)
        parent.add_child(SchemaTreeNode(donor.element))
        tree_s.reindex()

        dense_tm = pipeline.treematch
        dense = dense_tm.run(
            tree_s, tree_t, table,
            source_layout=layouts[0], target_layout=layouts[1],
        )
        oracle = TreeMatch(CupidConfig(engine="reference"))
        reference = oracle.run(tree_s, tree_t, table)
        assert type(dense.wsim) is dict
        assert dense.wsim == reference.wsim
        assert dense.compared_pairs == reference.compared_pairs
        assert dense.pruned_pairs == reference.pruned_pairs
        assert dense.scaled_pairs == reference.scaled_pairs
        generator = MappingGenerator(config)
        assert _mapping_signature(
            generator.leaf_mapping(dense)
        ) == _mapping_signature(generator.leaf_mapping(reference))
        assert _mapping_signature(
            generator.nonleaf_mapping(dense, dense_tm)
        ) == _mapping_signature(generator.nonleaf_mapping(reference, oracle))
        assert dense.wsim == reference.wsim


_RAGGED_WORDS = (
    "order", "customer", "city", "price", "amount", "name", "date",
    "street", "phone", "total", "line", "item", "region", "code",
)
_RAGGED_TYPES = ("string", "integer", "decimal", "date", "money")


def _ragged_pair(seed, n_leaves):
    """A pure-tree pair with uneven depths (leaves at every level, so
    waves hold leaf × non-leaf pairs), single-child chains (inner nodes
    with one leaf, or one inner child, below them) and optional inner
    nodes, against a perturbed copy."""
    rng = random.Random(seed)
    builder = SchemaBuilder(f"ragged{seed}")
    serial = itertools.count()

    def name():
        words = rng.sample(_RAGGED_WORDS, rng.choice((1, 2)))
        return "".join(w.capitalize() for w in words) + str(next(serial))

    inner = [(builder.root, 0)]
    childless = set()
    leaves = 0
    while leaves < n_leaves:
        parent, depth = inner[rng.randrange(len(inner))]
        if depth < 5 and rng.random() < 0.3:
            child = builder.add_child(
                parent, name(), optional=rng.random() < 0.25
            )
            inner.append((child, depth + 1))
            childless.add(id(child))
            if rng.random() < 0.3:
                # A chain: this node gets exactly one (inner) child.
                grandchild = builder.add_child(child, name())
                inner.remove((child, depth + 1))
                inner.append((grandchild, depth + 2))
                childless.discard(id(child))
                childless.add(id(grandchild))
        else:
            builder.add_leaf(
                parent, name(), rng.choice(_RAGGED_TYPES),
                optional=rng.random() < 0.2,
            )
            childless.discard(id(parent))
            leaves += 1
    for node, _ in inner:
        if id(node) in childless:
            builder.add_leaf(node, name(), rng.choice(_RAGGED_TYPES))
    schema = builder.schema
    copy, _ = SchemaGenerator(seed + 1).perturb(
        schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
    )
    return schema, copy


_FLOOR_VARIANTS = [("stdlib", None)] + (
    [("numpy", 1), ("numpy", 10 ** 9)] if numpy_available() else []
)


class TestWaveSchedule:
    """The wave schedule reorders the first pass's pairs with a non-leaf
    (``treematch``'s module docstring argues why that is exact). The
    same pure-tree pair run through the waves and through the
    one-pair-per-wave post-order loop that join-view DAGs take must
    leave every plane cell, non-leaf ssim, wsim entry (in key order)
    and counter identical — on both backends, with every wave forced
    through the numpy kernels (floor 1) and through the flat ones."""

    CASES = [
        ("ragged", 3, 40, {}),
        ("ragged", 8, 70, {}),
        ("ragged", 13, 30, {"prune_by_leaf_count": False}),
        ("ragged", 21, 50, {"discount_optional_leaves": False}),
        ("generated", 11, 60, {"prune_by_leaf_count": False}),
        ("generated", 5, 45, {"leaf_count_ratio": 3.0}),
    ]

    @staticmethod
    def _snapshot(result):
        sims = result.sims
        return {
            "S": bytes(sims._S),
            "W": bytes(sims._W),
            "ssim": dict(sims._ssim),
            "wsim": list(result.wsim.pairs.items()),
            "counters": (
                result.compared_pairs, result.pruned_pairs,
                result.scaled_pairs, result.recompute_pairs,
            ),
        }

    def _passes(self, pipeline, prep_s, prep_t, table):
        result = pipeline.treematch.run(
            prep_s.tree, prep_t.tree, table,
            source_layout=prep_s.leaf_layout,
            target_layout=prep_t.leaf_layout,
        )
        first = self._snapshot(result)
        pipeline.treematch.recompute_wsim(result)
        return result, first, self._snapshot(result)

    @pytest.mark.parametrize("backend, floor", _FLOOR_VARIANTS)
    @pytest.mark.parametrize("shape, seed, n_leaves, overrides", CASES)
    def test_waves_equal_post_order_loop(
        self, shape, seed, n_leaves, overrides, backend, floor, monkeypatch
    ):
        if floor is not None:
            monkeypatch.setattr(
                DenseSimilarityStore, "_VECTOR_MIN_CELLS", floor
            )
        make = _ragged_pair if shape == "ragged" else _generated_pair
        source, target = make(seed, n_leaves)
        config = CupidConfig(dense_backend=backend, **overrides)
        pipeline, prep_s, prep_t, table = _prepared(source, target, config)
        waved, wave_first, wave_second = self._passes(
            pipeline, prep_s, prep_t, table
        )
        assert waved.waves > 2
        heights = [n.subtree_depth() for n in prep_s.tree.nodes()]
        assert max(heights) >= 2
        monkeypatch.setattr(
            DenseSimilarityStore, "begin_waves", lambda *_: False
        )
        looped, loop_first, loop_second = self._passes(
            pipeline, prep_s, prep_t, table
        )
        assert looped.waves == 0
        assert wave_first == loop_first
        assert wave_second == loop_second
        assert wave_first["counters"][2] > 0

    def test_ragged_shapes_hold_what_the_argument_needs(self):
        """The ragged pairs do produce waves of leaf × non-leaf pairs,
        single-leaf inner nodes and optional inner nodes."""
        source, _ = _ragged_pair(3, 40)
        pipeline = MatchPipeline.default()
        tree = pipeline.prepare(source).tree
        inner = [n for n in tree.nodes() if not n.is_leaf]
        assert any(n.leaf_count() == 1 for n in inner)
        assert any(n.optional for n in inner)
        assert any(
            c.is_leaf for n in inner if n is not tree.root
            for c in n.children
        )
        assert any(c.is_leaf for c in tree.root.children)


class TestLeafMappingTieFallback:
    """A column whose best wsim is not clear of every other row by more
    than 2×epsilon falls back to the scalar scan with its ancestor
    tie-break. Canonical example 6 shares one Address type between
    shipping and billing, so its Name/Street/... columns tie."""

    @pytest.mark.parametrize(
        "backend, vectorized",
        [("stdlib", False)]
        + ([("numpy", False), ("numpy", True)] if numpy_available() else []),
    )
    def test_shared_type_tie_matches_reference(
        self, backend, vectorized, monkeypatch
    ):
        if vectorized:
            monkeypatch.setattr(DenseSimilarityStore, "_VECTOR_MIN_CELLS", 1)
        tie_breaks = []
        original = MappingGenerator._ancestors_prefer

        def spy(generator, challenger, incumbent, target, result):
            tie_breaks.append(target)
            return original(generator, challenger, incumbent, target, result)

        monkeypatch.setattr(MappingGenerator, "_ancestors_prefer", spy)
        example = canonical_examples()[5]
        dense = _run(
            example.schema1, example.schema2, "dense", dense_backend=backend
        )
        tm = dense.treematch_result
        columns = tm.sims.leaf_column_maxima(
            list(tm.source_tree.root.leaves()),
            tm.target_tree.root.leaves(),
            2 * MappingGenerator._TIE_EPSILON,
        )
        assert any(
            top >= CupidConfig().thaccept and not clear
            for top, _, clear in columns
        )
        assert tie_breaks
        reference = _run(example.schema1, example.schema2, "reference")
        assert _mapping_signature(dense.leaf_mapping) == _mapping_signature(
            reference.leaf_mapping
        )
