"""Tests for categorization and the linguistic matcher (lsim)."""

import pytest

from repro.config import CupidConfig
from repro.linguistic.categorization import Categorizer
from repro.linguistic.matcher import LinguisticMatcher, LsimTable
from repro.linguistic.normalizer import Normalizer
from repro.model.builder import schema_from_tree
from repro.model.element import SchemaElement
from repro.structure.dense import numpy_available


@pytest.fixture
def categorizer(thesaurus, normalizer, config):
    return Categorizer(thesaurus, normalizer, config)


@pytest.fixture
def address_schema():
    return schema_from_tree(
        "S1",
        {
            "Address": {"Street": "string", "City": "string"},
            "Item": {"Price": "money", "Qty": "integer"},
        },
    )


class TestCategorization:
    def test_container_category(self, categorizer, address_schema):
        """Street and City grouped into a category keyed by Address."""
        categories = categorizer.categorize(address_schema)
        container_cats = [
            c for c in categories.values()
            if c.source == "container"
            and any(t.text == "address" for t in c.keywords)
        ]
        assert container_cats
        names = {m.name for m in container_cats[0].members}
        assert {"Street", "City"} <= names

    def test_dtype_category(self, categorizer, address_schema):
        categories = categorizer.categorize(address_schema)
        number_cat = categories.get("dtype:Number")
        assert number_cat is not None
        assert any(m.name == "Qty" for m in number_cat.members)

    def test_concept_category(self, categorizer, address_schema):
        categories = categorizer.categorize(address_schema)
        money_cat = categories.get("concept:money")
        assert money_cat is not None
        assert any(m.name == "Price" for m in money_cat.members)

    def test_name_token_categories(self, categorizer, address_schema):
        categories = categorizer.categorize(address_schema)
        assert "name:street" in categories

    def test_root_category_always_present(self, categorizer, address_schema):
        categories = categorizer.categorize(address_schema)
        assert "root" in categories
        assert address_schema.root in categories["root"].members

    def test_elements_can_join_multiple_categories(
        self, categorizer, address_schema
    ):
        categories = categorizer.categorize(address_schema)
        price_cats = [
            key for key, c in categories.items()
            if any(m.name == "Price" for m in c.members)
        ]
        assert len(price_cats) >= 3  # concept, dtype, container, name

    def test_not_instantiated_elements_skipped(self, categorizer):
        schema = schema_from_tree("S", {"A": {"x": "int"}})
        hidden = SchemaElement(name="Hidden", not_instantiated=True)
        schema.add_element(hidden)
        schema.add_containment(schema.root, hidden)
        categories = categorizer.categorize(schema)
        for category in categories.values():
            assert hidden not in category.members

    def test_dtype_categories_only_pair_with_dtype(self, categorizer):
        """Data types 'are used primarily to prune the matching'."""
        schema = schema_from_tree("S", {"Number": {"x": "int"}})
        categories = categorizer.categorize(schema)
        dtype = categories["dtype:Number"]
        name_cat = categories["name:number"]
        assert not categorizer.compatible(dtype, name_cat)

    def test_compatibility_uses_thns(self, categorizer, address_schema):
        categories = categorizer.categorize(address_schema)
        cat = categories["name:street"]
        assert categorizer.compatible(cat, cat)


class TestLsimTable:
    def test_default_zero(self):
        table = LsimTable()
        a = SchemaElement(name="A")
        b = SchemaElement(name="B")
        assert table.get(a, b) == 0.0

    def test_set_get(self):
        table = LsimTable()
        a = SchemaElement(name="A")
        b = SchemaElement(name="B")
        table.set(a, b, 0.7)
        assert table.get(a, b) == 0.7
        assert table.get_by_id(a.element_id, b.element_id) == 0.7

    def test_out_of_range_rejected(self):
        table = LsimTable()
        a = SchemaElement(name="A")
        b = SchemaElement(name="B")
        with pytest.raises(ValueError):
            table.set(a, b, 1.2)


class TestFactoredLsimTable:
    """Distinct-name kernel output: a profile matrix plus per-pair
    overrides, read as the reference engine's dict-form table."""

    @pytest.fixture
    def kernel_matcher(self, thesaurus):
        return LinguisticMatcher(thesaurus, CupidConfig(engine="dense"))

    def test_kernel_produces_factored_table(
        self, kernel_matcher, tiny_pair
    ):
        from repro.linguistic.kernel import FactoredLsimTable

        table = kernel_matcher.compute(*tiny_pair)
        assert isinstance(table, FactoredLsimTable)
        assert table.overrides == {}

    def test_factored_matches_reference_path(self, thesaurus, tiny_pair):
        kernel = LinguisticMatcher(
            thesaurus, CupidConfig(engine="dense")
        ).compute(*tiny_pair)
        plain = LinguisticMatcher(
            thesaurus, CupidConfig(engine="reference")
        ).compute(*tiny_pair)
        assert sorted(kernel.items()) == sorted(plain.items())
        assert len(kernel) == len(plain)

    def test_factored_reads_without_materializing(
        self, kernel_matcher, tiny_pair
    ):
        source, target = tiny_pair
        table = kernel_matcher.compute(source, target)
        qty = source.element_named("Qty")
        quantity = target.element_named("Quantity")
        assert table.get(qty, quantity) == pytest.approx(1.0)
        assert table.overrides == {}

    def test_set_writes_one_override_and_detaches(
        self, kernel_matcher, tiny_pair
    ):
        source, target = tiny_pair
        original = kernel_matcher.compute(source, target)
        matrix = original.profile_values.tobytes()
        before = dict(original.items())
        duplicate = original.copy()
        qty = source.element_named("Qty")
        cost = target.element_named("Cost")
        duplicate.set(qty, cost, 0.9)
        assert duplicate.overrides == {
            (qty.element_id, cost.element_id): 0.9
        }
        assert duplicate.get(qty, cost) == 0.9
        assert dict(duplicate.items()) == {
            **before, (qty.element_id, cost.element_id): 0.9
        }
        assert len(duplicate) == len(dict(duplicate.items()))
        # The matrix is shared and never written; the session-cached
        # original keeps no override (copy-on-write).
        assert duplicate.profile_values is original.profile_values
        assert original.profile_values.tobytes() == matrix
        assert original.overrides == {}
        assert original.get(qty, cost) != 0.9
        # A copy of the hinted table owns its overrides too.
        again = duplicate.copy()
        again.set(qty, cost, 0.5)
        assert duplicate.get(qty, cost) == 0.9

    def test_vocabulary_cached_on_preparation(
        self, kernel_matcher, tiny_pair
    ):
        source, target = tiny_pair
        prep = kernel_matcher.prepare(source)
        assert prep.vocabulary is None
        vocab = kernel_matcher.vocabulary(prep)
        assert prep.vocabulary is vocab
        assert kernel_matcher.vocabulary(prep) is vocab
        assert vocab.n_names > 0
        assert vocab.n_profiles >= vocab.n_names > 0

    def test_kernel_disabled_for_reference_engine(
        self, thesaurus, tiny_pair
    ):
        from repro.linguistic.kernel import FactoredLsimTable

        table = LinguisticMatcher(
            thesaurus, CupidConfig(engine="reference")
        ).compute(*tiny_pair)
        assert not isinstance(table, FactoredLsimTable)

    def test_kernel_serves_descriptions(self, thesaurus, tiny_pair):
        """Descriptions are overrides on the kernel's factored table,
        and the table reads as the reference engine's."""
        from repro.linguistic.kernel import FactoredLsimTable

        source, target = tiny_pair
        source.element_named("Qty").description = "units ordered"
        target.element_named("Cost").description = "number of units ordered"
        target.element_named("Quantity").description = "warehouse shelf"
        tables = {
            engine: LinguisticMatcher(
                thesaurus, CupidConfig(engine=engine, use_descriptions=True)
            ).compute(source, target)
            for engine in ("dense", "reference")
        }
        table = tables["dense"]
        assert isinstance(table, FactoredLsimTable)
        assert table.overrides
        assert sorted(table.items()) == sorted(tables["reference"].items())
        assert len(table) == len(tables["reference"])

    def test_kernel_stats_present(self, kernel_matcher, tiny_pair):
        table = kernel_matcher.compute(*tiny_pair)
        stats = table.kernel_stats
        assert stats["vocab_source_names"] > 0
        assert stats["kernel_distinct_name_pairs"] <= (
            stats["kernel_element_pairs"]
        )
        assert 0.0 <= stats["kernel_hit_rate"] <= 1.0


class TestBatchedNs:
    """The kernel's whole-cross-product ``ns`` vs per-pair scalar ns.

    The kernel computes ``ns(m1, m2)`` for every source name × target
    name at once — one matrix on numpy, flat-array loops on stdlib;
    every value must be bit-identical to the per-pair scalar ``ns`` of
    the module function.
    """

    @pytest.fixture
    def wide_pair(self):
        from repro.datasets.generator import (
            PerturbationConfig,
            SchemaGenerator,
        )

        generator = SchemaGenerator(seed=77)
        schema = generator.generate(
            n_leaves=60, max_depth=3, name_repetition=0.4
        )
        other, _ = generator.perturb(
            schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
        )
        return schema, other

    def _table(self, thesaurus, wide_pair, **overrides):
        config = CupidConfig(**overrides)
        return LinguisticMatcher(thesaurus, config).compute(*wide_pair)

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_batched_matches_scalar(self, thesaurus, config, wide_pair):
        import numpy as np

        from repro.linguistic import kernel
        from repro.linguistic.name_similarity import (
            element_name_similarity,
        )

        matcher = LinguisticMatcher(thesaurus, config)
        source, target = (
            matcher.vocabulary(matcher.prepare(schema))
            for schema in wide_pair
        )
        s_tables, t_tables = source.token_tables(), target.token_tables()
        sims = np.frombuffer(
            matcher.memo.token_matrix(s_tables.texts, t_tables.texts)
        ).reshape(len(s_tables.texts), len(t_tables.texts))
        ns = kernel._ns_matrix(
            sims,
            kernel._ns_slots(config, s_tables, t_tables),
            source.n_names,
            target.n_names,
        )
        assert ns.shape == (source.n_names, target.n_names)
        nonzero = 0
        for i, name1 in enumerate(source.names):
            for j, name2 in enumerate(target.names):
                scalar = element_name_similarity(
                    name1, name2, thesaurus, config
                )
                assert ns[i, j] == scalar, (name1.raw, name2.raw)
                nonzero += scalar > 0.0
        assert nonzero > 0

    def test_batched_matches_scalar_stdlib(self, thesaurus, wide_pair):
        flat = self._table(thesaurus, wide_pair, dense_backend="stdlib")
        reference = self._table(thesaurus, wide_pair, engine="reference")
        assert sorted(flat.items()) == sorted(reference.items())
        assert flat.kernel_stats["kernel_distinct_name_pairs"] > 0

    def test_backends_agree_batched(self, thesaurus, wide_pair):
        vectorized = self._table(thesaurus, wide_pair)
        flat = self._table(thesaurus, wide_pair, dense_backend="stdlib")
        assert sorted(vectorized.items()) == sorted(flat.items())
        assert vectorized.kernel_stats == flat.kernel_stats


class TestLinguisticMatcher:
    def test_identical_leaf_names_get_full_lsim(self, thesaurus, tiny_pair):
        source, target = tiny_pair
        table = LinguisticMatcher(thesaurus).compute(source, target)
        qty = source.element_named("Qty")
        quantity = target.element_named("Quantity")
        assert table.get(qty, quantity) == pytest.approx(1.0)

    def test_synonym_pair_scores(self, thesaurus, tiny_pair):
        source, target = tiny_pair
        table = LinguisticMatcher(thesaurus).compute(source, target)
        price = source.element_named("Price")
        cost = target.element_named("Cost")
        assert table.get(price, cost) > 0.6

    def test_incomparable_pairs_absent(self, thesaurus):
        source = schema_from_tree("S1", {"A": {"Street": "string"}})
        target = schema_from_tree("S2", {"B": {"Quantity": "integer"}})
        table = LinguisticMatcher(thesaurus).compute(source, target)
        street = source.element_named("Street")
        quantity = target.element_named("Quantity")
        # Different broad types, no shared tokens, dissimilar containers.
        assert table.get(street, quantity) == 0.0

    def test_roots_are_comparable(self, thesaurus):
        source = schema_from_tree("PO", {"A": {"x": "int"}})
        target = schema_from_tree("PurchaseOrder", {"A": {"x": "int"}})
        table = LinguisticMatcher(thesaurus).compute(source, target)
        assert table.get(source.root, target.root) == pytest.approx(1.0)

    def test_all_values_in_unit_interval(self, thesaurus, po_schema,
                                          purchase_order_schema):
        table = LinguisticMatcher(thesaurus).compute(
            po_schema, purchase_order_schema
        )
        for _, value in table.items():
            assert 0.0 <= value <= 1.0

    def test_figure2_acronyms(self, thesaurus, po_schema,
                              purchase_order_schema):
        """UoM↔UnitOfMeasure and Qty↔Quantity from Section 4."""
        table = LinguisticMatcher(thesaurus).compute(
            po_schema, purchase_order_schema
        )
        uom = po_schema.element_named("UoM")
        unit_of_measure = purchase_order_schema.element_named("UnitOfMeasure")
        assert table.get(uom, unit_of_measure) == pytest.approx(1.0)
