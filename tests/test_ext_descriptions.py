"""Tests for description-based matching (Section 10 future work)."""

import pytest

from repro import CupidConfig, CupidMatcher
from repro.exceptions import ConfigError
from repro.linguistic.thesaurus import empty_thesaurus
from repro.model.builder import SchemaBuilder


def _schemas_with_descriptions():
    """Cryptic names, informative data-dictionary annotations."""
    source = SchemaBuilder("Legacy")
    rec = source.add_child(source.root, "REC01")
    source.add_leaf(
        rec, "F1", "varchar",
        description="customer full name for billing",
    )
    source.add_leaf(
        rec, "F2", "varchar",
        description="street address of the customer",
    )
    source.add_leaf(rec, "F3", "integer")

    target = SchemaBuilder("Modern")
    customer = target.add_child(target.root, "Customer")
    target.add_leaf(
        customer, "Name", "varchar",
        description="the customer name used on invoices and bills",
    )
    target.add_leaf(
        customer, "Street", "varchar",
        description="customer street address",
    )
    target.add_leaf(customer, "Age", "integer")
    return source.schema, target.schema


class TestDescriptionMatching:
    def test_disabled_by_default(self):
        source, target = _schemas_with_descriptions()
        result = CupidMatcher(thesaurus=empty_thesaurus()).match(source, target)
        pairs = result.leaf_mapping.path_pairs()
        assert ("Legacy.REC01.F1", "Modern.Customer.Name") not in pairs

    def test_descriptions_rescue_cryptic_names(self):
        source, target = _schemas_with_descriptions()
        matcher = CupidMatcher(
            thesaurus=empty_thesaurus(),
            config=CupidConfig(use_descriptions=True),
        )
        result = matcher.match(source, target)
        pairs = result.leaf_mapping.path_pairs()
        assert ("Legacy.REC01.F1", "Modern.Customer.Name") in pairs
        assert ("Legacy.REC01.F2", "Modern.Customer.Street") in pairs

    def test_undescribed_elements_unaffected(self):
        source, target = _schemas_with_descriptions()
        matcher = CupidMatcher(
            thesaurus=empty_thesaurus(),
            config=CupidConfig(use_descriptions=True),
        )
        result = matcher.match(source, target)
        f3 = source.element_named("F3")
        age = target.element_named("Age")
        # No descriptions on either: lsim comes from names only (none).
        assert result.lsim_table.get(f3, age) == 0.0

    def test_description_weight_caps_contribution(self):
        source, target = _schemas_with_descriptions()
        config = CupidConfig(use_descriptions=True, description_weight=0.5)
        matcher = CupidMatcher(thesaurus=empty_thesaurus(), config=config)
        result = matcher.match(source, target)
        f1 = source.element_named("F1")
        name = target.element_named("Name")
        assert result.lsim_table.get(f1, name) <= 0.5

    def test_invalid_weight_rejected(self):
        with pytest.raises(ConfigError):
            CupidConfig(description_weight=1.5).validate()

    def test_thesaurus_used_inside_descriptions(self, thesaurus):
        """Synonyms apply to description words too (invoice ≈ bill)."""
        source, target = _schemas_with_descriptions()
        matcher = CupidMatcher(
            thesaurus=thesaurus,
            config=CupidConfig(use_descriptions=True),
        )
        result = matcher.match(source, target)
        f1 = source.element_named("F1")
        name = target.element_named("Name")
        assert result.lsim_table.get(f1, name) > 0.5

    def test_described_root_marked_not_instantiated(self):
        """Categorization holds the root even when it is marked not
        instantiated, so its description counts on both engines."""
        source, target = _schemas_with_descriptions()
        source.root.not_instantiated = True
        source.root.description = "purchase order document"
        target.root.description = "purchase order document"
        tables = [
            dict(
                CupidMatcher(
                    config=CupidConfig(engine=engine, use_descriptions=True)
                ).match(source, target).lsim_table.items()
            )
            for engine in ("dense", "reference")
        ]
        assert tables[0] == tables[1]
        roots = (source.root.element_id, target.root.element_id)
        assert tables[0][roots] == 0.9
