"""Tests for the ER model and JSON serialization."""

import json

import pytest

from repro.exceptions import SchemaError
from repro.io.er_model import ERModel, er_model_from_schema
from repro.io.json_io import (
    mapping_to_dict,
    mapping_to_json,
    schema_from_dict,
    schema_from_json,
    schema_to_dict,
    schema_to_json,
)
from repro.io.sql_ddl import parse_sql_ddl
from repro.mapping.mapping import Mapping, MappingElement
from repro.model.builder import schema_from_tree
from repro.model.datatypes import DataType


class TestERModel:
    def test_entities_and_attributes(self):
        model = ERModel("M")
        customer = model.add_entity("Customer")
        customer.add_attribute("Name", DataType.STRING)
        customer.add_attribute("ID", DataType.INTEGER, is_key=True)
        assert len(model.entities) == 1
        assert model.entity("customer").attributes[1].is_key

    def test_duplicate_entity_rejected(self):
        model = ERModel("M")
        model.add_entity("Customer")
        with pytest.raises(SchemaError):
            model.add_entity("customer")

    def test_relationship_requires_known_entities(self):
        model = ERModel("M")
        model.add_entity("A")
        with pytest.raises(SchemaError):
            model.add_relationship("rel", ["A", "Ghost"])

    def test_neighbors(self):
        model = ERModel("M")
        model.add_entity("A")
        model.add_entity("B")
        model.add_entity("C")
        model.add_relationship("r1", ["A", "B"])
        model.add_relationship("r2", ["A", "C"])
        assert set(model.neighbors("A")) == {"B", "C"}

    def test_same_named_relationships_allowed(self):
        model = ERModel("M")
        for name in ("A", "B", "C"):
            model.add_entity(name)
        model.add_relationship("has", ["A", "B"])
        model.add_relationship("has", ["A", "C"])
        assert len(model.relationships) == 2

    def test_ternary_relationship(self):
        model = ERModel("M")
        for name in ("A", "B", "C"):
            model.add_entity(name)
        rel = model.add_relationship("tri", ["A", "B", "C"])
        assert len(rel.participants) == 3

    def test_unknown_entity_raises(self):
        with pytest.raises(SchemaError):
            ERModel("M").entity("ghost")


class TestErFromSchema:
    def test_inner_nodes_with_atomic_children_become_entities(self):
        schema = schema_from_tree(
            "S", {"Customer": {"Name": "string", "ID": "int"}}
        )
        model = er_model_from_schema(schema)
        names = {e.name for e in model.entities}
        assert "Customer" in names
        customer = model.entity("Customer")
        assert {a.name for a in customer.attributes} == {"Name", "ID"}

    def test_containment_becomes_relationship(self):
        schema = schema_from_tree(
            "S",
            {"Order": {"ID": "int", "Item": {"Qty": "int"}}},
        )
        model = er_model_from_schema(schema)
        rel_names = {r.name for r in model.relationships}
        assert "Item" in rel_names or "Order" in rel_names


class TestJsonRoundTrip:
    @pytest.fixture
    def schema(self):
        return parse_sql_ddl(
            """
            CREATE TABLE A (x int PRIMARY KEY, y varchar(10));
            CREATE TABLE B (z int REFERENCES A(x));
            """,
            "DB",
        )

    def test_roundtrip_preserves_structure(self, schema):
        data = schema_to_dict(schema)
        rebuilt = schema_from_dict(data)
        assert rebuilt.name == schema.name
        assert len(rebuilt.elements) == len(schema.elements)
        assert len(rebuilt.relationships) == len(schema.relationships)

    def test_roundtrip_preserves_flags(self, schema):
        rebuilt = schema_from_dict(schema_to_dict(schema))
        x = rebuilt.element_named("x")
        assert x.is_key
        assert x.data_type is DataType.INTEGER
        refints = rebuilt.refint_elements()
        assert len(refints) == 1
        assert refints[0].not_instantiated

    def test_roundtrip_preserves_root_fields(self, schema):
        """The loader reuses the root the new schema creates; every
        serialized field of the root must reach it, so the dict of a
        round-tripped schema equals the original's up to ids."""
        schema.root.description = "orders and the accounts they bill"
        schema.root.optional = True
        rebuilt = schema_from_dict(schema_to_dict(schema))
        assert rebuilt.root.description == schema.root.description
        assert rebuilt.root.optional

        def without_ids(data):
            rename = {
                spec["id"]: i for i, spec in enumerate(data["elements"])
            }
            for spec in data["elements"]:
                spec["id"] = rename[spec["id"]]
            for rel in data["relationships"]:
                rel["source"] = rename[rel["source"]]
                rel["target"] = rename[rel["target"]]
            data["root"] = rename[data["root"]]
            return data

        assert without_ids(schema_to_dict(rebuilt)) == without_ids(
            schema_to_dict(schema)
        )

    def test_same_dict_loadable_twice(self, schema):
        data = schema_to_dict(schema)
        first = schema_from_dict(data)
        second = schema_from_dict(data)
        ids_first = {e.element_id for e in first.elements}
        ids_second = {e.element_id for e in second.elements}
        assert ids_first.isdisjoint(ids_second)

    def test_json_text_roundtrip(self, schema):
        text = schema_to_json(schema)
        rebuilt = schema_from_json(text)
        assert rebuilt.name == schema.name

    def test_every_enum_value_round_trips(self):
        """Each element kind, data type and relationship kind loads back
        as the same member."""
        from repro.model.builder import SchemaBuilder
        from repro.model.element import ElementKind, SchemaElement

        builder = SchemaBuilder("Kinds")
        table = builder.add_child(builder.root, "T")
        for i, data_type in enumerate(DataType):
            kind = list(ElementKind)[i % len(ElementKind)]
            builder.add_leaf(table, f"c{i}", data_type, kind=kind)
        base = builder.add_shared_type("Base")
        builder.derive_from(table, base)
        view = builder.schema.add_element(
            SchemaElement(name="V", kind=ElementKind.VIEW)
        )
        builder.schema.add_containment(builder.root, view)
        builder.schema.add_aggregation(view, table)
        builder.schema.add_reference(view, base)
        data = schema_to_dict(builder.schema)
        rebuilt = schema_to_dict(schema_from_dict(data))

        def without_ids(specs):
            return [
                {k: v for k, v in spec.items() if k != "id"}
                for spec in specs
            ]

        assert without_ids(rebuilt["elements"]) == without_ids(
            data["elements"]
        )
        assert [r["kind"] for r in rebuilt["relationships"]] == [
            r["kind"] for r in data["relationships"]
        ]

    @pytest.mark.parametrize(
        "where, field, value, enum_name",
        [
            ("elements", "kind", "no_such_kind", "ElementKind"),
            ("elements", "kind", ["table"], "ElementKind"),
            ("elements", "data_type", "no_such_type", "DataType"),
            ("elements", "data_type", {"string": 1}, "DataType"),
            ("relationships", "kind", "no_such_kind", "RelationshipKind"),
            ("relationships", "kind", ["containment"], "RelationshipKind"),
        ],
    )
    def test_unknown_or_unhashable_enum_value_is_value_error(
        self, schema, where, field, value, enum_name
    ):
        """The loader's error for a bad enum value is the enum's own."""
        data = schema_to_dict(schema)
        data[where][-1][field] = value
        with pytest.raises(ValueError) as info:
            schema_from_dict(data)
        assert str(info.value) == f"{value!r} is not a valid {enum_name}"

    def test_mapping_serialization(self):
        mapping = Mapping("S", "T")
        mapping.add(
            MappingElement(
                source_path=("S", "a"),
                target_path=("T", "b"),
                similarity=0.75,
            )
        )
        data = mapping_to_dict(mapping)
        assert data["source_schema"] == "S"
        assert data["elements"][0]["similarity"] == 0.75
        parsed = json.loads(mapping_to_json(mapping))
        assert parsed == data
