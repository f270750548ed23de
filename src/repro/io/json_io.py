"""JSON serialization for schemas and mappings.

The Cupid prototype displayed its output in BizTalk Mapper; our
equivalent is a plain JSON rendering that downstream tools (and the
test suite) can consume. Schemas round-trip exactly; mappings are
export-only (they reference live tree nodes).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.exceptions import SchemaError
from repro.mapping.mapping import Mapping
from repro.model.datatypes import DataType
from repro.model.element import ElementKind, SchemaElement
from repro.model.relationships import RelationshipKind
from repro.model.schema import Schema

#: Serialized value -> enum member, for the loader's per-element and
#: per-relationship lookups (an ``Enum(value)`` call runs the enum's
#: Python-level constructor every time).
_ELEMENT_KINDS = {kind.value: kind for kind in ElementKind}
_DATA_TYPES = {data_type.value: data_type for data_type in DataType}
_RELATIONSHIP_KINDS = {kind.value: kind for kind in RelationshipKind}

#: The serialized fields of an element, all of which the loader copies
#: onto the root the new :class:`Schema` creates.
_ROOT_FIELDS = (
    "name", "kind", "data_type", "optional", "is_key",
    "not_instantiated", "description",
)


def _member(members: Dict[Any, Any], enum_cls, value: Any):
    """``enum_cls(value)`` through the ``members`` map. A value the map
    does not hold (unknown, unhashable) goes to ``enum_cls`` itself, so
    it raises the enum's own error."""
    try:
        return members[value]
    except (KeyError, TypeError):
        return enum_cls(value)


def schema_to_dict(schema: Schema) -> Dict[str, Any]:
    """Serialize a schema graph to a JSON-compatible dict."""
    elements: List[Dict[str, Any]] = []
    for element in schema.elements:
        elements.append(
            {
                "id": element.element_id,
                "name": element.name,
                "kind": element.kind.value,
                "data_type": element.data_type.value if element.data_type else None,
                "optional": element.optional,
                "is_key": element.is_key,
                "not_instantiated": element.not_instantiated,
                "description": element.description,
            }
        )
    relationships = [
        {
            "source": rel.source.element_id,
            "target": rel.target.element_id,
            "kind": rel.kind.value,
        }
        for rel in schema.relationships
    ]
    return {
        "name": schema.name,
        "root": schema.root.element_id,
        "elements": elements,
        "relationships": relationships,
    }


def schema_from_dict(data: Dict[str, Any]) -> Schema:
    """Rebuild a schema from :func:`schema_to_dict` output.

    The serialized ids are used to resolve relationships inside the
    dict, but the rebuilt elements receive fresh process-unique ids so
    the same dict can be loaded multiple times (e.g. to match a schema
    against a copy of itself).
    """
    if not isinstance(data, dict) or not {
        "root", "name", "elements", "relationships"
    } <= data.keys():
        # Arbitrary JSON (a config file, a mapping export) routed here
        # by extension dispatch must fail as a schema error, not leak
        # a KeyError traceback.
        raise SchemaError(
            "JSON payload is not a serialized schema (expected object "
            "with 'name', 'root', 'elements', 'relationships')"
        )
    root_id = data["root"]
    by_id: Dict[str, SchemaElement] = {}
    schema: Optional[Schema] = None

    for spec in data["elements"]:
        element = SchemaElement(
            name=spec["name"],
            kind=_member(_ELEMENT_KINDS, ElementKind, spec["kind"]),
            data_type=(
                _member(_DATA_TYPES, DataType, spec["data_type"])
                if spec["data_type"] else None
            ),
            optional=spec.get("optional", False),
            is_key=spec.get("is_key", False),
            not_instantiated=spec.get("not_instantiated", False),
            description=spec.get("description", ""),
            # Fresh process-unique id: loading the same dict twice must
            # not produce elements that compare equal across schemas.
        )
        by_id[spec["id"]] = element
        if spec["id"] == root_id:
            schema = Schema(data["name"])
            # Swap the auto-created root for the deserialized one by
            # reusing the created root object and copying every field
            # but the id (a described root keeps its description).
            for attr in _ROOT_FIELDS:
                setattr(schema.root, attr, getattr(element, attr))
            by_id[spec["id"]] = schema.root

    if schema is None:
        raise SchemaError("serialized schema has no root element")

    for spec in data["elements"]:
        if spec["id"] != root_id:
            schema.add_element(by_id[spec["id"]])

    adders = {
        RelationshipKind.CONTAINMENT: schema.add_containment,
        RelationshipKind.AGGREGATION: schema.add_aggregation,
        RelationshipKind.IS_DERIVED_FROM: schema.add_is_derived_from,
        RelationshipKind.REFERENCE: schema.add_reference,
    }
    for rel in data["relationships"]:
        kind = _member(_RELATIONSHIP_KINDS, RelationshipKind, rel["kind"])
        adders[kind](by_id[rel["source"]], by_id[rel["target"]])
    return schema


def schema_to_json(schema: Schema, indent: int = 2) -> str:
    return json.dumps(schema_to_dict(schema), indent=indent)


def schema_from_json(text: str) -> Schema:
    return schema_from_dict(json.loads(text))


def mapping_to_dict(mapping: Mapping) -> Dict[str, Any]:
    """Serialize a mapping (export only)."""
    return {
        "source_schema": mapping.source_schema_name,
        "target_schema": mapping.target_schema_name,
        "elements": [
            {
                "source_path": list(element.source_path),
                "target_path": list(element.target_path),
                "similarity": round(element.similarity, 6),
            }
            for element in mapping
        ],
    }


def mapping_to_json(mapping: Mapping, indent: int = 2) -> str:
    return json.dumps(mapping_to_dict(mapping), indent=indent)
