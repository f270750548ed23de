"""(De)serialization of prepared-schema artifacts — the repository's
on-disk format.

A :class:`~repro.pipeline.prepared.PreparedSchema` captures the
expensive per-schema work (name normalization, categorization, the
distinct-name vocabulary, tree + leaf layout). All of it is a pure
function of (schema, thesaurus, config), so it can be serialized once
at ingest and restored in any later process — *if* the round trip is
exact. This module owes that exactness to two properties:

* nothing float-valued is stored for the linguistic tiers — tokens,
  categories, and vocabulary tables are strings, enums, bools, and
  integer index arrays, all of which JSON round-trips losslessly;
* everything order-sensitive (the category dict, member lists, profile
  tables) is serialized as ordered lists and rebuilt in that exact
  order, so downstream iteration — including the kernel's
  profile-matrix build — replays the in-memory original operation for
  operation.

The restored :class:`PreparedSchema` therefore matches a
freshly-prepared one **bit-identically** in every lsim/wsim/mapping it
produces (asserted by ``tests/test_repository.py``).

Element ids are process-unique, so artifacts reference elements by
*canonical* ids (``n0``, ``n1``, ... in element order); the same
canonicalization makes the schema payload content-addressable —
:func:`schema_fingerprint` is stable across processes and is what a
repository uses as the schema's identity.

``FORMAT_VERSION`` stamps every artifact file. Readers reject any
other version (and any structurally broken payload) with
:class:`~repro.exceptions.RepositoryError` rather than hand back
half-restored artifacts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Tuple

from repro import faults
from repro.config import CupidConfig
from repro.exceptions import RepositoryError
from repro.io.json_io import schema_from_dict_with_ids, schema_to_dict
from repro.linguistic.categorization import Category
from repro.linguistic.kernel import SchemaVocabulary
from repro.linguistic.matcher import (
    LinguisticMatcher,
    LinguisticPreparation,
    described_elements,
)
from repro.linguistic.normalizer import NormalizedName
from repro.linguistic.tokens import Token, TokenType
from repro.model.schema import Schema
from repro.pipeline.prepared import PreparedSchema

#: Version stamp of the artifact file layout. Bump on any change to
#: the serialized structure; readers hard-reject other versions.
FORMAT_VERSION = 1

#: Config fields that change match *results*. The fingerprint guarding
#: persisted artifacts covers exactly these; engine/backend choices are
#: excluded because every combination is parity-tested to produce
#: bit-identical output.
SEMANTIC_CONFIG_FIELDS = (
    "thns", "thhigh", "thlow", "cinc", "cdec", "thaccept",
    "wstruct", "wstruct_leaf", "leaf_count_ratio", "prune_by_leaf_count",
    "leaf_prune_depth", "initial_mapping_lsim", "use_refint_joins",
    "lazy_expansion", "discount_optional_leaves", "token_type_weights",
    "use_key_affinity", "key_affinity_bonus", "use_descriptions",
    "description_weight", "substring_sim_ceiling", "min_token_sim",
)


# ----------------------------------------------------------------------
# Config round-trip + fingerprints
# ----------------------------------------------------------------------

def config_to_dict(config: CupidConfig) -> Dict[str, Any]:
    """Every config field as JSON-compatible values."""
    data = {
        f.name: getattr(config, f.name)
        for f in dataclass_fields(config)
    }
    data["token_type_weights"] = {
        token_type.value: weight
        for token_type, weight in config.token_type_weights.items()
    }
    return data


def config_from_dict(data: Dict[str, Any]) -> CupidConfig:
    """Rebuild a validated :class:`CupidConfig` from
    :func:`config_to_dict` output."""
    known = {f.name for f in dataclass_fields(CupidConfig)}
    kwargs = {k: v for k, v in data.items() if k in known}
    kwargs["token_type_weights"] = {
        TokenType(value): weight
        for value, weight in data["token_type_weights"].items()
    }
    config = CupidConfig(**kwargs)
    config.validate()
    return config


def config_fingerprint(config: CupidConfig) -> str:
    """Hash of the result-affecting config fields.

    Artifacts prepared under one fingerprint are only valid under the
    same one; runtime knobs (engine, backend, cache bounds) may differ
    freely — those are parity-guaranteed not to change values.
    """
    full = config_to_dict(config)
    payload = {
        name: full[name] for name in SEMANTIC_CONFIG_FIELDS
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# Canonical schema payload (content-addressed identity)
# ----------------------------------------------------------------------

def canonical_schema_dict(schema: Schema) -> Dict[str, Any]:
    """:func:`schema_to_dict` with ids remapped to ``n0, n1, ...``.

    Element ids are minted per process, so the raw dict of the same
    schema differs run to run; canonical ids (element order) make the
    payload — and therefore :func:`schema_fingerprint` — stable, and
    give artifacts a vocabulary for referencing elements.
    """
    data = schema_to_dict(schema)
    rename = {
        spec["id"]: f"n{i}" for i, spec in enumerate(data["elements"])
    }
    for spec in data["elements"]:
        spec["id"] = rename[spec["id"]]
    for rel in data["relationships"]:
        rel["source"] = rename[rel["source"]]
        rel["target"] = rename[rel["target"]]
    data["root"] = rename[data["root"]]
    return data


def schema_fingerprint(canonical: Dict[str, Any]) -> str:
    """Content hash of a :func:`canonical_schema_dict` payload."""
    blob = json.dumps(canonical, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _canonical_id_map(schema: Schema) -> Dict[str, str]:
    """Live element id → canonical id, in element order."""
    return {
        element.element_id: f"n{i}"
        for i, element in enumerate(schema.elements)
    }


def canonical_category_key(key: str, id_map: Dict[str, str]) -> str:
    """Rewrite element ids embedded in category keys.

    Container categories are keyed ``container:<element_id>`` with a
    process-unique id; persisting that verbatim would leak a dangling
    id into the artifact. Category keys are opaque to all matching
    math (compatibility reads keywords and source only), so the
    canonical form is safe and makes artifacts stable across
    processes.
    """
    prefix, _, suffix = key.partition(":")
    if prefix == "container" and suffix in id_map:
        return f"container:{id_map[suffix]}"
    return key


# ----------------------------------------------------------------------
# Token / name / category encoding
# ----------------------------------------------------------------------

def _tokens_to_list(tokens) -> List[List[Any]]:
    return [[t.text, t.token_type.value, t.ignored] for t in tokens]


def _tokens_from_list(data) -> Tuple[Token, ...]:
    return tuple(
        Token(text, TokenType(type_value), bool(ignored))
        for text, type_value, ignored in data
    )


def _name_to_dict(name: NormalizedName) -> Dict[str, Any]:
    return {
        "raw": name.raw,
        "tokens": _tokens_to_list(name.tokens),
        "concepts": sorted(name.concepts),
    }


def _name_from_dict(data: Dict[str, Any]) -> NormalizedName:
    return NormalizedName(
        raw=data["raw"],
        tokens=_tokens_from_list(data["tokens"]),
        concepts=frozenset(data["concepts"]),
    )


# ----------------------------------------------------------------------
# PreparedSchema → dict
# ----------------------------------------------------------------------

def prepared_to_dict(
    prepared: PreparedSchema,
    canonical: Dict[str, Any] = None,
) -> Dict[str, Any]:
    """Serialize a prepared schema's persistent tiers.

    Forces the lazy tiers first (:meth:`PreparedSchema.build_all`), so
    ingest pays the full cold-start cost exactly once. The payload
    holds the canonical schema, the deduplicated normalized names, the
    ordered category list, the kernel vocabulary (when built), and the
    leaf layout's element order (stored for verification — the layout
    itself rebuilds deterministically from the schema). ``canonical``
    accepts a precomputed :func:`canonical_schema_dict` of the same
    schema (the ingest path builds it early for the duplicate check).
    """
    faults.check("artifact.serialize")
    prepared.build_all()
    linguistic = prepared.linguistic
    if canonical is None:
        canonical = canonical_schema_dict(prepared.schema)
    id_map = _canonical_id_map(prepared.schema)

    # Distinct normalized names, first-seen in element order — mirrors
    # the sharing the in-memory normalizer cache produces.
    names: List[NormalizedName] = []
    name_slot: Dict[str, int] = {}
    name_of: Dict[str, int] = {}
    for element in prepared.schema.elements:
        normalized = linguistic.normalized[element.element_id]
        slot = name_slot.get(normalized.raw)
        if slot is None:
            slot = name_slot[normalized.raw] = len(names)
            names.append(normalized)
        name_of[id_map[element.element_id]] = slot

    categories = [
        {
            "key": canonical_category_key(category.key, id_map),
            "source": category.source,
            "keywords": _tokens_to_list(category.keywords),
            "members": [
                id_map[member.element_id] for member in category.members
            ],
        }
        for category in linguistic.categories.values()
    ]
    category_slot = {
        key: i for i, key in enumerate(linguistic.categories.keys())
    }

    artifacts: Dict[str, Any] = {
        "names": [_name_to_dict(name) for name in names],
        "name_of": name_of,
        "categories": categories,
        # The layout order IS the tree's pre-order interval encoding
        # (global first-visit leaf order): persisting it pins the
        # window addressing a restored schema re-derives, with no
        # format bump — verify() runs the interval oracle against it.
        "leaf_order": [
            id_map[leaf.element.element_id]
            for leaf in prepared.leaf_layout.leaves
        ],
    }

    vocabulary = prepared.vocabulary
    if vocabulary is not None:
        artifacts["vocabulary"] = {
            # vocab id -> distinct-name slot (names are keyed by raw).
            "names": [name_slot[name.raw] for name in vocabulary.names],
            # class id -> serialized category slot of its representative.
            "classes": [
                category_slot[category.key]
                for category in vocabulary.classes
            ],
            "class_is_dtype": list(vocabulary.class_is_dtype),
            "class_profiles": [
                list(pids) for pids in vocabulary.class_profiles
            ],
            "profile_names": list(vocabulary.profile_names),
            "profile_members": [
                [id_map[element_id] for element_id in members]
                for members in vocabulary.profile_members
            ],
            "profile_of": {
                id_map[element_id]: pid
                for element_id, pid in vocabulary.profile_of.items()
            },
        }

    return {
        "format_version": FORMAT_VERSION,
        "schema": canonical,
        "artifacts": artifacts,
    }


# ----------------------------------------------------------------------
# dict → PreparedSchema
# ----------------------------------------------------------------------

def prepared_from_dict(
    data: Dict[str, Any],
    matcher: LinguisticMatcher,
    config: CupidConfig,
) -> PreparedSchema:
    """Restore a :func:`prepared_to_dict` payload.

    The returned :class:`PreparedSchema` carries the deserialized
    linguistic tier (and vocabulary, when present); tree and leaf
    layout stay lazy. Raises :class:`RepositoryError` on a version
    mismatch or a structurally broken payload.
    """
    faults.check("artifact.restore")
    if not isinstance(data, dict):
        raise RepositoryError(
            f"artifact payload is {type(data).__name__}, expected an object"
        )
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise RepositoryError(
            f"artifact format version {version!r} is not supported "
            f"(this build reads version {FORMAT_VERSION})"
        )
    try:
        return _restore(data, matcher, config)
    except RepositoryError:
        raise
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise RepositoryError(
            f"artifact payload is corrupt: {exc!r}"
        ) from exc


def _restore(
    data: Dict[str, Any],
    matcher: LinguisticMatcher,
    config: CupidConfig,
) -> PreparedSchema:
    schema, by_sid = schema_from_dict_with_ids(data["schema"])
    artifacts = data["artifacts"]

    names = [_name_from_dict(spec) for spec in artifacts["names"]]
    normalized = {
        by_sid[canonical_id].element_id: names[slot]
        for canonical_id, slot in artifacts["name_of"].items()
    }
    # Fresh preparation builds `normalized` over schema.elements; keep
    # that insertion order on restore (dict order is observable).
    normalized = {
        element.element_id: normalized[element.element_id]
        for element in schema.elements
    }

    categories: Dict[str, Category] = {}
    category_list: List[Category] = []
    for spec in artifacts["categories"]:
        category = Category(
            key=spec["key"],
            keywords=_tokens_from_list(spec["keywords"]),
            source=spec["source"],
            members=[by_sid[cid] for cid in spec["members"]],
        )
        categories[category.key] = category
        category_list.append(category)

    linguistic = LinguisticPreparation(
        schema=schema,
        categories=categories,
        normalized=normalized,
        elements_by_id={e.element_id: e for e in schema.elements},
        described=described_elements(schema),
    )

    vocab_spec = artifacts.get("vocabulary")
    if vocab_spec is not None:
        linguistic.vocabulary = _restore_vocabulary(
            vocab_spec, names, category_list, by_sid, linguistic
        )

    return PreparedSchema.from_artifacts(
        schema, matcher, config, linguistic
    )


def _restore_vocabulary(
    spec: Dict[str, Any],
    names: List[NormalizedName],
    category_list: List[Category],
    by_sid,
    linguistic: LinguisticPreparation,
) -> SchemaVocabulary:
    """Fill a :class:`SchemaVocabulary` from its serialized tables.

    Bypasses ``_build`` (that is the point — the factoring came off
    disk) and reconstructs the derived keyword tuples exactly the way
    the builder does.
    """
    vocabulary = SchemaVocabulary.__new__(SchemaVocabulary)
    vocabulary.names = [names[slot] for slot in spec["names"]]
    vocabulary.name_index = {
        name.raw: i for i, name in enumerate(vocabulary.names)
    }
    vocabulary.classes = [
        category_list[slot] for slot in spec["classes"]
    ]
    vocabulary.class_is_dtype = [
        bool(flag) for flag in spec["class_is_dtype"]
    ]
    vocabulary.class_keywords = [
        tuple(t for t in category.keywords if not t.ignored)
        for category in vocabulary.classes
    ]
    vocabulary.class_profiles = [
        list(pids) for pids in spec["class_profiles"]
    ]
    vocabulary.profile_names = list(spec["profile_names"])
    vocabulary.profile_members = [
        [by_sid[cid].element_id for cid in members]
        for members in spec["profile_members"]
    ]
    vocabulary.profile_of = {
        by_sid[cid].element_id: pid
        for cid, pid in spec["profile_of"].items()
    }
    vocabulary.n_elements = len(linguistic.elements_by_id)
    vocabulary._tables = None
    return vocabulary
