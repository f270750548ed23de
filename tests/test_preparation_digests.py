"""Pinned digests of prepared schemas.

Engine parity and the fuzz sweep compare the dense engine with the
reference engine, but both read the same normalizer, categorizer and
tree builder, so neither can see a change in *preparation*. This test
can: it hashes the canonical JSON of :func:`prepared_tiers_to_dict` —
normalized names, ordered categories with their member lists, the
kernel vocabulary, and the tree's leaf order — for a fixed schema set,
and compares each hash with a digest recorded when the set was
introduced.

:func:`prepared_tiers_to_dict` is this test's own rendering of a
preparation: the serializer repository artifacts used while they stored
the prepared tiers, moved here when the repository began to store the
canonical schema alone. Its output is unchanged, so the recorded
digests still hold.

The JSON keeps the payload's insertion order (no key sorting), so the
order of every dict in the artifacts is pinned too. CI runs this file
under two pinned ``PYTHONHASHSEED`` values, which turns an order that
leaks from set iteration into a deterministic failure.

A preparation change that is *meant* to alter prepared schemas must
re-record the digests; print the current ones with
``PYTHONPATH=src python tests/test_preparation_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.config import CupidConfig
from repro.datasets import (
    cidx_schema,
    excel_schema,
    figure1_po,
    figure1_porder,
    figure2_po,
    figure2_purchase_order,
    rdb_schema,
    star_schema,
)
from repro.datasets.generator import SchemaGenerator
from repro.linguistic.matcher import LinguisticMatcher
from repro.linguistic.normalizer import NormalizedName
from repro.model.builder import SchemaBuilder
from repro.model.datatypes import DataType
from repro.model.schema import Schema
from repro.pipeline import MatchPipeline, PreparedSchema
from repro.repository.artifacts import FORMAT_VERSION, canonical_schema_dict


# ----------------------------------------------------------------------
# The rendering the digests hash
# ----------------------------------------------------------------------

def _canonical_id_map(schema: Schema) -> Dict[str, str]:
    """Live element id → canonical id, in element order."""
    return {
        element.element_id: f"n{i}"
        for i, element in enumerate(schema.elements)
    }


def canonical_category_key(key: str, id_map: Dict[str, str]) -> str:
    """Rewrite element ids embedded in category keys.

    Container categories are keyed ``container:<element_id>`` with a
    process-unique id; rendering that verbatim would make the digest
    differ run to run. Category keys are opaque to all matching math
    (compatibility reads keywords and source only), so the canonical
    form is safe.
    """
    prefix, _, suffix = key.partition(":")
    if prefix == "container" and suffix in id_map:
        return f"container:{id_map[suffix]}"
    return key


def _tokens_to_list(tokens) -> List[List[Any]]:
    return [[t.text, t.token_type.value, t.ignored] for t in tokens]


def _name_to_dict(name: NormalizedName) -> Dict[str, Any]:
    return {
        "raw": name.raw,
        "tokens": _tokens_to_list(name.tokens),
        "concepts": sorted(name.concepts),
    }


def prepared_tiers_to_dict(
    prepared: PreparedSchema, matcher: LinguisticMatcher
) -> Dict[str, Any]:
    """Render a prepared schema's tiers as one JSON-compatible dict.

    Builds every lazy tier first: the linguistic tier, the kernel
    vocabulary when ``matcher`` (the preparing pipeline's linguistic
    matcher) would match through the kernel, the tree and the leaf
    layout. The payload holds the canonical schema, the deduplicated
    normalized names, the ordered category list, the kernel vocabulary
    (when built), and the leaf layout's element order.
    """
    linguistic = prepared.linguistic
    if matcher.kernel_applicable():
        matcher.vocabulary(linguistic)
    prepared.tree
    prepared.leaf_layout
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
        # (global first-visit leaf order).
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
            # class id -> category slot of its representative.
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
# The schema set
# ----------------------------------------------------------------------

#: Names with special symbols, digits, acronyms, separators, stopwords,
#: whole-name abbreviations and non-ASCII letters, plus repeats so one
#: name lands under several containers.
_SYMBOL_NAMES = (
    "Item#", "#count", "PO_Number2", "e-mail", "UoM", "POLines",
    "Qty@Price", "ShipTo$Addr", "HTTPServerURL", "x1y2", "Total%",
    "A+B", "Net-Amount (USD)", "Café_Name", "TheOrderOfGoods",
    "4thStreet", "customerID", "SSN", "Tax&Fee!", "Rate?", "order.date",
    "ITEM", "unit_price", "Street4", "Price*Qty", "of",
)


def _symbol_schema() -> Schema:
    builder = SchemaBuilder("Symbols#1")
    types = (DataType.STRING, DataType.INTEGER, DataType.MONEY,
             DataType.DATE, None)
    for g, group in enumerate(("PO_Header", "Bill2Addr", "LineItem#")):
        parent = builder.add_child(builder.root, group)
        for i, name in enumerate(_SYMBOL_NAMES[g::2]):
            builder.add_leaf(
                parent, name, types[(g + i) % len(types)],
                optional=(i % 4 == 3),
            )
    return builder.schema


def _shared_type_schema() -> Schema:
    """An Address type used in two contexts (IsDerivedFrom)."""
    builder = SchemaBuilder("SharedTypes")
    address = builder.add_shared_type("Address")
    for name in ("Street", "City", "ZipCode"):
        builder.add_leaf(address, name, "string")
    order = builder.add_child(builder.root, "PurchaseOrder")
    for context in ("ShipTo", "BillTo"):
        builder.derive_from(builder.add_child(order, context), address)
    builder.add_leaf(order, "OrderDate", "date")
    return builder.schema


def _generated(seed: int, repetition: float, n_leaves: int) -> Schema:
    return SchemaGenerator(seed).generate(
        name=f"gen{seed}", n_leaves=n_leaves, max_depth=3,
        name_repetition=repetition,
    )


def _perturbed(seed: int, repetition: float, n_leaves: int) -> Schema:
    copy, _ = SchemaGenerator(seed + 1).perturb(
        _generated(seed, repetition, n_leaves)
    )
    return copy


#: (case id, schema factory, config overrides).
CASES: List[Tuple[str, Callable[[], Schema], Dict[str, object]]] = [
    ("figure1_po", figure1_po, {}),
    ("figure1_porder", figure1_porder, {}),
    ("figure2_po", figure2_po, {}),
    ("figure2_purchase_order", figure2_purchase_order, {}),
    ("rdb", rdb_schema, {}),
    ("star", star_schema, {}),
    ("cidx", cidx_schema, {}),
    ("excel", excel_schema, {}),
    ("gen11_rep0", lambda: _generated(11, 0.0, 60), {}),
    ("gen11_rep0_perturbed", lambda: _perturbed(11, 0.0, 60), {}),
    ("gen23_rep6", lambda: _generated(23, 0.6, 80), {}),
    ("gen23_rep6_perturbed", lambda: _perturbed(23, 0.6, 80), {}),
    ("gen5_rep9", lambda: _generated(5, 0.9, 120), {}),
    ("gen5_rep9_perturbed", lambda: _perturbed(5, 0.9, 120), {}),
    ("symbols", _symbol_schema, {}),
    ("shared_types", _shared_type_schema, {}),
    ("shared_types_lazy", _shared_type_schema, {"lazy_expansion": True}),
]

#: sha256 of each case's canonical JSON rendering, recorded at commit
#: 0063ea7, before preparation was reworked to cost per distinct token.
DIGESTS: Dict[str, str] = {
    "figure1_po": "b4ccf6045e42e3cdd5ff933523891083992d6e058ce028a36019a2710bcc055a",
    "figure1_porder": "a6c468713b3bcc977005ea9864b49e75a72fb496cb447302cbc9b9a6f3c4fd08",
    "figure2_po": "921b050f296e2a5ede9096d3b70e6f5d490a1bd49737f46b4ec6a40647567a41",
    "figure2_purchase_order": "298fc4d38dd6845c7b7483e987def3d32dec6c609f6cd362ce9944eb44d28bd4",
    "rdb": "c4605a32a5555743b718d417187bd97550f2880124076ef93d25ffce8ae779dd",
    "star": "e9e7f7d67d177d822504c449f4bbfecabc0f223a4022145bae4fb5f0116996a1",
    "cidx": "fc4069881d30753a57a3e19ff27a08367d628c140e11a0eba111b2e912ac2bea",
    "excel": "6d6cdd498f03b8ebc404573264e90d101c61039d19b9fe9c4f8a7c39a3586401",
    "gen11_rep0": "3233708be731364389383925bd6e769f8084ed9ac0a54892721b7e3d2facb91a",
    "gen11_rep0_perturbed": "309ce18efb3c2b2ba8ee5a8bfb94c6a5b2106155ac71979fac6f1f645b49d069",
    "gen23_rep6": "6b05f029804ddcea5f4b677ea783cfc6a30b42b65164362fb4671a7170d4bf9e",
    "gen23_rep6_perturbed": "a3a22685433ffdbaa39b294db10c32e854187dec68f767a35063aa8b9c0f8793",
    "gen5_rep9": "dd8758290eb5fb09fda55717d16aead76b6ec2a8fa00ced747ca09e170720cb1",
    "gen5_rep9_perturbed": "053c97b02e97e8e4e99a2f010e9532cbf03aae42c369916e30cf7ea4bfb93372",
    "symbols": "7344ce5724b74e1e689fba5693d828ea4829844ed9c7e498abb01f12dfd409b0",
    "shared_types": "4d216c0f7f20f877a8a4e8d5c765366d6461f651037d260fc0d7adf2d2628b6b",
    "shared_types_lazy": "9b3ee744602233c74da6bfd751d408b97fd3554e365ab4cf3efdd9dc2d332eaa",
}


def _pipeline(overrides: Dict[str, object]) -> MatchPipeline:
    return MatchPipeline.default(config=CupidConfig(**overrides))


def _digest(pipeline: MatchPipeline, schema: Schema) -> str:
    payload = prepared_tiers_to_dict(
        pipeline.prepare(schema), pipeline.linguistic
    )
    blob = json.dumps(payload, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def current_digests(shared: bool = False) -> Dict[str, str]:
    """Every case's digest; ``shared`` prepares all cases of one config
    through one pipeline (warm normalizer caches, as a daemon runs)."""
    pipelines: Dict[Tuple, MatchPipeline] = {}
    digests = {}
    for case_id, factory, overrides in CASES:
        key = tuple(sorted(overrides.items()))
        if shared:
            pipeline = pipelines.setdefault(key, _pipeline(overrides))
        else:
            pipeline = _pipeline(overrides)
        digests[case_id] = _digest(pipeline, factory())
    return digests


@pytest.mark.parametrize("case_id", [case[0] for case in CASES])
def test_cold_preparation_matches_recorded_digest(case_id):
    factory, overrides = next(
        (factory, overrides) for cid, factory, overrides in CASES
        if cid == case_id
    )
    assert _digest(_pipeline(overrides), factory()) == DIGESTS[case_id]


def test_warm_caches_prepare_the_same_artifacts():
    """A pipeline that has already prepared other schemas (shared
    per-name and per-token caches) prepares the same tiers."""
    assert current_digests(shared=True) == DIGESTS


def test_preparing_twice_gives_equal_artifacts():
    pipeline = MatchPipeline.default()
    first = _digest(pipeline, _symbol_schema())
    assert _digest(pipeline, _symbol_schema()) == first


if __name__ == "__main__":  # print the digests to record
    for case_id, digest in current_digests().items():
        print(f'    "{case_id}": "{digest}",')
