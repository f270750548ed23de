"""(De)serialization of repository artifacts — the on-disk format.

An artifact file holds two keys: ``format_version`` and ``schema``, the
schema's canonical payload (:func:`canonical_schema_dict`). Nothing
derived from the schema is stored. :func:`prepared_from_dict` returns a
lazy :class:`~repro.pipeline.prepared.PreparedSchema` of that schema,
which the repository's own pipeline prepares on first use, exactly as
it prepares any other schema. Match results are therefore those of a
fresh preparation by construction; there is no restored state that
could drift from it.

Earlier builds also stored every prepared linguistic tier (normalized
names, category tables, the kernel vocabulary, the leaf order). Once
preparation cost per distinct token, restoring a tier cost what
rebuilding it costs. On a 2-vCPU machine (four fresh processes each,
tree and vocabulary built either way), restoring the 64 artifacts of
the seed-1 ``serve-mixed`` corpus took 114–126 ms and re-preparing
their schemas 92–99 ms; for the 885-element ``match-wide`` mediated
schema and two 192-leaf ``match-context`` schemas, 42–70 ms against
43–56 ms. The 64 artifacts took 1.68 MB on disk with their tiers and
0.41 MB without. Such files still open: the loader reads
``format_version`` and ``schema`` only and ignores the rest.

Element ids are process-unique, so the payload renames them to
*canonical* ids (``n0``, ``n1``, ... in element order). That makes it
content-addressable: :func:`schema_fingerprint` is stable across
processes and is what a repository uses as the schema's identity.

``FORMAT_VERSION`` stamps every artifact file. Readers reject any other
version, and any structurally broken payload, with
:class:`~repro.exceptions.RepositoryError`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields as dataclass_fields
from typing import Any, Dict

from repro import faults
from repro.config import CupidConfig
from repro.exceptions import RepositoryError, SchemaError
from repro.io.json_io import schema_from_dict, schema_to_dict
from repro.linguistic.matcher import LinguisticMatcher
from repro.linguistic.tokens import TokenType
from repro.model.schema import Schema
from repro.pipeline.prepared import PreparedSchema

#: Version stamp of the artifact file layout. Bump on any change to
#: the serialized structure; readers hard-reject other versions.
FORMAT_VERSION = 1

#: Config fields that change match *results*. The fingerprint guarding
#: a repository's derived data covers exactly these; engine/backend
#: choices are excluded because every combination is parity-tested to
#: produce bit-identical output.
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

    A repository's index profiles, computed under one fingerprint, are
    only valid under the same one; runtime knobs (engine, backend,
    cache bounds) may differ freely — those are parity-guaranteed not
    to change values.
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
    payload — and therefore :func:`schema_fingerprint` — stable.
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


# ----------------------------------------------------------------------
# Artifact payload
# ----------------------------------------------------------------------

def prepared_to_dict(
    prepared: PreparedSchema,
    canonical: Dict[str, Any] = None,
) -> Dict[str, Any]:
    """The artifact payload of a prepared schema: its canonical schema.

    ``canonical`` accepts a precomputed :func:`canonical_schema_dict`
    of the same schema (the ingest path builds it early for the
    duplicate check). Forces no preparation tier.
    """
    faults.check("artifact.serialize")
    if canonical is None:
        canonical = canonical_schema_dict(prepared.schema)
    return {"format_version": FORMAT_VERSION, "schema": canonical}


def prepared_from_dict(
    data: Dict[str, Any],
    matcher: LinguisticMatcher,
    config: CupidConfig,
) -> PreparedSchema:
    """A lazy :class:`PreparedSchema` of an artifact payload's schema.

    ``matcher`` and ``config`` prepare it on first use. Only
    ``format_version`` and ``schema`` are read, so payloads that still
    carry an ``artifacts`` block of prepared tiers load as well. Raises
    :class:`RepositoryError` on a version mismatch or a structurally
    broken schema payload.
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
        schema = schema_from_dict(data["schema"])
    except (KeyError, ValueError, TypeError, IndexError, SchemaError) as exc:
        raise RepositoryError(
            f"artifact payload is corrupt: {exc!r}"
        ) from exc
    return PreparedSchema(schema, matcher, config)
