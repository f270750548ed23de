"""Persistent, searchable schema repository (the paper's Section 2
deployment shape made durable).

Three layers over the existing engine:

* :mod:`repro.repository.artifacts` — the versioned artifact file:
  a schema's canonical, content-addressed payload and nothing derived
  from it; a loaded schema is prepared again by the repository's own
  pipeline.
* :mod:`repro.repository.index` — an inverted vocabulary-token index
  with a TF-IDF overlap scorer that prunes a corpus to a candidate
  set without running TreeMatch.
* :mod:`repro.repository.store` — :class:`SchemaRepository`:
  ``ingest`` / ``load`` / ``search(query, k, candidates=C)`` /
  ``verify``. Its manifest is the one publish point: each catalog
  entry carries the schema's index profile, so one atomic write
  publishes catalog and index together, and an artifact a crash left
  uncatalogued is finished or rolled back on the next open.

CLI: ``repro index <paths> --repo DIR`` and ``repro search <schema>
--repo DIR -k N``.
"""

from repro.repository.artifacts import (
    FORMAT_VERSION,
    config_fingerprint,
    prepared_from_dict,
    prepared_to_dict,
    schema_fingerprint,
)
from repro.repository.index import VocabularyIndex, token_profile
from repro.repository.store import (
    RankedMatch,
    RepositorySearchResult,
    SchemaRepository,
    match_score,
)

__all__ = [
    "FORMAT_VERSION",
    "RankedMatch",
    "RepositorySearchResult",
    "SchemaRepository",
    "VocabularyIndex",
    "config_fingerprint",
    "match_score",
    "prepared_from_dict",
    "prepared_to_dict",
    "schema_fingerprint",
    "token_profile",
]
