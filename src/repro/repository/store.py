"""The persistent schema repository: ingest once, search forever.

Cupid frames Match as a service over a *repository* of schemas
(Section 2), but an in-process :class:`~repro.pipeline.session.
MatchSession` forgets everything at exit. :class:`SchemaRepository`
keeps the schemas and what ranks them:

* **ingest(schema)** stores the canonical schema
  (:mod:`repro.repository.artifacts`) under a content-addressed id,
  with its catalog entry (element and leaf counts) and its index
  profile;
* a **vocabulary index** (:mod:`repro.repository.index`) ranks the
  corpus against a query without matching it;
* **search(query, k, candidates=C)** runs the full pipeline only on
  the top-C candidates and returns ranked results with pruning stats.

No preparation tier and no similarity cache is persisted: preparing a
schema costs what reading its tiers back did, and the linguistic memo
is pure, so each process rebuilds both in memory. A loaded schema is
prepared by the repository's own pipeline, so a search against a
reopened repository returns exactly the results the in-memory path
produces (``tests/test_repository.py`` asserts it).

Directory layout (all JSON, human-diffable)::

    <root>/repository.json    manifest: versions, config, fingerprints,
                              schema catalog, index segment sequence
    <root>/schemas/<id>.json  one artifact file per ingested schema
    <root>/index/seg-*.json   append-only index segments (one per
                              ingest batch; compaction folds them)
    <root>/ingest.intent.json write-ahead ingest intents (present only
                              between an ingest and its manifest
                              publish; resolved on reopen)

Earlier builds also kept the memo's token tier in a similarity-cache
file beside the manifest; one left in the directory is neither read
nor deleted.

Since PR 7 the vocabulary index persists as **append-only segments**
(:mod:`repro.repository.segments`) instead of one rewritten
``index.json``: each flush appends a segment holding only the batch's
profiles, opening replays the checksummed segment sequence instead of
re-scanning artifacts, and compaction folds the sequence back to one
file. The repository is also safe for concurrent use from multiple
threads: catalog/index mutations are guarded by one short-held lock,
while schema preparation and candidate matching — the expensive parts
— run outside it, optionally on a caller-supplied
:class:`~repro.pipeline.session.MatchSession` per thread, so library
callers that share one repository can search and ingest concurrently.
(The serving subsystem runs its requests one at a time on one session
of its own.)
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.config import CupidConfig
from repro.exceptions import (
    ArtifactError,
    RepositoryError,
    RepositoryReadOnlyError,
    SchemaError,
    SegmentError,
)
from repro.linguistic.lexicon import builtin_thesaurus
from repro.linguistic.thesaurus import Thesaurus
from repro.obs import trace
from repro.model.schema import Schema
from repro.pipeline.prepared import PreparedSchema
from repro.pipeline.result import CupidResult
from repro.pipeline.session import MatchSession
from repro.repository.artifacts import (
    FORMAT_VERSION,
    SEMANTIC_CONFIG_FIELDS,
    canonical_schema_dict,
    config_fingerprint,
    config_from_dict,
    config_to_dict,
    prepared_from_dict,
    prepared_to_dict,
    schema_fingerprint,
)
from repro.repository.durability import atomic_write_json
from repro.repository.index import VocabularyIndex, token_profile
from repro.tree.schema_tree import verify_interval_encoding
from repro.repository.segments import (
    IndexSegment,
    compact_segments,
    load_index_from_segments,
    next_segment_id,
    read_segment,
    remove_segment_files,
    write_segment,
)

MANIFEST_FILE = "repository.json"
#: Legacy single-file index (pre-segment repositories); read-only
#: backward compatibility — new saves always write segments, and the
#: first post-migration manifest write deletes the stale file.
INDEX_FILE = "index.json"
SCHEMAS_DIR = "schemas"
#: Write-ahead record of ingests whose artifacts may be on disk but
#: whose manifest publication has not happened yet. Reopening a
#: repository resolves every entry: completed (artifact verifies
#: against its content-addressed id) or rolled back — a crash between
#: the artifact write and the manifest publish is never half-visible.
INTENT_FILE = "ingest.intent.json"

_SLUG_RE = re.compile(r"[^a-z0-9]+")


def _slug(name: str) -> str:
    slug = _SLUG_RE.sub("-", name.lower()).strip("-")
    return slug[:40] or "schema"


def match_score(result: CupidResult) -> float:
    """One number ranking a query/candidate match: the root pair's
    wsim.

    The roots are always compared (never pruned), and their weighted
    similarity is Cupid's own aggregate of how much of the two trees
    links strongly — the natural "how similar are these schemas"
    readout. Falls back to the mean leaf-mapping similarity for
    pipelines without a TreeMatch result (adapted baselines).
    """
    tm = result.treematch_result
    if tm is not None:
        return tm.wsim_of(tm.source_tree.root, tm.target_tree.root)
    elements = list(result.leaf_mapping)
    if not elements:
        return 0.0
    return sum(e.similarity for e in elements) / len(elements)


@dataclass
class RankedMatch:
    """One search hit: a corpus schema with its full match result."""

    schema_id: str
    schema_name: str
    score: float
    result: CupidResult


@dataclass
class RepositorySearchResult:
    """Ranked top-k matches plus per-stage search statistics."""

    query_name: str
    k: int
    matches: List[RankedMatch]
    #: Full index ranking ``(schema_id, candidate score)`` — what the
    #: pruning decision was based on.
    candidate_scores: List[Tuple[str, float]] = field(default_factory=list)
    #: corpus_size / candidates_considered / candidates_pruned /
    #: time_index_ms / time_match_ms ...
    stats: Dict[str, Any] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.matches)

    def __len__(self) -> int:
        return len(self.matches)


class SchemaRepository:
    """A searchable on-disk corpus of prepared schemas.

    >>> repo = SchemaRepository(path)          # create or reopen
    >>> repo.ingest(schema)                    # pay cold start once
    >>> hits = repo.search(query, k=3, candidates=16)
    >>> repo.save()                            # flush index + manifest

    Construction opens an existing repository (validating format
    version, config, and thesaurus fingerprints) or initializes an
    empty one. ``config``/``thesaurus`` follow the session defaults;
    when reopening, the persisted config is used unless an explicitly
    passed one matches the stored semantic fingerprint. The repository
    works as a context manager (``with SchemaRepository(p) as repo:``)
    and flushes on exit.
    """

    def __init__(
        self,
        path: str,
        config: Optional[CupidConfig] = None,
        thesaurus: Optional[Thesaurus] = None,
        must_exist: bool = False,
    ) -> None:
        self.path = os.path.abspath(path)
        self.thesaurus = (
            thesaurus if thesaurus is not None else builtin_thesaurus()
        )
        manifest_path = os.path.join(self.path, MANIFEST_FILE)
        exists = os.path.exists(manifest_path)
        if must_exist and not exists:
            raise RepositoryError(
                f"no schema repository at {self.path!r} "
                f"(missing {MANIFEST_FILE})"
            )
        self._counters: Dict[str, int] = {
            "ingests": 0,
            "ingest_duplicates": 0,
            "artifact_loads": 0,
            "searches": 0,
            "search_candidates_matched": 0,
            "search_candidates_pruned": 0,
            "index_rebuilds": 0,
            "segments_loaded": 0,
            "segments_written": 0,
            "segment_fallbacks": 0,
            "segment_compactions": 0,
            "recovered_ingests": 0,
            "rolled_back_ingests": 0,
            "write_failures": 0,
        }
        # Guards the catalog, index, segment bookkeeping, counters,
        # and the loaded-artifact cache. Held only for in-memory
        # mutation and manifest/segment writes — preparation and
        # matching (the expensive work) always run outside it.
        self._lock = threading.RLock()
        #: Manifest entries of the on-disk segment sequence, in replay
        #: order.
        self._segment_entries: List[Dict[str, Any]] = []
        #: Profiles added since the last segment flush (the next
        #: segment's contents). Keys are also live in self._index.
        self._pending_adds: Dict[str, Dict[str, int]] = {}
        self._rebuild_index_pending = False
        #: Unpublished ingest intents (mirrored in INTENT_FILE), keyed
        #: by schema id; entries drop out once a manifest write makes
        #: their ingest durable.
        self._intent: Dict[str, Dict[str, Any]] = {}
        #: Why the repository is read-only, or None. Set on any failed
        #: durable write, cleared by the next successful one — the
        #: degradation re-probes the disk instead of latching.
        self._read_only_reason: Optional[str] = None
        self._dirty = False
        if exists:
            self._open_existing(manifest_path, config)
        else:
            self._initialize(config)
        self.session = MatchSession(
            thesaurus=self.thesaurus, config=self.config
        )
        #: schema_id -> loaded/ingested PreparedSchema, bounded by
        #: the same LRU limit the session honors.
        self._loaded: Dict[str, PreparedSchema] = {}
        # Intent recovery marks the repository dirty so the recovered
        # (or rolled-back) state reaches the manifest on the next save.
        self._dirty = self._dirty or not exists
        if self._rebuild_index_pending:
            self._rebuild_index()

    # ------------------------------------------------------------------
    # Open / create
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str,
        config: Optional[CupidConfig] = None,
        thesaurus: Optional[Thesaurus] = None,
    ) -> "SchemaRepository":
        """Open an existing repository (raises if ``path`` has none)."""
        return cls(path, config=config, thesaurus=thesaurus, must_exist=True)

    def _initialize(self, config: Optional[CupidConfig]) -> None:
        if config is None:
            config = CupidConfig()
        config.validate()
        self.config = config
        self._schemas: Dict[str, Dict[str, Any]] = {}
        self._index = VocabularyIndex()
        os.makedirs(os.path.join(self.path, SCHEMAS_DIR), exist_ok=True)

    def _open_existing(
        self, manifest_path: str, config: Optional[CupidConfig]
    ) -> None:
        manifest = _read_json(manifest_path, "repository manifest")
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise RepositoryError(
                f"repository format version {version!r} is not supported "
                f"(this build reads version {FORMAT_VERSION})"
            )
        try:
            stored_config = config_from_dict(manifest["config"])
            stored_thesaurus_fp = manifest["thesaurus_fingerprint"]
            self._schemas = dict(manifest["schemas"])
        except (KeyError, ValueError, TypeError) as exc:
            raise RepositoryError(
                f"repository manifest is corrupt: {exc!r}"
            ) from exc
        if self.thesaurus.fingerprint() != stored_thesaurus_fp:
            raise RepositoryError(
                "thesaurus mismatch: this repository's artifacts were "
                "prepared under different linguistic knowledge (open it "
                "with the thesaurus it was created with)"
            )
        if config is not None:
            if config_fingerprint(config) != config_fingerprint(
                stored_config
            ):
                raise RepositoryError(
                    "config mismatch: the passed config's result-"
                    "affecting parameters differ from the ones this "
                    "repository's artifacts were prepared under"
                )
            self.config = config
        else:
            # Restore only the result-affecting fields. Runtime knobs
            # (engine, backend, cache bounds) come from this process's
            # defaults: pinning e.g. a stdlib backend recorded at
            # create time would silently slow every later open on a
            # numpy machine.
            self.config = CupidConfig().replace(**{
                name: getattr(stored_config, name)
                for name in SEMANTIC_CONFIG_FIELDS
            })
        entries = manifest.get("index_segments")
        if entries is not None:
            # The normal open path since PR 7: replay the checksummed
            # segment sequence — O(index size), no artifact bytes read.
            replay_span = trace.start_span(
                "repo.segment_replay", segments=len(entries)
            )
            try:
                self._index = load_index_from_segments(self.path, entries)
                self._segment_entries = [dict(entry) for entry in entries]
                self._counters["segments_loaded"] += len(
                    self._segment_entries
                )
            except SegmentError:
                # A segment the manifest names is missing, torn, or
                # fails its checksum: the artifacts are the source of
                # truth, so fall back to the full re-scan.
                self._counters["segment_fallbacks"] += 1
                self._index = VocabularyIndex()
                self._segment_entries = []
                if replay_span is not None:
                    replay_span.annotate(fallback=True)
            finally:
                trace.end_span(replay_span)
            if os.path.exists(os.path.join(self.path, INDEX_FILE)):
                # A crash between the first segment-bearing manifest
                # and the legacy-file cleanup left a stale index.json
                # behind; mark dirty so the next save finishes the
                # migration (the segment sequence is authoritative).
                self._dirty = True
        else:
            # Pre-segment repository: read the legacy single-file
            # index once; the next save persists it as a segment.
            index_path = os.path.join(self.path, INDEX_FILE)
            if os.path.exists(index_path):
                self._index = VocabularyIndex.from_dict(
                    _read_json(index_path, "repository index")
                )
                self._pending_adds = {
                    schema_id: dict(profile)
                    for schema_id, profile in self._index.profile_items()
                }
            else:
                self._index = VocabularyIndex()
        self._recover_intent()
        if self._index.indexed_ids() != set(self._schemas):
            # A missing or stale index (crash between the index and
            # manifest writes): searching through it would silently
            # drop or over-rank schemas, so rebuild from the artifact
            # files — they are the source of truth.
            self._index = VocabularyIndex()
            self._segment_entries = []
            self._pending_adds = {}
            if self._schemas:
                self._rebuild_index_pending = True

    def _recover_intent(self) -> None:
        """Resolve the write-ahead intent record left by a crash.

        Every pending entry is either **completed** — its artifact file
        parses and hashes back to the content-addressed id the intent
        named, so the ingest is finished by registering it in the
        catalog and index — or **rolled back**: the partial artifact
        (missing, torn, or wrong content) is deleted. Either way the
        reopened repository is a consistent prefix-plus-recoveries of
        the ingest order; nothing is ever half-visible.

        Idempotent under re-crash: completed entries stay in the
        intent record until a manifest write publishes them, so dying
        again before that write just re-runs the same recovery.
        """
        path = os.path.join(self.path, INTENT_FILE)
        if not os.path.exists(path):
            return
        try:
            pending = list(_read_json(path, "ingest intent record")["pending"])
        except (RepositoryError, KeyError, TypeError):
            # A torn intent record was being written when the process
            # died — the artifact writes it would have covered never
            # started, so there is nothing to resolve.
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            return
        for entry in pending:
            schema_id = (
                entry.get("schema_id") if isinstance(entry, dict) else None
            )
            if not isinstance(schema_id, str):
                continue
            if schema_id in self._schemas:
                # Published before the crash; only the record cleanup
                # was lost. The next save rewrites the intent file.
                continue
            if self._artifact_is_complete(schema_id):
                try:
                    meta = dict(entry["meta"])
                    profile = {
                        str(token): int(count)
                        for token, count in entry["profile"].items()
                    }
                except (KeyError, TypeError, ValueError):
                    continue
                self._schemas[schema_id] = meta
                self._index.add(schema_id, profile)
                self._pending_adds[schema_id] = profile
                self._intent[schema_id] = dict(entry)
                self._counters["recovered_ingests"] += 1
            else:
                try:
                    os.remove(self._artifact_path(schema_id))
                except OSError:
                    pass
                self._counters["rolled_back_ingests"] += 1
            self._dirty = True
        if not self._intent:
            # Nothing left pending (all entries were published or
            # rolled back); the record has done its job.
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def _artifact_is_complete(self, schema_id: str) -> bool:
        """True if the artifact file hashes back to its own id.

        Ids are content-addressed (``<slug>-<fingerprint[:12]>``), so a
        complete artifact proves itself: the canonical schema payload
        inside must fingerprint to the id's suffix. A torn or foreign
        file cannot.
        """
        try:
            payload = _read_json(
                self._artifact_path(schema_id), f"artifact {schema_id!r}"
            )
            fingerprint = schema_fingerprint(payload["schema"])
        except (RepositoryError, KeyError, TypeError):
            return False
        return schema_id.endswith(fingerprint[:12])

    def _disown_foreign(
        self, schema: Union[Schema, PreparedSchema]
    ) -> Union[Schema, PreparedSchema]:
        """Strip a ``PreparedSchema`` built by someone else's matcher.

        Foreign artifacts (different thesaurus/config) would slip past
        every fingerprint guard: ingest would persist them, search
        would build a query token profile missing the expansions the
        corpus was indexed under. Falling back to the raw schema makes
        both paths re-prepare under this repository's components.
        """
        if isinstance(schema, PreparedSchema) and not schema.prepared_by(
            self.session.pipeline.linguistic
        ):
            return schema.schema
        return schema

    def _rebuild_index(self) -> None:
        """Recreate the vocabulary index from the artifact files.

        The artifacts are the source of truth; the index is a derived
        view, so losing ``index.json`` (crash between the manifest and
        index writes) is recoverable rather than fatal. Loads every
        artifact once — the one open path that is not lazy, taken only
        in this degraded state.
        """
        for schema_id in self._schemas:
            profile = token_profile(self.load(schema_id).linguistic)
            self._index.add(schema_id, profile)
            self._pending_adds[schema_id] = profile
        self._counters["index_rebuilds"] += 1
        self._rebuild_index_pending = False
        self._dirty = True

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingest(
        self,
        schema: Union[Schema, PreparedSchema],
        session: Optional[MatchSession] = None,
    ) -> str:
        """Add ``schema`` to the corpus; returns its repository id.

        The canonical schema is written to ``schemas/<id>.json``. Ingest
        prepares only what the repository derives from it: the
        linguistic tier for the index profile and the leaf layout for
        the catalog's leaf count; the first match builds the rest. Ids
        are content-addressed (canonical schema hash), so re-ingesting
        an identical schema is a cheap no-op returning the existing id —
        the duplicate check runs on the raw schema, before any
        preparation.

        Concurrent ingest never takes a long-held lock: preparation
        and the artifact write happen outside the repository lock
        (idempotent — both are pure functions of the schema), and only
        the catalog/index registration is serialized. ``session``
        selects which :class:`MatchSession` pays the preparation (the
        match service passes its compute thread's session; default is
        the repository's own).

        Durability ordering: a write-ahead intent record (everything a
        reopen needs to finish or undo this ingest) is durable *before*
        the artifact write starts, and cleared only after a manifest
        write publishes the schema — a crash anywhere in between is
        resolved on reopen, never half-visible. A failed durable write
        (disk full) raises :class:`RepositoryReadOnlyError`.
        """
        ingest_span = trace.start_span("repo.ingest")
        if ingest_span is None:
            return self._ingest_impl(schema, session)
        try:
            schema_id = self._ingest_impl(schema, session)
        finally:
            trace.end_span(ingest_span)
        ingest_span.annotate(schema_id=schema_id)
        return schema_id

    def _ingest_impl(
        self,
        schema: Union[Schema, PreparedSchema],
        session: Optional[MatchSession] = None,
    ) -> str:
        schema = self._disown_foreign(schema)
        raw = schema.schema if isinstance(schema, PreparedSchema) else schema
        canonical = canonical_schema_dict(raw)
        fingerprint = schema_fingerprint(canonical)
        schema_id = f"{_slug(raw.name)}-{fingerprint[:12]}"
        with self._lock:
            if schema_id in self._schemas:
                self._counters["ingest_duplicates"] += 1
                return schema_id
        prepared = (session or self.session).prepare(schema)
        payload = prepared_to_dict(prepared, canonical=canonical)
        profile = token_profile(prepared.linguistic)
        meta = {
            "name": prepared.schema.name,
            "file": f"{SCHEMAS_DIR}/{schema_id}.json",
            "elements": len(prepared.schema.elements),
            "leaves": len(prepared.leaf_layout.leaves),
        }
        with self._lock:
            if schema_id in self._schemas:
                self._counters["ingest_duplicates"] += 1
                return schema_id
            self._intent[schema_id] = {
                "schema_id": schema_id,
                "meta": meta,
                "profile": profile,
            }
            try:
                self._write_intent_locked()
            except Exception:
                self._intent.pop(schema_id, None)
                raise
        artifact_path = self._artifact_path(schema_id)
        try:
            self._durable(
                lambda: atomic_write_json(
                    artifact_path, payload, site="repo.artifact"
                ),
                f"artifact write for {schema_id!r}",
            )
        except Exception:
            with self._lock:
                self._intent.pop(schema_id, None)
                try:
                    self._write_intent_locked()
                except RepositoryReadOnlyError:
                    # Disk still refusing writes; the stale record is
                    # harmless — a reopen rolls it back (no artifact).
                    pass
            raise
        with self._lock:
            if schema_id in self._schemas:
                # Lost a race against another ingest of the same
                # schema; the artifact write was byte-identical.
                self._counters["ingest_duplicates"] += 1
                return schema_id
            # Catalog and index are published together under the lock,
            # so any reader snapshot sees a consistent prefix of the
            # ingest order — never a schema that ranks but can't load
            # (or the reverse).
            self._schemas[schema_id] = meta
            self._index.add(schema_id, profile)
            self._pending_adds[schema_id] = profile
            self._cache_loaded(schema_id, prepared)
            self._counters["ingests"] += 1
            self._dirty = True
        return schema_id

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def schema_ids(self) -> List[str]:
        """Ingested ids, sorted (the corpus catalog)."""
        with self._lock:
            return sorted(self._schemas)

    def describe(self, schema_id: str) -> Dict[str, Any]:
        """Catalog metadata for one schema id."""
        with self._lock:
            meta = self._schemas.get(schema_id)
            if meta is None:
                raise RepositoryError(
                    f"repository has no schema {schema_id!r}"
                )
            return dict(meta)

    def __len__(self) -> int:
        with self._lock:
            return len(self._schemas)

    def __contains__(self, schema_id: str) -> bool:
        with self._lock:
            return schema_id in self._schemas

    def load(self, schema_id: str) -> PreparedSchema:
        """The :class:`PreparedSchema` of ``schema_id``'s stored schema.

        Reads the artifact file on first use (lazily — opening a
        repository loads no schema bytes at all) and caches the lazy
        ``PreparedSchema`` for the repository's lifetime, subject to
        the session's LRU bound; the repository's pipeline prepares it
        on first use. Loading runs outside the lock (two racing loads
        read twice and one result wins — wasted work, never a torn
        artifact).

        Raises plain :class:`RepositoryError` for an id the catalog
        does not hold, and :class:`ArtifactError` when a catalogued
        id's artifact cannot be read or loaded.
        """
        with self._lock:
            prepared = self._loaded.get(schema_id)
            if prepared is not None:
                # LRU refresh mirrors the session's policy.
                self._loaded[schema_id] = self._loaded.pop(schema_id)
                return prepared
            if schema_id not in self._schemas:
                raise RepositoryError(
                    f"repository has no schema {schema_id!r}"
                )
        try:
            prepared = self._read_artifact(schema_id)
        except RepositoryError as exc:
            raise ArtifactError(str(exc)) from exc
        with self._lock:
            racing = self._loaded.get(schema_id)
            if racing is not None:
                # First load published wins; every later match of
                # this id shares its lazy tiers.
                return racing
            self._counters["artifact_loads"] += 1
            self._cache_loaded(schema_id, prepared)
        return prepared

    def _cache_loaded(
        self, schema_id: str, prepared: PreparedSchema
    ) -> None:
        self._loaded[schema_id] = prepared
        limit = self.config.max_prepared_schemas
        while limit and len(self._loaded) > limit:
            victim = next(iter(self._loaded))
            if victim == schema_id:
                break
            del self._loaded[victim]

    def _artifact_path(self, schema_id: str) -> str:
        return os.path.join(self.path, SCHEMAS_DIR, f"{schema_id}.json")

    def _read_artifact(self, schema_id: str) -> PreparedSchema:
        """A fresh lazy :class:`PreparedSchema` of the artifact file."""
        payload = _read_json(
            self._artifact_path(schema_id), f"artifact {schema_id!r}"
        )
        return prepared_from_dict(
            payload, self.session.pipeline.linguistic, self.config
        )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(
        self,
        query: Union[Schema, PreparedSchema],
        k: int = 5,
        candidates: Optional[int] = None,
        session: Optional[MatchSession] = None,
        deadline: Optional[Any] = None,
    ) -> RepositorySearchResult:
        """Top-k most similar corpus schemas for ``query``.

        The vocabulary index ranks the whole corpus cheaply; the full
        Cupid pipeline then runs only against the top ``candidates``
        schemas (``None`` = all of them — the brute-force baseline the
        benchmark's recall is measured against). Results are ranked by
        :func:`match_score` and carry their complete
        :class:`CupidResult`, so callers can inspect every mapping.

        ``session`` selects which :class:`MatchSession` executes the
        matches (the match service passes its compute thread's
        session; a thread sharing the repository passes its own), and
        ``deadline`` — any object with a ``check(context)`` method
        raising on expiry, e.g. :class:`repro.serving.Deadline` — is
        consulted between candidate matches so a timed-out search
        stops burning its session promptly. The ranking snapshot is
        taken under the repository lock, so a search concurrent with
        ingest sees a consistent prefix of the corpus: every ranked id
        is loadable, and no half-registered schema ranks.

        The query is prepared for this search only
        (:meth:`MatchSession.transient`): when the search returns or
        raises, ``session`` forgets it and its lsim tables again,
        unless it held the query before the call. The candidates stay
        cached.
        """
        if k < 1:
            raise RepositoryError(f"search k must be >= 1 (got {k})")
        if candidates is not None and candidates < 1:
            raise RepositoryError(
                f"search candidates must be >= 1 (got {candidates})"
            )
        search_span = trace.start_span("repo.search", k=k)
        try:
            session = session or self.session
            with session.transient(self._disown_foreign(query)) as prep_q:
                # The index/match child spans share the exact boundaries of
                # the time_index_ms / time_match_ms stats, so the span tree
                # and the latency block always tell the same story.
                index_span = trace.start_span("repo.search.index")
                index_start = time.perf_counter()
                try:
                    with self._lock:
                        ranking = self._index.score(
                            token_profile(prep_q.linguistic), self.thesaurus
                        )
                        names = {
                            sid: self._schemas[sid]["name"]
                            for sid, _ in ranking
                        }
                        corpus = len(self._schemas)
                finally:
                    trace.end_span(index_span)
                index_elapsed = time.perf_counter() - index_start
                shortlist = [sid for sid, _ in ranking]
                if candidates is not None:
                    shortlist = shortlist[:candidates]

                match_span = trace.start_span(
                    "repo.search.match", candidates=len(shortlist)
                )
                match_start = time.perf_counter()
                try:
                    matches = []
                    for position, sid in enumerate(shortlist):
                        if deadline is not None:
                            deadline.check(
                                f"search {prep_q.schema.name!r} after "
                                f"{position} of {len(shortlist)} candidate "
                                "matches"
                            )
                        matches.append(
                            RankedMatch(
                                schema_id=sid,
                                schema_name=names[sid],
                                score=0.0,
                                result=session.match(prep_q, self.load(sid)),
                            )
                        )
                    for match in matches:
                        match.score = match_score(match.result)
                finally:
                    trace.end_span(match_span)
                match_elapsed = time.perf_counter() - match_start
                matches.sort(key=lambda m: (-m.score, m.schema_id))

            with self._lock:
                self._counters["searches"] += 1
                self._counters["search_candidates_matched"] += len(shortlist)
                self._counters["search_candidates_pruned"] += (
                    corpus - len(shortlist)
                )
            if search_span is not None:
                search_span.annotate(
                    corpus_size=corpus,
                    candidates_considered=len(shortlist),
                    candidates_pruned=corpus - len(shortlist),
                )
            return RepositorySearchResult(
                query_name=prep_q.schema.name,
                k=k,
                matches=matches[:k],
                candidate_scores=ranking,
                stats={
                    "corpus_size": corpus,
                    "candidates_considered": len(shortlist),
                    "candidates_pruned": corpus - len(shortlist),
                    "time_index_ms": round(index_elapsed * 1000.0, 3),
                    "time_match_ms": round(match_elapsed * 1000.0, 3),
                },
            )
        finally:
            trace.end_span(search_span)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self, schema_id: str) -> None:
        """Check what the repository derived from ``schema_id``'s schema.

        Reads the artifact *file* (never the in-memory cache — what is
        verified is what a future process will see), checks that its
        schema hashes back to the content-addressed id, prepares the
        schema afresh, and compares the derived data the repository
        keeps: the catalog's element and leaf counts and the index
        profile searches rank by. The fresh tree must also pass the
        interval-encoding oracle. Raises :class:`RepositoryError` on
        any drift.
        """
        with self._lock:
            meta = self._schemas.get(schema_id)
            indexed = self._index.profile_of(schema_id)
        if meta is None:
            raise RepositoryError(
                f"repository has no schema {schema_id!r}"
            )
        fresh = self._read_artifact(schema_id)
        fingerprint = schema_fingerprint(canonical_schema_dict(fresh.schema))
        if not schema_id.endswith(fingerprint[:12]):
            raise RepositoryError(
                f"{schema_id!r}: the artifact's schema does not hash to "
                "its id"
            )
        for key, value in (
            ("elements", len(fresh.schema.elements)),
            ("leaves", len(fresh.leaf_layout.leaves)),
        ):
            if meta.get(key) != value:
                raise RepositoryError(
                    f"{schema_id!r}: the catalog records {meta.get(key)!r} "
                    f"{key}, a fresh preparation has {value}"
                )
        profile = token_profile(fresh.linguistic)
        if indexed != profile:
            held = "no" if indexed is None else len(indexed)
            raise RepositoryError(
                f"{schema_id!r}: the index profile differs from a fresh "
                f"preparation ({held} tokens indexed, {len(profile)} "
                "fresh)"
            )
        try:
            verify_interval_encoding(fresh.tree)
        except SchemaError as exc:
            raise RepositoryError(
                f"{schema_id!r}: the prepared tree fails the interval-"
                f"encoding oracle: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, auto_compact: bool = True) -> None:
        """Flush the pending index segment and the manifest.

        Profiles added since the last flush become **one** append-only
        segment — the "per ingest batch" unit — and the manifest's
        segment sequence grows by one entry. When the sequence exceeds
        ``config.segment_compaction_threshold`` it is folded into a
        single compacted segment first; ``auto_compact=False`` skips
        that (the serving subsystem flushes on the request path and
        compacts from a background thread instead).
        """
        stale: List[str] = []
        with self._lock:
            self._flush_pending_segment()
            threshold = self.config.segment_compaction_threshold
            if (
                auto_compact
                and threshold
                and len(self._segment_entries) > threshold
            ):
                stale = self._compact_segments_locked()
            if self._dirty:
                self._write_manifest()
                self._dirty = False
                self._finish_publish_locked()
        remove_segment_files(self.path, stale)

    def compact(self) -> int:
        """Fold the segment sequence into one compacted segment now.

        Flushes any pending batch first, persists the new manifest,
        then deletes the superseded files. Returns the number of live
        segments after compaction (always 1 for a non-empty index, 0
        for an empty one). Idempotent on the index contents — a
        compacted repository compacts to the same profiles again.
        """
        compact_span = trace.start_span("repo.compact")
        try:
            with self._lock:
                self._flush_pending_segment()
                stale = self._compact_segments_locked()
                self._write_manifest()
                self._dirty = False
                self._finish_publish_locked()
                count = len(self._segment_entries)
            remove_segment_files(self.path, stale)
            if compact_span is not None:
                compact_span.annotate(
                    live_segments=count, removed_segments=len(stale)
                )
            return count
        finally:
            trace.end_span(compact_span)

    def segment_count(self) -> int:
        """Live segments plus the pending (unflushed) batch, if any."""
        with self._lock:
            return len(self._segment_entries) + (
                1 if self._pending_adds else 0
            )

    def _flush_pending_segment(self) -> None:
        """Write the pending batch as one new segment (lock held)."""
        if not self._pending_adds:
            return
        segment = IndexSegment(
            segment_id=next_segment_id(self._segment_entries),
            profiles=self._pending_adds,
        )
        entry = self._durable(
            lambda: write_segment(self.path, segment),
            "index segment write",
        )
        self._segment_entries.append(entry)
        self._pending_adds = {}
        self._counters["segments_written"] += 1
        self._dirty = True

    def _compact_segments_locked(self) -> List[str]:
        """Fold the on-disk sequence into one segment (lock held).

        Returns the superseded files for post-manifest deletion.
        """
        if len(self._segment_entries) <= 1:
            return []
        entries, stale = self._durable(
            lambda: compact_segments(
                self.path, self._index, self._segment_entries
            ),
            "segment compaction write",
        )
        self._segment_entries = entries
        self._counters["segment_compactions"] += 1
        self._counters["segments_written"] += 1
        self._dirty = True
        return stale

    def _write_manifest(self) -> None:
        self._durable(
            lambda: atomic_write_json(
                os.path.join(self.path, MANIFEST_FILE),
                {
                    "format_version": FORMAT_VERSION,
                    "config": config_to_dict(self.config),
                    "config_fingerprint": config_fingerprint(self.config),
                    "thesaurus_fingerprint": self.thesaurus.fingerprint(),
                    "schemas": self._schemas,
                    "index_segments": self._segment_entries,
                },
                site="repo.manifest",
            ),
            "manifest write",
        )

    def _finish_publish_locked(self) -> None:
        """Post-manifest cleanup (lock held, manifest durable).

        Drops intent entries the manifest just published (and rewrites
        or removes the intent record), then deletes the legacy
        single-file index — every new manifest carries the segment
        sequence, so ``index.json`` is stale the moment one lands. A
        crash before this cleanup loses nothing: reopening resolves
        published intent entries as no-ops and ignores the legacy file
        whenever the manifest names segments.
        """
        published = [sid for sid in self._intent if sid in self._schemas]
        for schema_id in published:
            del self._intent[schema_id]
        intent_path = os.path.join(self.path, INTENT_FILE)
        if published or (not self._intent and os.path.exists(intent_path)):
            try:
                self._write_intent_locked()
            except RepositoryReadOnlyError:
                # The manifest is durable; a stale intent record is
                # re-resolved (and found published) on the next open.
                pass
        try:
            os.remove(os.path.join(self.path, INDEX_FILE))
        except OSError:
            pass

    def _write_intent_locked(self) -> None:
        """Persist (or clear) the write-ahead intent record."""
        path = os.path.join(self.path, INTENT_FILE)
        if not self._intent:
            try:
                os.remove(path)
            except OSError:
                pass
            return
        self._durable(
            lambda: atomic_write_json(
                path,
                {
                    "format_version": FORMAT_VERSION,
                    "pending": [
                        self._intent[schema_id]
                        for schema_id in sorted(self._intent)
                    ],
                },
                site="repo.intent",
            ),
            "ingest intent write",
        )

    def _durable(self, write, what: str):
        """Run a durable-write thunk with read-only degradation.

        A failed write (``OSError`` — disk full, read-only mount)
        counts against ``write_failures``, records the reason, and
        surfaces :class:`RepositoryReadOnlyError`; a successful one
        clears the flag. Non-sticky by design: every durable write
        re-probes the disk, so the repository exits read-only the
        moment the condition does.
        """
        try:
            result = write()
        except OSError as exc:
            with self._lock:
                self._counters["write_failures"] += 1
                self._read_only_reason = f"{what} failed: {exc}"
            raise RepositoryReadOnlyError(
                f"{what} failed ({exc}); the repository is serving "
                "read-only until a durable write succeeds"
            ) from exc
        with self._lock:
            self._read_only_reason = None
        return result

    def close(self) -> None:
        """Alias for :meth:`save` (the context-manager exit hook)."""
        self.save()

    def __enter__(self) -> "SchemaRepository":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Flush even when unwinding an exception: every ingest leaves
        # the in-memory catalog consistent with the artifact files
        # already on disk, so persisting it can only *reduce* the loss
        # (e.g. a CLI piped into `head` dying of BrokenPipeError after
        # a successful bulk ingest). Save errors must not mask the
        # original exception, though.
        try:
            self.save()
        except Exception:
            if exc_type is None:
                raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def cache_info(self) -> Dict[str, Any]:
        """Repository counters merged with the session's cache tiers.

        Also reports the linguistic memo's size once
        (``memo_token_entries``): the memo is the pipeline's, shared by
        this repository's session and every session on its pipeline
        (the match service's among them), so no per-session count may
        carry it.
        """
        with self._lock:
            info: Dict[str, Any] = dict(self._counters)
            info["repository_schemas"] = len(self._schemas)
            info["repository_loaded"] = len(self._loaded)
            info["index_tokens"] = self._index.n_tokens
            info["index_postings"] = self._index.n_postings
            info["index_segments"] = len(self._segment_entries)
            info["pending_index_adds"] = len(self._pending_adds)
            info["read_only"] = self._read_only_reason is not None
        info.update(self.session.cache_info())
        memo = self.session.pipeline.linguistic.memo
        if memo is not None:
            info["memo_token_entries"] = memo.token_entries()
        return info

    @property
    def read_only(self) -> bool:
        """True while the last durable write failed (degraded mode)."""
        with self._lock:
            return self._read_only_reason is not None

    def recovery_info(self) -> Dict[str, Any]:
        """The durability/recovery story in one dict.

        What ``GET /stats`` and ``repro search --stats`` surface: the
        fallback and recovery counters, pending intent entries, and
        the read-only degradation state.
        """
        with self._lock:
            return {
                "segment_fallbacks": self._counters["segment_fallbacks"],
                "index_rebuilds": self._counters["index_rebuilds"],
                "recovered_ingests": self._counters["recovered_ingests"],
                "rolled_back_ingests": (
                    self._counters["rolled_back_ingests"]
                ),
                "write_failures": self._counters["write_failures"],
                "pending_intents": len(self._intent),
                "read_only": self._read_only_reason is not None,
                "read_only_reason": self._read_only_reason,
            }

    def audit_segments(self) -> List[str]:
        """Verify every manifest-named segment checksum from disk.

        Re-reads the manifest *file* (not the in-memory entries — a
        fallback open has already emptied those) so the audit reports
        exactly what the next process will find. Also checks that every
        cataloged schema's artifact file exists. Returns human-readable
        problem strings; an empty list is a clean bill.
        """
        problems: List[str] = []
        manifest_path = os.path.join(self.path, MANIFEST_FILE)
        try:
            manifest = _read_json(manifest_path, "repository manifest")
        except RepositoryError as exc:
            return [str(exc)]
        for entry in manifest.get("index_segments") or []:
            try:
                read_segment(self.path, entry)
            except SegmentError as exc:
                problems.append(str(exc))
        catalog = manifest.get("schemas")
        if isinstance(catalog, dict):
            for schema_id in sorted(catalog):
                if not os.path.exists(self._artifact_path(schema_id)):
                    problems.append(
                        f"artifact file missing for {schema_id!r}"
                    )
        return problems


# ----------------------------------------------------------------------
# JSON read helper (uniform corruption errors); writes go through
# repro.repository.durability so every file shares one crash-safe path.
# ----------------------------------------------------------------------

def _read_json(path: str, what: str) -> Any:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise RepositoryError(f"{what} missing: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        raise RepositoryError(
            f"{what} at {path} is unreadable or corrupt: {exc}"
        ) from exc
