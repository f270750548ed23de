"""The persistent schema repository: ingest once, search forever.

Cupid frames Match as a service over a *repository* of schemas
(Section 2), but an in-process :class:`~repro.pipeline.session.
MatchSession` forgets everything at exit. :class:`SchemaRepository`
keeps the schemas and what ranks them:

* **ingest(schema)** stores the canonical schema
  (:mod:`repro.repository.artifacts`) under a content-addressed id,
  with its catalog entry: element and leaf counts and the index token
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

Directory layout (all JSON)::

    <root>/repository.json    manifest: versions, config, fingerprints
                              and the schema catalog, one entry per
                              schema carrying its index profile
    <root>/schemas/<id>.json  one artifact file per ingested schema

**One publish point.** The manifest is the only file that makes a
schema visible. An ingest writes its artifact; :meth:`SchemaRepository.
save` then rewrites the manifest with one atomic rename, which
publishes the catalog and the index profiles together, so the two can
never disagree. Opening builds the index from the catalog alone and
reads no artifact.

**Recovery.** An artifact file of the id form (``<slug>-<12 hex>.json``)
that the catalog does not name was written by an ingest that a crash
cut off before its publish. Opening finishes that ingest when the file
hashes back to its id (the schema is prepared and registered in
memory) and rolls it back otherwise (the file is recorded, and the
next ``save()`` deletes it after the manifest write). Opening writes
nothing, so ``repro verify`` inspects a crashed repository without
healing it, and a crash before the next save re-runs the same
decisions.

Earlier builds also kept the index in checksummed segment files under
``index/``, a write-ahead ``ingest.intent.json`` and the memo's token
tier in a similarity-cache file; none of them is read or deleted.
Their catalog entries carry no profile: opening derives it from the
artifact once (``index_rebuilds``), and the next save persists it.

The repository is safe for concurrent use from multiple threads:
catalog/index mutations are guarded by one short-held lock, while
schema preparation and candidate matching — the expensive parts — run
outside it, optionally on a caller-supplied
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
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.config import CupidConfig
from repro.exceptions import (
    ArtifactError,
    RepositoryError,
    RepositoryReadOnlyError,
    SchemaError,
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

MANIFEST_FILE = "repository.json"
SCHEMAS_DIR = "schemas"

_SLUG_RE = re.compile(r"[^a-z0-9]+")
#: An artifact file name of the id form ``<slug>-<fingerprint[:12]>``.
_ARTIFACT_NAME_RE = re.compile(r"([a-z0-9-]+-[0-9a-f]{12})\.json")


def _slug(name: str) -> str:
    slug = _SLUG_RE.sub("-", name.lower()).strip("-")
    return slug[:40] or "schema"


def _catalog_entry(
    schema_id: str, prepared: PreparedSchema
) -> Dict[str, Any]:
    """The manifest's catalog entry for ``prepared``: what opening and
    searching need without reading the artifact (name, file, element
    and leaf counts, and the index profile searches rank by)."""
    return {
        "name": prepared.schema.name,
        "file": f"{SCHEMAS_DIR}/{schema_id}.json",
        "elements": len(prepared.schema.elements),
        "leaves": len(prepared.leaf_layout.leaves),
        "profile": token_profile(prepared.linguistic),
    }


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
    >>> repo.save()                            # publish the catalog

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
            "recovered_ingests": 0,
            "rolled_back_ingests": 0,
            "write_failures": 0,
        }
        # Guards the catalog, index, counters, the rolled-back set and
        # the loaded-artifact cache. Held only for in-memory mutation
        # and the manifest write — preparation and matching (the
        # expensive work) always run outside it.
        self._lock = threading.RLock()
        #: Ids of uncatalogued artifacts that recovery rolled back; the
        #: next save() deletes their files after its manifest write.
        self._rolled_back: Set[str] = set()
        #: Why the repository is read-only, or None. Set on any failed
        #: durable write, cleared by the next successful one — the
        #: degradation re-probes the disk instead of latching.
        self._read_only_reason: Optional[str] = None
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
        self._dirty = not exists
        if exists:
            # Both steps prepare schemas, so they wait for the session.
            self._derive_missing_profiles()
            self._recover_uncatalogued()

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
            # The index comes from the catalog alone: no artifact read.
            self._index = VocabularyIndex()
            for schema_id, entry in self._schemas.items():
                if "profile" in entry:
                    self._index.add(schema_id, entry["profile"])
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
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

    def _derive_missing_profiles(self) -> None:
        """Complete catalog entries an earlier build wrote.

        Their index profile lived in separate files; here it is
        derived from the artifact once (one ``index_rebuilds`` per
        open), and the next save persists it. An entry whose artifact
        cannot be read stays catalogued without a profile: it does not
        rank, :meth:`load` raises :class:`ArtifactError` for it and
        :meth:`verify` reports it.
        """
        derived = False
        for schema_id, entry in self._schemas.items():
            if "profile" in entry:
                continue
            fresh = self._entry_from_artifact(schema_id)
            if fresh is None:
                continue
            for key, value in fresh.items():
                entry.setdefault(key, value)
            self._index.add(schema_id, entry["profile"])
            derived = True
        if derived:
            self._counters["index_rebuilds"] += 1
            self._dirty = True

    def _recover_uncatalogued(self) -> None:
        """Finish or roll back the ingests a crash cut off.

        An ingest writes its artifact before :meth:`save` publishes
        the catalog, so an artifact file of the id form that the
        catalog does not name is an ingest that never published. When
        the file hashes back to its id, the ingest is **finished**: the
        schema is prepared by this repository's pipeline and
        registered in the catalog and index (``recovered_ingests``).
        Any other such file (torn, or not the schema its name claims)
        is **rolled back** (``rolled_back_ingests``): recorded, and
        deleted by the next save once its manifest is durable. Either
        way nothing is half-visible. Only memory changes here, so a
        crash before that save re-runs the same decisions.
        """
        try:
            names = sorted(os.listdir(os.path.join(self.path, SCHEMAS_DIR)))
        except OSError:
            return
        for name in names:
            matched = _ARTIFACT_NAME_RE.fullmatch(name)
            if matched is None or matched.group(1) in self._schemas:
                continue
            schema_id = matched.group(1)
            entry = (
                self._entry_from_artifact(schema_id)
                if self._artifact_is_complete(schema_id)
                else None
            )
            if entry is None:
                self._rolled_back.add(schema_id)
                self._counters["rolled_back_ingests"] += 1
            else:
                self._schemas[schema_id] = entry
                self._index.add(schema_id, entry["profile"])
                self._counters["recovered_ingests"] += 1
            self._dirty = True

    def _entry_from_artifact(
        self, schema_id: str
    ) -> Optional[Dict[str, Any]]:
        """The catalog entry of ``schema_id``'s artifact file, prepared
        afresh by this repository's pipeline; None if the file cannot
        be read or loaded."""
        try:
            return _catalog_entry(schema_id, self._read_artifact(schema_id))
        except RepositoryError:
            return None

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

        Durability ordering: the artifact is durable before the schema
        enters the in-memory catalog, and :meth:`save` publishes the
        catalog. A crash in between leaves an artifact the catalog does
        not name, which the next open finishes or rolls back — never
        half-visible. A failed durable write (disk full) raises
        :class:`RepositoryReadOnlyError`.
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
            # This ingest rewrites the artifact of a rolled-back id, so
            # save() must leave the file alone.
            self._rolled_back.discard(schema_id)
        prepared = (session or self.session).prepare(schema)
        payload = prepared_to_dict(prepared, canonical=canonical)
        entry = _catalog_entry(schema_id, prepared)
        artifact_path = self._artifact_path(schema_id)
        self._durable(
            lambda: atomic_write_json(
                artifact_path, payload, site="repo.artifact"
            ),
            f"artifact write for {schema_id!r}",
        )
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
            self._schemas[schema_id] = entry
            self._index.add(schema_id, entry["profile"])
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
        """Catalog metadata for one schema id (a copy of its entry)."""
        with self._lock:
            meta = self._schemas.get(schema_id)
            if meta is None:
                raise RepositoryError(
                    f"repository has no schema {schema_id!r}"
                )
            entry = dict(meta)
            if "profile" in entry:
                entry["profile"] = dict(entry["profile"])
            return entry

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
        keeps: the catalog entry's element and leaf counts and the
        index profile searches rank by. The fresh tree must also pass
        the interval-encoding oracle. Raises :class:`RepositoryError`
        on any drift.
        """
        with self._lock:
            meta = self._schemas.get(schema_id)
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
        derived = _catalog_entry(schema_id, fresh)
        for key in ("elements", "leaves"):
            if meta.get(key) != derived[key]:
                raise RepositoryError(
                    f"{schema_id!r}: the catalog records {meta.get(key)!r} "
                    f"{key}, a fresh preparation has {derived[key]}"
                )
        catalogued = meta.get("profile")
        if catalogued != derived["profile"]:
            held = "no" if catalogued is None else len(catalogued)
            raise RepositoryError(
                f"{schema_id!r}: the catalog's index profile differs from "
                f"a fresh preparation ({held} tokens catalogued, "
                f"{len(derived['profile'])} fresh)"
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

    def save(self) -> None:
        """Publish the catalog: one atomic write of the manifest.

        Every catalog entry carries its index profile, so this one
        rename publishes catalog and index together. Once the manifest
        is durable, the artifacts recovery rolled back are deleted
        (an id ingested since keeps its new file). A repository with
        nothing new writes nothing.
        """
        with self._lock:
            if not self._dirty:
                return
            self._write_manifest()
            self._dirty = False
            for schema_id in sorted(self._rolled_back):
                try:
                    os.remove(self._artifact_path(schema_id))
                except OSError:
                    pass
            self._rolled_back.clear()

    def _write_manifest(self) -> None:
        # Compact JSON: with a profile per entry, an indented manifest
        # takes several times longer to encode on every save.
        self._durable(
            lambda: atomic_write_json(
                os.path.join(self.path, MANIFEST_FILE),
                {
                    "format_version": FORMAT_VERSION,
                    "config": config_to_dict(self.config),
                    "config_fingerprint": config_fingerprint(self.config),
                    "thesaurus_fingerprint": self.thesaurus.fingerprint(),
                    "schemas": self._schemas,
                },
                site="repo.manifest",
                indent=None,
            ),
            "manifest write",
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
        rebuild and recovery counters and the read-only degradation
        state.
        """
        with self._lock:
            return {
                "index_rebuilds": self._counters["index_rebuilds"],
                "recovered_ingests": self._counters["recovered_ingests"],
                "rolled_back_ingests": (
                    self._counters["rolled_back_ingests"]
                ),
                "write_failures": self._counters["write_failures"],
                "read_only": self._read_only_reason is not None,
                "read_only_reason": self._read_only_reason,
            }

    def audit(self) -> List[str]:
        """Check the on-disk layout without changing it.

        Re-reads the manifest *file* (not the in-memory catalog, which
        an open may have completed) so the audit reports exactly what
        the next process will find, and checks that every catalogued
        schema's artifact file exists. Returns human-readable problem
        strings; an empty list is a clean bill.
        """
        problems: List[str] = []
        manifest_path = os.path.join(self.path, MANIFEST_FILE)
        try:
            manifest = _read_json(manifest_path, "repository manifest")
        except RepositoryError as exc:
            return [str(exc)]
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
