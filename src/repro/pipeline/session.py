"""Session-oriented matching: prepare once, match many times.

The paper's own deployment scenarios are batch-shaped: a mediated
schema matched against N source schemas, a warehouse schema matched
against each incoming feed, a user iterating hint → re-match on the
same pair. The monolithic ``CupidMatcher.match`` re-did every per-
schema phase on each call; a :class:`MatchSession` caches them:

* one :class:`~repro.pipeline.prepared.PreparedSchema` per schema
  (normalization, categorization, tree construction, dense leaf
  layout), shared across every match that schema participates in;
* one lsim table per (source, target) pair, so re-matching the same
  pair — the Section 8.4 iterative-feedback loop — skips the linguistic
  phase entirely (:meth:`rematch`);
* the pipeline's linguistic memo, warm across all of the session's
  matches. It lives in memory only: nothing persists it, not even a
  :class:`~repro.repository.SchemaRepository`, since it is pure and
  cheap to refill.

Results are bit-identical to independent ``CupidMatcher.match`` calls:
everything cached is a pure function of (schema, thesaurus, config).

>>> from repro import MatchSession
>>> session = MatchSession()
>>> results = session.match_many(mediated, sources)     # doctest: +SKIP
>>> better = session.rematch(results[0],
...     feedback=[("Order.Qty", "PO.Quantity")])        # doctest: +SKIP
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.config import CupidConfig
from repro.linguistic.matcher import LsimTable
from repro.linguistic.thesaurus import Thesaurus
from repro.model.datatypes import TypeCompatibilityTable
from repro.model.schema import Schema
from repro.pipeline.context import InitialMapping
from repro.pipeline.pipeline import MatchPipeline, SchemaLike
from repro.pipeline.prepared import PreparedSchema
from repro.pipeline.result import CupidResult


class MatchSession:
    """Caches per-schema and per-pair artifacts across matches.

    Parameters mirror :class:`~repro.core.cupid.CupidMatcher`; pass a
    custom ``pipeline`` to run a substituted stage sequence under the
    same caching (the session only caches what the pipeline's stages
    actually consume).

    Entries are keyed by object identity, so a schema that is never
    matched again — a search query parsed from one request — is never
    hit again either. :meth:`release` drops such a schema with every
    lsim table it is in, and :meth:`transient` scopes one to a single
    call: prepared on entry, released on exit unless it was registered
    before the call. The repository's search and the match service's
    ``match`` use it for the schemas a request brings, so a long-lived
    session holds only the corpus it keeps matching against.
    """

    def __init__(
        self,
        thesaurus: Optional[Thesaurus] = None,
        config: Optional[CupidConfig] = None,
        compat: Optional[TypeCompatibilityTable] = None,
        pipeline: Optional[MatchPipeline] = None,
    ) -> None:
        if pipeline is None:
            pipeline = MatchPipeline.default(
                thesaurus=thesaurus, config=config, compat=compat
            )
        self.pipeline = pipeline
        # id(schema) -> (schema, prepared); holding the schema keeps
        # the id stable for the entry's lifetime. Insertion order is
        # least-recently-matched first: prepare() re-inserts on every
        # hit, so when config.max_prepared_schemas bounds the cache the
        # front entry is always the eviction victim.
        self._prepared: Dict[int, Tuple[Schema, PreparedSchema]] = {}
        # id(prepared) for every currently-registered prepared schema.
        # Guards the lsim cache against id reuse: entries may only be
        # added (or trusted) while both endpoints are live, and
        # eviction purges every pair the victim participates in.
        self._live_prep_ids: set = set()
        # (id(prep_s), id(prep_t)) -> pristine lsim table for the pair.
        self._lsim_cache: Dict[Tuple[int, int], LsimTable] = {}
        self._counters = {
            "matches": 0,
            "prepare_hits": 0,
            "prepare_misses": 0,
            "lsim_hits": 0,
            "lsim_misses": 0,
            "prepared_evictions": 0,
            "lsim_evictions": 0,
        }
        # Guards the prepared/lsim tiers and every counter dict, so the
        # session is safe to share across threads (a concurrent
        # ``match_many``, or ``/stats`` reading the match service's
        # session while its compute thread matches). Held only for
        # cache bookkeeping — pipeline.run() and prepare()'s heavy
        # lifting execute outside it, so matches on distinct pairs
        # overlap. The linguistic memo is intentionally *not* behind
        # this lock: its entries are pure values keyed by token texts,
        # so a racing recompute stores an identical result (wasted
        # work, never a wrong one), and serializing it would serialize
        # the whole linguistic phase across the sessions that share
        # one pipeline.
        self._tier_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Caching
    # ------------------------------------------------------------------

    def prepare(self, schema: SchemaLike) -> PreparedSchema:
        """The session's cached :class:`PreparedSchema` for ``schema``.

        Accepts an already-prepared schema (registered so later calls
        with its raw schema hit the same artifact).
        """
        return self._prepare(schema)[0]

    @contextmanager
    def transient(self, schema: SchemaLike) -> Iterator[PreparedSchema]:
        """Prepare ``schema`` for the duration of one call.

        Yields the session's :class:`PreparedSchema` for it, as
        :meth:`prepare` does. On exit — also when the call raises —
        :meth:`release` drops it if this call registered it; a schema
        registered before the call (say by the caller's own
        :meth:`prepare`) stays registered.
        """
        prepared, registered = self._prepare(schema)
        try:
            yield prepared
        finally:
            if registered:
                self.release(prepared)

    def _prepare(self, schema: SchemaLike) -> Tuple[PreparedSchema, bool]:
        """:meth:`prepare`, plus whether this call registered it."""
        if isinstance(schema, PreparedSchema):
            with self._tier_lock:
                registered = self._prepared.get(id(schema.schema))
                if registered is not None:
                    # The session's own artifact wins: while
                    # registered, its id() — the lsim-cache key —
                    # cannot be reused by a new object.
                    self._counters["prepare_hits"] += 1
                    self._touch(id(schema.schema))
                    return registered[1], False
                self._register(id(schema.schema), schema.schema, schema)
                return schema, True
        with self._tier_lock:
            entry = self._prepared.get(id(schema))
            if entry is not None:
                self._counters["prepare_hits"] += 1
                self._touch(id(schema))
                return entry[1], False
        # Preparation runs outside the lock — it is the expensive part
        # and a pure function of the schema, so two threads racing on
        # the same schema compute identical artifacts and the first to
        # register wins.
        prepared = self.pipeline.prepare(schema)
        with self._tier_lock:
            entry = self._prepared.get(id(schema))
            if entry is not None:
                self._counters["prepare_hits"] += 1
                self._touch(id(schema))
                return entry[1], False
            self._counters["prepare_misses"] += 1
            self._register(id(schema), schema, prepared)
        return prepared, True

    def release(self, prepared: PreparedSchema) -> None:
        """Forget ``prepared`` and every cached lsim table it is in.

        A no-op unless ``prepared`` is the session's registered
        artifact for its schema (it may have been evicted, or never
        registered). Not counted as an eviction: the eviction counters
        measure pressure on ``config.max_prepared_schemas`` only.
        """
        with self._tier_lock:
            key = id(prepared.schema)
            entry = self._prepared.get(key)
            if entry is not None and entry[1] is prepared:
                self._drop(key)

    def _touch(self, key: int) -> None:
        """Move ``key``'s entry to the recently-used end."""
        self._prepared[key] = self._prepared.pop(key)

    def _register(
        self, key: int, schema: Schema, prepared: PreparedSchema
    ) -> None:
        self._prepared[key] = (schema, prepared)
        self._live_prep_ids.add(id(prepared))
        limit = self.pipeline.config.max_prepared_schemas
        while limit and len(self._prepared) > limit:
            self._evict_oldest()

    def _evict_oldest(self) -> None:
        """Drop the least-recently-matched prepared schema."""
        self._counters["prepared_evictions"] += 1
        self._counters["lsim_evictions"] += self._drop(
            next(iter(self._prepared))
        )

    def _drop(self, key: int) -> int:
        """Unregister the entry under ``key``; returns how many cached
        lsim tables went with it.

        Its lsim tables must go: their keys embed the dropped object's
        id(), which a future PreparedSchema could legitimately reuse
        once this reference is gone.
        """
        _, prepared = self._prepared.pop(key)
        prep_id = id(prepared)
        self._live_prep_ids.discard(prep_id)
        stale = [
            pair for pair in self._lsim_cache
            if prep_id in pair
        ]
        for pair in stale:
            del self._lsim_cache[pair]
        return len(stale)

    def _cached_lsim(
        self, prep_s: PreparedSchema, prep_t: PreparedSchema
    ) -> Optional[LsimTable]:
        with self._tier_lock:
            cached = self._lsim_cache.get((id(prep_s), id(prep_t)))
            if cached is None:
                return None
            self._counters["lsim_hits"] += 1
            # Hand out a copy: initial-mapping hints mutate the table.
            return cached.copy()

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def match(
        self,
        source: SchemaLike,
        target: SchemaLike,
        initial_mapping: Optional[InitialMapping] = None,
    ) -> CupidResult:
        """Match with every applicable session cache engaged."""
        prep_s = self.prepare(source)
        prep_t = self.prepare(target)
        with self._tier_lock:
            self._counters["matches"] += 1
        lsim_table = self._cached_lsim(prep_s, prep_t)
        fresh = lsim_table is None
        if fresh:
            with self._tier_lock:
                self._counters["lsim_misses"] += 1
        result = self.pipeline.run(
            prep_s,
            prep_t,
            initial_mapping=initial_mapping,
            lsim_table=lsim_table,
        )
        with self._tier_lock:
            if (
                fresh
                and not initial_mapping
                and result.lsim_table is not None
                and id(prep_s) in self._live_prep_ids
                and id(prep_t) in self._live_prep_ids
            ):
                # Only a hint-free table is pristine enough to cache,
                # and only while both prepared schemas are still
                # registered (an LRU eviction between prepare() and
                # here would leave a table keyed by a reusable id).
                self._lsim_cache[(id(prep_s), id(prep_t))] = (
                    result.lsim_table.copy()
                )
        return result

    def match_many(
        self,
        source: SchemaLike,
        targets: Iterable[SchemaLike],
    ) -> List[CupidResult]:
        """Match one source against each target (one prepare, N
        matches) — the mediated-schema / warehouse-loading batch shape.
        """
        prep_s = self.prepare(source)
        return [self.match(prep_s, target) for target in targets]

    def rematch(
        self,
        result: CupidResult,
        feedback: Optional[InitialMapping] = None,
    ) -> CupidResult:
        """Re-run a previous result's pair with user feedback.

        Section 8.4: "the user can make corrections to a generated
        result map, and then re-run the match with the corrected input
        map". The pair's prepared schemas and lsim table come from the
        session caches, so only the structural and mapping phases
        actually re-run.
        """
        return self.match(
            result.source_schema,
            result.target_schema,
            initial_mapping=feedback,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def cache_info(self) -> Dict[str, int]:
        """Session cache counters (also in CLI ``match-many --stats``)."""
        with self._tier_lock:
            return self._cache_info_locked()

    def _cache_info_locked(self) -> Dict[str, int]:
        info = dict(self._counters)
        info["prepared_schemas"] = len(self._prepared)
        info["cached_lsim_pairs"] = len(self._lsim_cache)
        # The vocabulary tier: distinct-name factorings the kernel has
        # built and retained on the session's prepared schemas.
        vocabularies = 0
        distinct_names = 0
        for _, prepared in self._prepared.values():
            vocabulary = prepared.vocabulary
            if vocabulary is not None:
                vocabularies += 1
                distinct_names += vocabulary.n_names
        info["vocabulary_tables"] = vocabularies
        info["vocabulary_distinct_names"] = distinct_names
        return info
