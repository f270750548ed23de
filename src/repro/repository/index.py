"""Vocabulary-token candidate index for repository search.

Running full Cupid (linguistic + TreeMatch) against every schema in a
corpus is the brute-force baseline; the paper's framing of Match as a
service over a schema repository only scales if most of the corpus can
be dismissed without matching it. This module provides that pruning
tier:

* an **inverted index** from normalized name tokens to schema
  postings. Tokens come from each schema's distinct-name vocabulary
  (the PR 3 kernel factoring), so a token posts once per distinct
  name, not once per element — wide fact tables repeating "id" 200
  times count once. Normalization has already expanded abbreviations
  and tagged concepts, so "Qty" and "Quantity" land on the same
  posting, and Price/Cost share their "money" concept token.
* a **profile-overlap scorer**: TF-IDF cosine between the query's
  token profile and each posted schema, with query tokens additionally
  expanded through the thesaurus synset (``related_terms``) at the
  entry's strength — a query naming "bill" reaches schemas indexed
  under "invoice". Scores are meaningless as similarities; they only
  *rank* the corpus so the expensive pipeline runs on a top-C
  candidate set.

The index is tiny (strings and counts) and is not persisted itself:
each schema's profile lives in its entry of the repository manifest's
catalog, and opening a repository rebuilds the postings from there.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.linguistic.matcher import LinguisticPreparation
from repro.linguistic.thesaurus import Thesaurus


def token_profile(linguistic: LinguisticPreparation) -> Dict[str, int]:
    """A schema's indexable token profile: token → distinct-name count.

    Derived from the deduplicated normalized names (the same distinct
    set the kernel vocabulary factors over): each comparable token of
    each distinct name contributes one count, so the profile reflects
    the schema's *vocabulary*, not its element multiplicity. Pure in
    the linguistic preparation — ingest-time and query-time profiles
    agree by construction.
    """
    profile: Dict[str, int] = {}
    seen_names = set()
    for normalized in linguistic.normalized.values():
        if normalized.raw in seen_names:
            continue
        seen_names.add(normalized.raw)
        for text in set(normalized.token_texts()):
            profile[text] = profile.get(text, 0) + 1
    return profile


class VocabularyIndex:
    """Inverted token index + TF-IDF overlap ranking over a corpus."""

    def __init__(self) -> None:
        #: token -> {schema_id: count}
        self._postings: Dict[str, Dict[str, int]] = {}
        #: schema_id -> its full profile (kept for norms and removal).
        self._profiles: Dict[str, Dict[str, int]] = {}
        #: Corpus mutation stamp; any add/remove shifts every idf, so
        #: the norm cache below is keyed by it.
        self._version = 0
        #: (version, {schema_id: norm}) — document norms are O(total
        #: corpus tokens) to compute; one build serves every score()
        #: call until the corpus changes.
        self._norm_cache: Tuple[int, Dict[str, float]] = (-1, {})

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def add(self, schema_id: str, profile: Dict[str, int]) -> None:
        """(Re-)index ``schema_id`` under ``profile``."""
        if schema_id in self._profiles:
            self.remove(schema_id)
        self._profiles[schema_id] = dict(profile)
        for token, count in profile.items():
            self._postings.setdefault(token, {})[schema_id] = count
        self._version += 1

    def remove(self, schema_id: str) -> None:
        profile = self._profiles.pop(schema_id, None)
        if profile is None:
            return
        for token in profile:
            postings = self._postings.get(token)
            if postings is not None:
                postings.pop(schema_id, None)
                if not postings:
                    del self._postings[token]
        self._version += 1

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, schema_id: str) -> bool:
        return schema_id in self._profiles

    @property
    def n_tokens(self) -> int:
        return len(self._postings)

    @property
    def n_postings(self) -> int:
        return sum(len(p) for p in self._postings.values())

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _idf(self, token: str) -> float:
        postings = self._postings.get(token)
        if not postings:
            return 0.0
        return math.log(1.0 + len(self._profiles) / len(postings))

    def _norms(self) -> Dict[str, float]:
        """Per-schema TF-IDF norms, cached until the corpus mutates."""
        version, norms = self._norm_cache
        if version == self._version:
            return norms
        idf = {token: self._idf(token) for token in self._postings}
        norms = {}
        for schema_id, profile in self._profiles.items():
            total = 0.0
            for token, count in profile.items():
                weighted = count * idf[token]
                total += weighted * weighted
            norms[schema_id] = math.sqrt(total) if total > 0.0 else 1.0
        self._norm_cache = (self._version, norms)
        return norms

    def expand_query(
        self,
        profile: Dict[str, int],
        thesaurus: Optional[Thesaurus] = None,
    ) -> Dict[str, float]:
        """Query weights with thesaurus-synset expansion.

        Each query token contributes its own count at weight 1 and
        adds every related term at ``count × strength`` (max-merged, so
        a term reachable twice keeps its strongest path). Only the
        query side expands: expanding at ingest would bake one
        thesaurus into the postings forever.
        """
        weights: Dict[str, float] = {
            token: float(count) for token, count in profile.items()
        }
        if thesaurus is None:
            return weights
        for token, count in profile.items():
            for term, strength in thesaurus.related_terms(token):
                contributed = count * strength
                if contributed > weights.get(term, 0.0):
                    weights[term] = contributed
        return weights

    def score(
        self,
        profile: Dict[str, int],
        thesaurus: Optional[Thesaurus] = None,
    ) -> List[Tuple[str, float]]:
        """Rank every indexed schema against a query profile.

        TF-IDF cosine over the (synset-expanded) query weights.
        Returns ``(schema_id, score)`` sorted by (-score, schema_id);
        schemas sharing no token with the query score 0 and still
        appear (deterministic full ranking simplifies pruning stats).
        """
        weights = self.expand_query(profile, thesaurus)
        # One idf per query token for both the norm and the dot loop.
        query_idf = {token: self._idf(token) for token in weights}
        query_norm = math.sqrt(
            sum(
                (w * query_idf[token]) ** 2
                for token, w in weights.items()
            )
        ) or 1.0
        dots: Dict[str, float] = {sid: 0.0 for sid in self._profiles}
        for token, weight in weights.items():
            postings = self._postings.get(token)
            if not postings:
                continue
            idf_sq = query_idf[token] ** 2
            for schema_id, count in postings.items():
                dots[schema_id] += weight * count * idf_sq
        norms = self._norms()
        ranked = [
            (schema_id, dot / (query_norm * norms[schema_id]))
            for schema_id, dot in dots.items()
        ]
        ranked.sort(key=lambda pair: (-pair[1], pair[0]))
        return ranked
