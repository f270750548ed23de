"""Thesaurus: synonyms, hypernyms, abbreviations, concepts, stopwords.

Section 5 of the paper: "We use a thesaurus to help match names by
identifying short-forms (Qty for Quantity), acronyms (UoM for
UnitOfMeasure) and synonyms (Bill and Invoice). ... Each thesaurus
entry is annotated with a coefficient in the range [0,1] that indicates
the strength of the relationship."

The thesaurus is deliberately plain data + lookups; the interesting
logic lives in the normalizer and similarity functions that consume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class ThesaurusEntry:
    """A symmetric relatedness entry between two token strings."""

    term_a: str
    term_b: str
    strength: float
    relation: str  # "synonym" or "hypernym"

    def __post_init__(self) -> None:
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError(
                f"thesaurus strength {self.strength} outside [0, 1]"
            )


class Thesaurus:
    """Mutable thesaurus with the four knowledge kinds Cupid consumes.

    * pairwise relatedness (synonyms, hypernyms) with strengths,
    * abbreviation/acronym expansions (possibly multi-token),
    * stopwords (articles, prepositions, conjunctions),
    * concepts — trigger-token → concept-name tagging (Section 5.1:
      "elements with tokens Price, Cost and Value are all associated
      with the concept Money").

    All lookups are case-insensitive; terms are stored lower-cased.
    """

    def __init__(self, name: str = "thesaurus") -> None:
        self.name = name
        self._pairs: Dict[Tuple[str, str], ThesaurusEntry] = {}
        self._expansions: Dict[str, Tuple[str, ...]] = {}
        self._stopwords: Set[str] = set()
        self._concepts: Dict[str, str] = {}  # trigger token -> concept name
        # term -> sorted [(related term, strength)], built lazily by
        # related_terms() and dropped on mutation.
        self._related_cache: Optional[
            Dict[str, List[Tuple[str, float]]]
        ] = None

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def add_synonym(self, a: str, b: str, strength: float = 0.9) -> None:
        """Register ``a`` ≈ ``b`` symmetrically with the given strength."""
        self._add_pair(a, b, strength, "synonym")

    def add_hypernym(self, term: str, broader: str, strength: float = 0.75) -> None:
        """Register that ``broader`` is a hypernym of ``term``.

        Stored symmetrically: Cupid's mappings are non-directional, and
        the paper's MOMIS comparison treats Person/Customer hypernymy as
        match-supporting in either direction.
        """
        self._add_pair(term, broader, strength, "hypernym")

    def _add_pair(self, a: str, b: str, strength: float, relation: str) -> None:
        a, b = a.lower().strip(), b.lower().strip()
        if not a or not b:
            raise ValueError("thesaurus terms must be non-empty")
        if a == b:
            raise ValueError(f"cannot relate {a!r} to itself")
        entry = ThesaurusEntry(a, b, strength, relation)
        self._pairs[(a, b)] = entry
        self._pairs[(b, a)] = entry
        self._related_cache = None

    def add_abbreviation(self, short: str, expansion: Sequence[str]) -> None:
        """Register an abbreviation/acronym expansion.

        ``expansion`` is a token sequence: ``add_abbreviation("po",
        ["purchase", "order"])`` implements the paper's
        ``{PO, Lines} -> {Purchase, Order, Lines}`` example.
        """
        short = short.lower().strip()
        tokens = tuple(t.lower().strip() for t in expansion)
        if not short or not all(tokens):
            raise ValueError("abbreviation and expansion must be non-empty")
        self._expansions[short] = tokens

    def add_stopwords(self, words: Iterable[str]) -> None:
        self._stopwords.update(w.lower().strip() for w in words)

    def add_concept(self, concept: str, triggers: Iterable[str]) -> None:
        """Tag every trigger token with ``concept``."""
        concept = concept.lower().strip()
        for trigger in triggers:
            self._concepts[trigger.lower().strip()] = concept

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def relatedness(self, a: str, b: str) -> Optional[float]:
        """Strength of the (a, b) entry, or None if absent."""
        entry = self._pairs.get((a.lower(), b.lower()))
        return entry.strength if entry else None

    def related_terms(self, term: str) -> List[Tuple[str, float]]:
        """Every term related to ``term``, with strengths, sorted.

        The synset view a repository's candidate index expands query
        tokens through: a schema indexed under "invoice" should be a
        candidate for a query naming "bill", at the pair's thesaurus
        strength. Sorted by (-strength, term) so expansion order is
        deterministic. Lookups hit a lazily-built adjacency map (the
        candidate index probes one per query token per search, so a
        linear scan of the pair table here would put the whole
        thesaurus on the search hot path); mutation invalidates it.
        """
        cache = self._related_cache
        if cache is None:
            cache = {}
            for (a, b), entry in self._pairs.items():
                cache.setdefault(a, []).append((b, entry.strength))
            for related in cache.values():
                related.sort(key=lambda pair: (-pair[1], pair[0]))
            self._related_cache = cache
        return list(cache.get(term.lower(), ()))

    def fingerprint(self) -> str:
        """Content hash of every entry, stable across processes.

        Two thesauri with the same synonyms/hypernyms, expansions,
        stopwords, and concept triggers produce the same fingerprint
        regardless of insertion order. A schema repository records it
        in its manifest: its index profiles were derived under this
        knowledge, and ranking the corpus by them under different
        knowledge would silently change search results, so a
        mismatch must be detectable.
        """
        import hashlib
        import json

        payload = {
            "pairs": sorted(
                (*sorted((e.term_a, e.term_b)), repr(e.strength), e.relation)
                for e in self.entries
            ),
            "expansions": sorted(
                (short, list(tokens))
                for short, tokens in self._expansions.items()
            ),
            "stopwords": sorted(self._stopwords),
            "concepts": sorted(self._concepts.items()),
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def expansion(self, token: str) -> Optional[Tuple[str, ...]]:
        return self._expansions.get(token.lower())

    def is_stopword(self, token: str) -> bool:
        return token.lower() in self._stopwords

    def concept_of(self, token: str) -> Optional[str]:
        return self._concepts.get(token.lower())

    @property
    def entries(self) -> List[ThesaurusEntry]:
        """Unique pair entries (each symmetric pair reported once)."""
        seen: Set[int] = set()
        unique: List[ThesaurusEntry] = []
        for entry in self._pairs.values():
            if id(entry) not in seen:
                seen.add(id(entry))
                unique.append(entry)
        return unique

    def merged_with(self, other: "Thesaurus") -> "Thesaurus":
        """A new thesaurus with this one's entries plus ``other``'s.

        ``other`` wins on conflicts — domain-specific vocabularies
        override the common-language baseline.
        """
        merged = Thesaurus(name=f"{self.name}+{other.name}")
        for source in (self, other):
            merged._pairs.update(source._pairs)
            merged._expansions.update(source._expansions)
            merged._stopwords.update(source._stopwords)
            merged._concepts.update(source._concepts)
        return merged

    def __repr__(self) -> str:
        return (
            f"<Thesaurus {self.name!r}: {len(self.entries)} pairs, "
            f"{len(self._expansions)} abbreviations, "
            f"{len(self._concepts)} concept triggers>"
        )


def empty_thesaurus() -> Thesaurus:
    """A thesaurus with no knowledge at all (for ablation E6)."""
    return Thesaurus(name="empty")
