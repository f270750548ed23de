"""Description-based linguistic matching (paper Section 10).

"Some of the immediate challenges for further work include ... using
schema annotations (textual descriptions of schema elements in the
data dictionary) for the linguistic matching."

Schema elements already carry a free-text ``description``; this module
compares those descriptions with the information-retrieval flavour the
taxonomy mentions ("IR techniques can be used to compare descriptions
that annotate some schema elements"): stopword-filtered bag-of-words
with the same thesaurus-aware token similarity as name matching.

:class:`DescriptionMatcher` is consumed by
:class:`~repro.linguistic.matcher.LinguisticMatcher` when
``CupidConfig.use_descriptions`` is on: the final lsim becomes the
maximum of the name-based lsim and the weighted description similarity,
so a missing description never hurts. An undescribed element scores 0,
so only pairs of described elements can change. The reference engine
takes that maximum pair by pair; the dense engine computes the
name-based table with its kernel and writes each described pair whose
weighted description similarity is higher as an override on it. It
scores descriptions through :meth:`DescriptionMatcher.similarities`:
each distinct pair of token tuples once per call, with the token
similarities read from the linguistic memo's token tier.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.config import CupidConfig
from repro.linguistic.name_similarity import (
    NameSimilarityMemo,
    token_set_similarity,
)
from repro.linguistic.normalizer import Normalizer
from repro.linguistic.thesaurus import Thesaurus
from repro.linguistic.tokens import Token
from repro.model.element import SchemaElement

#: Descriptions are prose: always drop English function words, even
#: when the active thesaurus (e.g. the empty ablation one) carries no
#: stopword list — elimination is part of normalization, not domain
#: knowledge.
_PROSE_STOPWORDS = frozenset(
    "a an the of in on at to for by with from as and or nor but so per "
    "via is are was were be been being this that these those it its "
    "used uses using each all any".split()
)


def _light_stem(word: str) -> str:
    """Strip plural 's' from longer words (invoices→invoice).

    Deliberately minimal — the taxonomy's "IR techniques" for
    annotations; a full stemmer would be overkill for data-dictionary
    prose.
    """
    if len(word) > 4 and word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


class DescriptionMatcher:
    """Similarity of element descriptions, as a bag of normalized tokens."""

    def __init__(
        self,
        thesaurus: Thesaurus,
        normalizer: Normalizer,
        config: CupidConfig,
    ) -> None:
        self.thesaurus = thesaurus
        self.normalizer = normalizer
        self.config = config
        self._cache: Dict[str, Tuple[Token, ...]] = {}

    def tokens_of(self, element: SchemaElement) -> Tuple[Token, ...]:
        """Normalized, deduplicated word tokens of the description."""
        text = element.description.strip()
        if not text:
            return ()
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        seen = set()
        tokens: List[Token] = []
        for word in text.split():
            normalized = self.normalizer.normalize(word)
            for token in normalized.comparable_tokens():
                if token.text in _PROSE_STOPWORDS:
                    continue
                text_form = _light_stem(token.text)
                if text_form not in seen:
                    seen.add(text_form)
                    tokens.append(Token(text_form, token.token_type))
        result = tuple(tokens)
        self._cache[text] = result
        return result

    def similarity(self, m1: SchemaElement, m2: SchemaElement) -> float:
        """Token-set similarity of the two descriptions (0 if either is
        missing — annotations are optional by nature)."""
        t1 = self.tokens_of(m1)
        t2 = self.tokens_of(m2)
        if not t1 or not t2:
            return 0.0
        return token_set_similarity(t1, t2, self.thesaurus, self.config)

    def similarities(
        self,
        sources: Sequence[SchemaElement],
        targets: Sequence[SchemaElement],
        memo: NameSimilarityMemo,
    ) -> Iterator[Tuple[SchemaElement, SchemaElement, float]]:
        """``(m1, m2, similarity(m1, m2))`` for every ``sources`` ×
        ``targets`` pair whose descriptions both have tokens, in that
        loop order.

        Elements with one description text share one token tuple
        (:meth:`tokens_of`), so each distinct pair of tuples is scored
        once, from one ``memo.token_matrix`` over the call's distinct
        token texts. The score is :func:`token_set_similarity`'s bit
        for bit: the memo computes each sim with the same function,
        and the maxima and sums run in the same order.
        """
        source_tokens = [self.tokens_of(m) for m in sources]
        target_tokens = [self.tokens_of(m) for m in targets]
        source_rows, source_texts = _text_positions(source_tokens)
        target_columns, target_texts = _text_positions(target_tokens)
        if not source_rows or not target_columns:
            return
        width = len(target_texts)
        sims = memo.token_matrix(source_texts, target_texts)
        scores: Dict[int, List[float]] = {}
        for key, rows in source_rows.items():
            block = [sims[r * width:(r + 1) * width] for r in rows]
            scores[key] = [
                (
                    sum(max(row[c] for c in columns) for row in block)
                    + sum(max(row[c] for row in block) for c in columns)
                ) / (len(rows) + len(columns))
                for columns in target_columns.values()
            ]
        slot = {key: n for n, key in enumerate(target_columns)}
        described = [
            (m2, slot[id(tokens)])
            for m2, tokens in zip(targets, target_tokens)
            if tokens
        ]
        for m1, tokens in zip(sources, source_tokens):
            if tokens:
                row = scores[id(tokens)]
                for m2, n in described:
                    yield m1, m2, row[n]


def _text_positions(
    token_tuples: Sequence[Tuple[Token, ...]],
) -> Tuple[Dict[int, List[int]], List[str]]:
    """The distinct non-empty tuples of ``token_tuples``, keyed by
    identity, each mapped to its tokens' positions in the returned
    list of distinct token texts."""
    texts: Dict[str, int] = {}
    positions: Dict[int, List[int]] = {}
    for tokens in token_tuples:
        if tokens and id(tokens) not in positions:
            positions[id(tokens)] = [
                texts.setdefault(token.text, len(texts)) for token in tokens
            ]
    return positions, list(texts)
