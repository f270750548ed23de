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
weighted description similarity is higher as an override on it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import CupidConfig
from repro.linguistic.name_similarity import token_set_similarity
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
