"""Name normalization (Section 5.1).

Normalization turns a raw element name into a set of typed tokens in
four steps:

1. **Tokenization** — split on punctuation, case, digits
   (``POLines`` → ``{PO, Lines}``).
2. **Expansion** — expand abbreviations and acronyms via the thesaurus
   (``{PO, Lines}`` → ``{Purchase, Order, Lines}``).
3. **Elimination** — mark articles/prepositions/conjunctions as ignored
   during comparison.
4. **Tagging** — associate tokens with known concepts (Price/Cost/Value
   → Money) and record the concepts on the normalized name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.linguistic.thesaurus import Thesaurus
from repro.linguistic.tokenizer import tokenize
from repro.linguistic.tokens import Token, TokenType

_SPECIAL_CHARS = set("#$%&@*+!?")


@dataclass(frozen=True)
class NormalizedName:
    """The result of normalizing one element name.

    ``tokens`` excludes nothing — ignored tokens are present but
    flagged, matching the paper's "marked to be ignored during
    comparison". ``concepts`` collects the concept tags applied in
    step 4.
    """

    raw: str
    tokens: Tuple[Token, ...]
    concepts: frozenset

    def tokens_of_type(self, token_type: TokenType) -> List[Token]:
        return [
            t for t in self.tokens
            if t.token_type is token_type and not t.ignored
        ]

    def comparable_tokens(self) -> List[Token]:
        """Tokens that take part in similarity (non-ignored)."""
        return [t for t in self.tokens if not t.ignored]

    def token_texts(self) -> List[str]:
        return [t.text for t in self.comparable_tokens()]

    def __str__(self) -> str:
        return " ".join(t.text for t in self.tokens)


def _classify(text: str, thesaurus: Thesaurus) -> Tuple[TokenType, bool]:
    """Return (token type, ignored flag) for one token string.

    Concept *triggers* stay content tokens — tagging (step 4) adds the
    concept name as a separate CONCEPT token rather than retyping the
    trigger: "elements with tokens Price, Cost and Value are all
    associated with the concept Money" means Price keeps matching as a
    word while Money joins the comparison as shared semantics.
    """
    if text.isdigit():
        return TokenType.NUMBER, False
    if text in _SPECIAL_CHARS:
        return TokenType.SPECIAL, False
    if thesaurus.is_stopword(text):
        # Common words are both typed COMMON and ignored for comparison.
        return TokenType.COMMON, True
    return TokenType.CONTENT, False


class Normalizer:
    """Applies the four normalization steps with a given thesaurus.

    Normalization is pure and memoized twice:

    * **per raw name** — schemas repeat names constantly (Street, City,
      ...) and the matcher normalizes every element of both schemas;
    * **per token text** — steps 3 and 4 read nothing but a token's
      text, so each distinct text is classified and concept-tagged
      once, and every occurrence shares one frozen :class:`Token`
      (and one concept tag token). Distinct names are mostly new
      arrangements of a small vocabulary; this cache holds one entry
      per distinct token text seen, fewer than the per-name cache.

    Both caches hold pure values and take no lock: a racing thread
    recomputes an equal value.
    """

    def __init__(self, thesaurus: Thesaurus) -> None:
        self.thesaurus = thesaurus
        self._cache: Dict[str, NormalizedName] = {}
        #: token text -> (its token, the CONCEPT token it tags or None)
        self._tokens: Dict[str, Tuple[Token, Optional[Token]]] = {}

    def _type_token(self, text: str) -> Tuple[Token, Optional[Token]]:
        """Steps 3 and 4 for one token text (the per-token cache's miss
        path)."""
        token_type, ignored = _classify(text, self.thesaurus)
        concept = self.thesaurus.concept_of(text)
        entry = self._tokens[text] = (
            Token(text, token_type, ignored),
            Token(concept, TokenType.CONCEPT) if concept else None,
        )
        return entry

    def normalize(self, name: str) -> NormalizedName:
        cached = self._cache.get(name)
        if cached is not None:
            return cached

        # Whole-name lookup first: mixed-case acronyms like "UoM" would
        # otherwise be split by the camel-case tokenizer into "uo"+"m"
        # and never match their thesaurus entry.
        expanded = self.thesaurus.expansion(name.lower())
        if not expanded:
            expanded = []
            for raw_token in tokenize(name):
                expansion = self.thesaurus.expansion(raw_token)
                if expansion:
                    expanded.extend(expansion)
                else:
                    expanded.append(raw_token)

        known = self._tokens
        tokens: List[Token] = []
        tags: Dict[str, Token] = {}
        for text in expanded:
            token, tag = known.get(text) or self._type_token(text)
            tokens.append(token)
            if tag is not None:
                tags[tag.text] = tag
        # Tagging: the concept names join the token set as CONCEPT
        # tokens, so semantically tagged elements (Price, Cost) share
        # concept tokens (money) even when their words differ.
        for concept in sorted(tags):
            tokens.append(tags[concept])

        normalized = NormalizedName(
            raw=name, tokens=tuple(tokens), concepts=frozenset(tags)
        )
        self._cache[name] = normalized
        return normalized
