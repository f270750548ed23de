"""Categorization (Section 5.2).

"Cupid clusters schema elements belonging to the two schemas into
categories. A category is a group of elements that can be identified by
a set of keywords, which are derived from concepts, data types, and
element names. ... The purpose of categorization is to reduce the
number of element-to-element comparisons."

Three category sources, one per bullet in the paper:

* **Concept tagging** — one category per unique concept tag.
* **Data types** — one category per broad data type ("Number", ...).
* **Container** — one category per containing element, keyed by the
  container's name tokens (Street/City under Address → category with
  keyword Address).

Elements can belong to multiple categories. Two categories are
*compatible* when the name similarity of their keyword token sets
exceeds ``thns``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.config import CupidConfig
from repro.linguistic.name_similarity import token_set_similarity
from repro.linguistic.normalizer import NormalizedName, Normalizer
from repro.linguistic.thesaurus import Thesaurus
from repro.linguistic.tokens import Token, TokenType
from repro.model.datatypes import BROAD_CLASS, DataType
from repro.model.element import SchemaElement
from repro.model.schema import Schema

#: Token types whose name tokens each name a category (step 1b).
_KEYWORD_TYPES = (TokenType.CONTENT, TokenType.CONCEPT)


@dataclass
class Category:
    """A keyword-identified group of schema elements."""

    key: str                      # unique id within its schema, e.g. "dtype:Number"
    keywords: Tuple[Token, ...]   # tokens identifying the category
    source: str                   # "concept" | "dtype" | "container"
    members: List[SchemaElement] = field(default_factory=list)

    def __repr__(self) -> str:
        kw = " ".join(t.text for t in self.keywords)
        return f"<Category {self.key} [{kw}]: {len(self.members)} members>"


class Categorizer:
    """Builds per-schema categories and decides category compatibility."""

    def __init__(
        self,
        thesaurus: Thesaurus,
        normalizer: Normalizer,
        config: CupidConfig,
    ) -> None:
        self.thesaurus = thesaurus
        self.normalizer = normalizer
        self.config = config

    def categorize(self, schema: Schema) -> Dict[str, Category]:
        """Assign every named element of ``schema`` to its categories.

        Returns categories keyed by their unique key, in creation order;
        each lists its members in element order. An element may appear
        in several categories (concept + name token + data type +
        container).

        What an element joins depends only on its name, its data type
        and its container, so each distinct name, data type and
        container is resolved once per call, and a category's keyword
        tokens are built only when the category is created.
        """
        categories: Dict[str, Category] = {}

        def create(
            key: str, source: str, keywords: Tuple[Token, ...]
        ) -> Category:
            # Callers look ``key`` up first: each creates a new key.
            category = categories[key] = Category(
                key=key, keywords=keywords, source=source
            )
            return category

        # The schema root belongs to a dedicated category so roots are
        # linguistically comparable across schemas (they have no
        # container, data type, or — usually — concept of their own).
        create(
            "root", "container", (Token("schema", TokenType.CONTENT),)
        ).members.append(schema.root)

        # What each distinct concept, name word, name, data type and
        # container resolves to, filled on first sight.
        by_concept: Dict[str, Category] = {}
        by_word: Dict[str, Category] = {}
        by_name: Dict[str, List[Category]] = {}
        by_type: Dict[DataType, Category] = {}
        by_container: Dict[str, Optional[Category]] = {}

        def concept_category(concept: str) -> Category:
            category = by_concept[concept] = create(
                f"concept:{concept}", "concept",
                (Token(concept, TokenType.CONCEPT),),
            )
            return category

        def word_category(word: str) -> Category:
            category = by_word[word] = create(
                f"name:{word}", "name", (Token(word, TokenType.CONTENT),)
            )
            return category

        def name_categories(name: str) -> List[Category]:
            normalized = self.normalizer.normalize(name)
            found = by_name[name] = []
            # 1. Concept tagging: a category per unique concept tag.
            for concept in sorted(normalized.concepts):
                found.append(
                    by_concept.get(concept) or concept_category(concept)
                )
            # 1b. Name tokens: keywords are "derived from concepts,
            # data types, and element names" (Section 5.2) — the money
            # category example includes elements where the keyword
            # "appears in its name". One category per significant
            # (content/concept) name token.
            for token in normalized.tokens:
                if not token.ignored and token.token_type in _KEYWORD_TYPES:
                    found.append(
                        by_word.get(token.text) or word_category(token.text)
                    )
            return found

        def type_category(data_type: DataType) -> Category:
            # 2. Broad data type: Number, Text, Temporal, ...
            broad = BROAD_CLASS[data_type]
            key = f"dtype:{broad}"
            category = by_type[data_type] = categories.get(key) or create(
                key, "dtype", (Token(broad.lower(), TokenType.CONTENT),)
            )
            return category

        def container_category(container: SchemaElement) -> Optional[Category]:
            # 3. Container: the containing element names a category.
            category = None
            if container.name and not container.not_instantiated:
                keywords = tuple(
                    self.normalizer.normalize(container.name)
                    .comparable_tokens()
                )
                if keywords:
                    category = create(
                        f"container:{container.element_id}", "container",
                        keywords,
                    )
            by_container[container.element_id] = category
            return category

        for element in schema.elements:
            if element.not_instantiated or not element.name:
                continue
            joined = by_name.get(element.name)
            if joined is None:
                joined = name_categories(element.name)
            for category in joined:
                category.members.append(element)
            if element.data_type is not None:
                category = by_type.get(element.data_type) or type_category(
                    element.data_type
                )
                category.members.append(element)
            container = schema.container_of(element)
            if container is not None:
                if container.element_id in by_container:
                    category = by_container[container.element_id]
                else:
                    category = container_category(container)
                if category is not None:
                    category.members.append(element)

        return categories

    def category_similarity(self, c1: Category, c2: Category) -> float:
        """Name similarity of two categories' keyword token sets."""
        return token_set_similarity(
            c1.keywords, c2.keywords, self.thesaurus, self.config
        )

    def compatible(self, c1: Category, c2: Category) -> bool:
        """"Two categories are compatible if the name similarity of
        their token sets exceeds a given threshold, thns."

        Data-type categories additionally only pair with data-type
        categories: the paper uses them "primarily to prune the
        matching", and cross-pairing a type keyword like "number" with
        content names would create spurious compatibilities.
        """
        return self.compatible_similarity(c1, c2) is not None

    def compatible_similarity(
        self, c1: Category, c2: Category
    ) -> Optional[float]:
        """The category similarity if the pair is compatible, else None.

        Folds :meth:`compatible` and :meth:`category_similarity` into
        one call so the all-pairs category scan computes each keyword
        comparison once instead of twice.
        """
        if (c1.source == "dtype") != (c2.source == "dtype"):
            return None
        similarity = self.category_similarity(c1, c2)
        return similarity if similarity >= self.config.thns else None
