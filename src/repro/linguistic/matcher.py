"""The linguistic matching phase (Section 5) producing the lsim table.

Pipeline: normalize all element names → categorize both schemas →
find compatible category pairs → compare elements of compatible
categories → ``lsim(m1, m2) = ns(m1, m2) × max_{c1,c2} ns(c1, c2)``.

"The similarity is assumed to be zero for schema elements that do not
belong to any compatible categories."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.config import DEFAULT_CONFIG, CupidConfig
from repro.linguistic.categorization import Categorizer, Category
from repro.linguistic.name_similarity import (
    NameSimilarityMemo,
    element_name_similarity,
)
from repro.linguistic.normalizer import NormalizedName, Normalizer
from repro.linguistic.thesaurus import Thesaurus
from repro.model.element import SchemaElement
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids the
    # matcher <-> kernel import cycle; kernel imports LsimTable)
    from repro.linguistic.kernel import SchemaVocabulary


class LsimTable:
    """Sparse table of linguistic similarity coefficients.

    Keys are ``(source_element_id, target_element_id)``; absent pairs
    read as 0.0 (not linguistically comparable).
    """

    def __init__(self) -> None:
        self._table: Dict[Tuple[str, str], float] = {}

    def set(self, source: SchemaElement, target: SchemaElement, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"lsim {value} outside [0, 1]")
        self._table[(source.element_id, target.element_id)] = value

    def get(self, source: SchemaElement, target: SchemaElement) -> float:
        return self._table.get((source.element_id, target.element_id), 0.0)

    def get_by_id(self, source_id: str, target_id: str) -> float:
        return self._table.get((source_id, target_id), 0.0)

    def items(self) -> Iterable[Tuple[Tuple[str, str], float]]:
        return self._table.items()

    def copy(self) -> "LsimTable":
        """Independent copy (cheap: one dict copy).

        :class:`repro.pipeline.session.MatchSession` caches the table
        per schema pair and hands out copies, so initial-mapping hints
        applied to one run never leak into the cached original.
        """
        duplicate = LsimTable()
        duplicate._table = dict(self._table)
        return duplicate

    def __len__(self) -> int:
        return len(self._table)


def described_elements(schema: Schema) -> List[SchemaElement]:
    """The elements the ``use_descriptions`` extension compares: those
    with a description that categorization can hold — every
    instantiated element, and the root, which it always holds."""
    return [
        e for e in schema.elements
        if e.description and (not e.not_instantiated or e is schema.root)
    ]


@dataclass
class LinguisticPreparation:
    """One schema's share of the linguistic phase (Section 5).

    Categorization and name normalization depend only on the schema
    (plus thesaurus/config), not on what it will be matched against —
    so a :class:`~repro.pipeline.prepared.PreparedSchema` computes this
    once and every subsequent match against any partner reuses it.
    """

    schema: Schema
    categories: Dict[str, Category]
    normalized: Dict[str, NormalizedName]
    elements_by_id: Dict[str, SchemaElement]
    #: Elements carrying a data-dictionary description (the
    #: ``use_descriptions`` extension compares these even when
    #: categorization would prune the pair).
    described: List[SchemaElement]
    #: Distinct-name/profile factoring for the linguistic kernel
    #: (:mod:`repro.linguistic.kernel`), built lazily on the first
    #: kernel match and cached here — a PreparedSchema retains this
    #: object, which makes the vocabulary a per-schema session cache
    #: tier like the tree and leaf layout.
    vocabulary: Optional["SchemaVocabulary"] = None


class LinguisticMatcher:
    """Computes lsim between all comparable element pairs of two schemas."""

    def __init__(
        self,
        thesaurus: Thesaurus,
        config: Optional[CupidConfig] = None,
    ) -> None:
        self.thesaurus = thesaurus
        self.config = config or DEFAULT_CONFIG
        self.config.validate()
        self.normalizer = Normalizer(thesaurus)
        self.categorizer = Categorizer(thesaurus, self.normalizer, self.config)
        #: The dense engine's token-similarity memo, which the kernel
        #: reads; None on the reference engine (the correctness
        #: oracle recomputes every pair).
        self.memo: Optional[NameSimilarityMemo] = (
            NameSimilarityMemo(thesaurus, self.config)
            if self.config.engine == "dense"
            else None
        )
        self._descriptions = None
        if self.config.use_descriptions:
            from repro.linguistic.descriptions import DescriptionMatcher

            self._descriptions = DescriptionMatcher(
                thesaurus, self.normalizer, self.config
            )

    def prepare(self, schema: Schema) -> LinguisticPreparation:
        """The per-schema half of :meth:`compute`.

        Normalizes every element name exactly once and categorizes the
        schema; both are pure functions of (schema, thesaurus, config),
        so callers may cache the result and reuse it across matches
        against any number of partners.
        """
        return LinguisticPreparation(
            schema=schema,
            categories=self.categorizer.categorize(schema),
            normalized={
                e.element_id: self.normalizer.normalize(e.name)
                for e in schema.elements
            },
            elements_by_id={e.element_id: e for e in schema.elements},
            described=described_elements(schema),
        )

    def compute(self, source: Schema, target: Schema) -> LsimTable:
        """Build the full lsim table for ``source`` × ``target``.

        Only element pairs that share at least one compatible category
        pair are compared; for them,
        ``lsim = ns(m1, m2) × max ns(c1, c2)`` over the compatible
        category pairs both belong to.
        """
        return self.compute_prepared(
            self.prepare(source), self.prepare(target)
        )

    def vocabulary(self, prep: LinguisticPreparation) -> "SchemaVocabulary":
        """The preparation's distinct-name vocabulary, built once.

        Cached on the preparation itself, so a session that retains
        the :class:`~repro.pipeline.prepared.PreparedSchema` reuses the
        factoring across every match the schema participates in.
        """
        if prep.vocabulary is None:
            from repro.linguistic.kernel import SchemaVocabulary

            prep.vocabulary = SchemaVocabulary(prep)
        return prep.vocabulary

    def kernel_applicable(self) -> bool:
        """Whether matches run the distinct-name kernel, which is
        whether the engine is the dense one; only then does a match
        build a preparation's vocabulary."""
        return self.memo is not None

    def compute_prepared(
        self,
        source_prep: LinguisticPreparation,
        target_prep: LinguisticPreparation,
    ) -> LsimTable:
        """The cross-schema half of :meth:`compute`.

        Consumes two :class:`LinguisticPreparation` artifacts (freshly
        built or cached) and produces the pair's lsim table; the values
        are bit-identical either way because preparation is pure.

        With the dense engine, routes through the distinct-name kernel
        (:mod:`repro.linguistic.kernel`): ``ns`` as one matrix over the
        two vocabularies' distinct names, broadcast to element pairs by
        profile — the same values as the per-pair path. Description
        matches become overrides on that table.
        """
        if not self.kernel_applicable():
            return self._compute_prepared_reference(source_prep, target_prep)
        from repro.linguistic.kernel import (
            compute_factored_lsim,
            numpy_enabled,
        )

        table = compute_factored_lsim(
            self.categorizer,
            self.memo,
            self.vocabulary(source_prep),
            self.vocabulary(target_prep),
            numpy_enabled(self.config.dense_backend),
        )
        if self._descriptions is not None:
            # The reference path's max(name lsim, weight × desc) on
            # every pair: an undescribed element's desc is 0, and
            # every categorized element with a description is in
            # ``described``, so only described × described pairs can
            # change.
            weight = self.config.description_weight
            for m1, m2, desc in self._descriptions.similarities(
                source_prep.described, target_prep.described, self.memo
            ):
                lsim = weight * desc
                if lsim > table.get(m1, m2):
                    table.set(m1, m2, lsim)
        return table

    def _compute_prepared_reference(
        self,
        source_prep: LinguisticPreparation,
        target_prep: LinguisticPreparation,
    ) -> LsimTable:
        """Per-element-pair lsim: the reference engine's path, which
        the dense engine's kernel must reproduce bit for bit."""
        source_categories = source_prep.categories
        target_categories = target_prep.categories
        normalized_s = source_prep.normalized
        normalized_t = target_prep.normalized

        # Precompute compatible category pairs and their similarity
        # (one keyword comparison per pair — compatibility and strength
        # come from the same call).
        compatible_pairs: Dict[Tuple[str, str], float] = {}
        for c1 in source_categories.values():
            for c2 in target_categories.values():
                cat_sim = self.categorizer.compatible_similarity(c1, c2)
                if cat_sim is not None:
                    compatible_pairs[(c1.key, c2.key)] = cat_sim

        # For each element pair in some compatible category pair, the
        # category scale factor is the max over all its compatible pairs.
        scale: Dict[Tuple[str, str], float] = {}
        elements_by_id_s = source_prep.elements_by_id
        elements_by_id_t = target_prep.elements_by_id
        for (key1, key2), cat_sim in compatible_pairs.items():
            for m1 in source_categories[key1].members:
                for m2 in target_categories[key2].members:
                    pair = (m1.element_id, m2.element_id)
                    if cat_sim > scale.get(pair, 0.0):
                        scale[pair] = cat_sim

        table = LsimTable()
        for (id1, id2), cat_scale in scale.items():
            m1 = elements_by_id_s[id1]
            m2 = elements_by_id_t[id2]
            name1 = normalized_s[id1]
            name2 = normalized_t[id2]
            ns = element_name_similarity(
                name1, name2, self.thesaurus, self.config
            )
            lsim = min(1.0, ns * cat_scale)
            if self._descriptions is not None:
                # Annotations can only raise lsim: a strong description
                # match rescues pairs with uninformative names.
                desc = self._descriptions.similarity(m1, m2)
                lsim = max(lsim, self.config.description_weight * desc)
            if lsim > 0.0:
                table.set(m1, m2, lsim)

        if self._descriptions is not None:
            # Categorization prunes by names; annotated pairs whose
            # names share nothing still deserve a description-driven
            # comparison (that is the point of the annotations).
            for m1 in source_prep.described:
                for m2 in target_prep.described:
                    if (m1.element_id, m2.element_id) in scale:
                        continue
                    desc = self._descriptions.similarity(m1, m2)
                    lsim = self.config.description_weight * desc
                    if lsim > 0.0:
                        table.set(m1, m2, lsim)
        return table
