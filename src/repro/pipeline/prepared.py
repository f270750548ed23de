"""Per-schema preparation, computed once and reused across matches.

The monolithic ``CupidMatcher.match`` re-did all of this on every call:
name normalization, categorization, schema-tree construction (plus
join-view augmentation), and the dense engine's leaf-index layout. None
of it depends on the *partner* schema — only on (schema, thesaurus,
config) — so in the paper's own motivating scenarios (matching one
mediated schema against N sources, warehouse loading) it is pure
repeated work.

:class:`PreparedSchema` captures that work lazily: each artifact is
built on first access and cached. A :class:`~repro.pipeline.session.
MatchSession` keeps one ``PreparedSchema`` per schema, which is where
the one-vs-many batch speedup comes from. Nothing here is persisted: a
:class:`~repro.repository.SchemaRepository` stores only the canonical
schema and loads it as a fresh, lazy ``PreparedSchema``, because
preparing a schema costs what reading its tiers back from disk did.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.config import CupidConfig
from repro.model.schema import Schema
from repro.structure.dense import LeafLayout
from repro.tree.construction import construct_schema_tree
from repro.tree.lazy import construct_schema_tree_lazy
from repro.tree.refint import augment_with_join_views
from repro.tree.schema_tree import SchemaTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.linguistic.matcher import (
        LinguisticMatcher,
        LinguisticPreparation,
    )


class PreparedSchema:
    """Lazily-built, cached per-schema match artifacts.

    Construction is free; each artifact is computed on first access:

    * :attr:`linguistic` — normalized names + categories (Section 5's
      per-schema half).
    * :attr:`tree` — the expanded schema tree, with join views when
      ``config.use_refint_joins`` is set (Sections 8.2/8.3).
    * :attr:`leaf_layout` — the dense engine's leaf-index layout.

    The artifacts are tied to the preparing pipeline's thesaurus and
    config; reusing a ``PreparedSchema`` under a different config is
    undefined (a :class:`~repro.pipeline.session.MatchSession` never
    does).
    """

    __slots__ = ("schema", "_linguistic_matcher", "_config",
                 "_linguistic", "_tree", "_layout")

    def __init__(
        self,
        schema: Schema,
        linguistic_matcher: "LinguisticMatcher",
        config: CupidConfig,
    ) -> None:
        self.schema = schema
        self._linguistic_matcher = linguistic_matcher
        self._config = config
        self._linguistic: Optional["LinguisticPreparation"] = None
        self._tree: Optional[SchemaTree] = None
        self._layout: Optional[LeafLayout] = None

    def prepared_by(self, linguistic_matcher: "LinguisticMatcher") -> bool:
        """Whether this schema was prepared by ``linguistic_matcher``.

        Artifacts are only valid under the matcher (thesaurus + config)
        that built them; boundaries that derive persistent data from
        them — the repository's ingest computes an index profile —
        use this to detect a foreign ``PreparedSchema`` and re-prepare
        under their own components instead.
        """
        return self._linguistic_matcher is linguistic_matcher

    @property
    def linguistic(self) -> "LinguisticPreparation":
        """Normalized names and categories (built once)."""
        if self._linguistic is None:
            self._linguistic = self._linguistic_matcher.prepare(self.schema)
        return self._linguistic

    @property
    def vocabulary(self):
        """The distinct-name vocabulary, if the kernel has built it.

        The vocabulary (:class:`repro.linguistic.kernel.
        SchemaVocabulary`) is attached to the cached
        :class:`LinguisticPreparation` by the first kernel match this
        schema participates in, making it another per-schema cache
        tier; returns None while unbuilt (never forces a build — the
        reference engine has no use for it).
        """
        if self._linguistic is None:
            return None
        return self._linguistic.vocabulary

    @property
    def tree(self) -> SchemaTree:
        """The expanded schema tree (built once, config-dependent).

        Construction (and, for ``use_refint_joins``, join-view
        augmentation) stamps the pre/post-order interval encoding —
        :meth:`SchemaTree.reindex` — so the tree arrives with window
        addressing already valid (``SchemaRepository.verify`` runs the
        interval oracle on it).
        """
        if self._tree is None:
            build = (
                construct_schema_tree_lazy
                if self._config.lazy_expansion
                else construct_schema_tree
            )
            tree = build(self.schema)
            if self._config.use_refint_joins:
                augment_with_join_views(tree)
            self._tree = tree
        return self._tree

    @property
    def leaf_layout(self) -> LeafLayout:
        """Dense leaf-index layout over :attr:`tree` (built once)."""
        if self._layout is None:
            self._layout = LeafLayout(self.tree)
        return self._layout

    def cache_info(self) -> dict:
        """Which artifact tiers are built, and the layout's leaf count
        (what sizes the ``n_s×n_t`` similarity plane)."""
        info = {
            "linguistic_built": self._linguistic is not None,
            "vocabulary_built": self.vocabulary is not None,
            "tree_built": self._tree is not None,
            "leaf_layout_built": self._layout is not None,
        }
        if self._layout is not None:
            info["leaves"] = len(self._layout.leaves)
        return info

    def __repr__(self) -> str:
        built = [
            name for name, attr in (
                ("linguistic", self._linguistic),
                ("vocabulary", self.vocabulary),
                ("tree", self._tree),
                ("layout", self._layout),
            ) if attr is not None
        ]
        state = ", ".join(built) if built else "nothing built yet"
        return f"<PreparedSchema {self.schema.name!r}: {state}>"
