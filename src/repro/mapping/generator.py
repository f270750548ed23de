"""Mapping generation (paper Section 7).

The naïve leaf-level generator: "For each leaf element t in the target
schema, if the leaf element s in the source schema with highest
weighted similarity to t is acceptable (wsim(s, t) ≥ thaccept), then a
mapping element from s to t is returned. This resulting mapping may be
1:n, since a source element may map to many target elements."

Non-leaf mappings require the second post-order pass (because leaf
updates during TreeMatch stale the inner-node similarities), then the
same best-candidate scheme over inner nodes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import DEFAULT_CONFIG, CupidConfig
from repro.mapping.mapping import Mapping, MappingElement
from repro.structure.dense import DenseSimilarityStore
from repro.structure.treematch import TreeMatch, TreeMatchResult
from repro.tree.schema_tree import SchemaTreeNode


class MappingGenerator:
    """Generates leaf, non-leaf, and combined mappings from TreeMatch output."""

    def __init__(self, config: Optional[CupidConfig] = None) -> None:
        self.config = config or DEFAULT_CONFIG

    def leaf_mapping(self, result: TreeMatchResult) -> Mapping:
        """The naïve 1:n leaf-level mapping of Section 7.

        Leaf similarities read the *final* ssim values: leaf pairs are
        compared early in the post-order loop, but their ssim keeps
        being updated by later ancestor comparisons, and it is those
        final values that encode the context disambiguation (e.g.
        POBillTo's City binding to InvoiceTo's rather than DeliverTo's).
        """
        mapping = Mapping(
            result.source_tree.schema.name, result.target_tree.schema.name
        )
        sims = result.sims
        thaccept = self.config.thaccept
        source_leaves = list(result.source_tree.root.leaves())
        target_leaves = result.target_tree.root.leaves()
        # Dense engine: start from each plane column's max. The scan
        # below only ever reports one of the column's values, so a max
        # under thaccept maps nothing; a max every other row trails by
        # more than 2×epsilon wins the scan outright with that value.
        # Any other column (a near-tie) runs the scan, tie-break and all.
        columns = (
            sims.leaf_column_maxima(
                source_leaves, target_leaves, 2 * self._TIE_EPSILON
            )
            if isinstance(sims, DenseSimilarityStore)
            else None
        )
        for j, t in enumerate(target_leaves):
            if columns is not None:
                top, row, clear = columns[j]
                if top < thaccept:
                    continue
                if clear:
                    mapping.add(self._element(source_leaves[row], t, top))
                    continue
            best_node = None
            best_score = -1.0
            for s in source_leaves:
                score = sims.wsim(s, t)
                if score > best_score + self._TIE_EPSILON:
                    best_node = s
                    best_score = score
                elif (
                    best_node is not None
                    and abs(score - best_score) <= self._TIE_EPSILON
                    and self._ancestors_prefer(s, best_node, t, result)
                ):
                    best_node = s
                    best_score = max(best_score, score)
            if best_node is not None and best_score >= thaccept:
                mapping.add(self._element(best_node, t, best_score))
        return mapping

    _TIE_EPSILON = 1e-9

    def _ancestors_prefer(
        self,
        challenger: SchemaTreeNode,
        incumbent: SchemaTreeNode,
        target: SchemaTreeNode,
        result: TreeMatchResult,
    ) -> bool:
        """Break a leaf-score tie by comparing ancestor-pair wsim.

        When two source leaves tie for a target leaf (common for shared
        types: the Name under ShippingAddress and the Name under
        BillingAddress are identical up to context), the leaf whose
        ancestors match the target's ancestors better wins. This is the
        hierarchical-mapping intuition of Section 7 ("the mapping
        element between two XML-elements e1 and e2 would have as its
        sub-elements the mapping elements between matching
        XML-attributes of e1 and e2").
        """
        t_ancestor = target.parent
        challenger_ancestor = challenger.parent
        incumbent_ancestor = incumbent.parent
        while (
            t_ancestor is not None
            and challenger_ancestor is not None
            and incumbent_ancestor is not None
        ):
            challenger_wsim = result.wsim.get(
                (challenger_ancestor.node_id, t_ancestor.node_id), 0.0
            )
            incumbent_wsim = result.wsim.get(
                (incumbent_ancestor.node_id, t_ancestor.node_id), 0.0
            )
            if abs(challenger_wsim - incumbent_wsim) > self._TIE_EPSILON:
                return challenger_wsim > incumbent_wsim
            t_ancestor = t_ancestor.parent
            challenger_ancestor = challenger_ancestor.parent
            incumbent_ancestor = incumbent_ancestor.parent
        # Fully tied all the way up: prefer the lexicographically
        # smaller path for determinism.
        return challenger.path() < incumbent.path()

    def nonleaf_mapping(
        self, result: TreeMatchResult, treematch: TreeMatch
    ) -> Mapping:
        """Inner-node mapping after the recomputation pass (Section 7)."""
        treematch.recompute_wsim(result)
        mapping = Mapping(
            result.source_tree.schema.name, result.target_tree.schema.name
        )
        source_inner = [
            n for n in result.source_tree.postorder() if not n.is_leaf
        ]
        target_inner = [
            n for n in result.target_tree.postorder() if not n.is_leaf
        ]
        for t in target_inner:
            best = self._best_source(source_inner, t, result)
            if best is not None:
                s, score = best
                mapping.add(self._element(s, t, score))
        return mapping

    def combined_mapping(
        self, result: TreeMatchResult, treematch: TreeMatch
    ) -> Mapping:
        """Leaf + non-leaf mapping elements in one mapping."""
        leaf = self.leaf_mapping(result)
        nonleaf = self.nonleaf_mapping(result, treematch)
        combined = Mapping(
            result.source_tree.schema.name, result.target_tree.schema.name
        )
        for element in leaf:
            combined.add(element)
        for element in nonleaf:
            combined.add(element)
        return combined

    # ------------------------------------------------------------------

    def _best_source(
        self,
        candidates: List[SchemaTreeNode],
        target: SchemaTreeNode,
        result: TreeMatchResult,
    ):
        """Highest-wsim acceptable source for ``target``, ties by path."""
        best_node: Optional[SchemaTreeNode] = None
        best_score = -1.0
        for s in candidates:
            score = result.wsim.get((s.node_id, target.node_id))
            if score is None:
                continue
            if score > best_score or (
                score == best_score
                and best_node is not None
                and s.path() < best_node.path()
            ):
                best_node = s
                best_score = score
        if best_node is None or best_score < self.config.thaccept:
            return None
        return best_node, best_score

    @staticmethod
    def _element(
        s: SchemaTreeNode, t: SchemaTreeNode, score: float
    ) -> MappingElement:
        return MappingElement(
            source_path=s.path(),
            target_path=t.path(),
            similarity=score,
            source_node=s,
            target_node=t,
        )
