"""Similarity bookkeeping for TreeMatch.

Holds the mutable structural similarities (``ssim``) between schema
tree nodes, exposes linguistic similarity (``lsim``, fixed during
structure matching — "the linguistic similarity, however, remains
unchanged") through the node's underlying element, and combines them
into the weighted similarity ``wsim``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import CupidConfig
from repro.linguistic.matcher import LsimTable
from repro.model.datatypes import TypeCompatibilityTable
from repro.tree.schema_tree import SchemaTreeNode


class SimilarityStore:
    """ssim/lsim/wsim accessors over tree-node pairs.

    ``ssim`` defaults to the data-type compatibility of the two nodes —
    this realizes both the paper's leaf initialization ("the structural
    similarity of two leaves is initialized to the type compatibility of
    their corresponding data types", value in [0, 0.5]) and a sensible
    default for never-updated pairs.
    """

    def __init__(
        self,
        lsim_table: LsimTable,
        config: CupidConfig,
        compat: TypeCompatibilityTable,
    ) -> None:
        self._lsim_table = lsim_table
        self._config = config
        self._compat = compat
        self._ssim: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    # ssim
    # ------------------------------------------------------------------

    def ssim(self, s: SchemaTreeNode, t: SchemaTreeNode) -> float:
        value = self._ssim.get((s.node_id, t.node_id))
        if value is not None:
            return value
        base = self._compat.compatibility(s.data_type, t.data_type)
        if self._config.use_key_affinity:
            # "It exploits keys" (Section 4): key-ness is a constraint
            # signal — matching keys reinforce, mismatched key-ness
            # weakens the starting compatibility.
            s_key = s.element.is_key
            t_key = t.element.is_key
            if s_key and t_key:
                base += self._config.key_affinity_bonus
            elif s_key != t_key:
                base -= self._config.key_affinity_bonus
        return min(0.5, max(0.0, base))

    def set_ssim(self, s: SchemaTreeNode, t: SchemaTreeNode, value: float) -> None:
        self._ssim[(s.node_id, t.node_id)] = min(1.0, max(0.0, value))

    def scale_ssim(self, s: SchemaTreeNode, t: SchemaTreeNode, factor: float) -> None:
        """Multiply ssim(s, t) by ``factor``, clamped to [0, 1].

        "increase the structural similarity (ssim) of each pair of
        leaves ... by the factor cinc (ssim not to exceed 1)".
        """
        self.set_ssim(s, t, self.ssim(s, t) * factor)

    # ------------------------------------------------------------------
    # lsim / wsim
    # ------------------------------------------------------------------

    def lsim(self, s: SchemaTreeNode, t: SchemaTreeNode) -> float:
        return self._lsim_table.get(s.element, t.element)

    def wsim(self, s: SchemaTreeNode, t: SchemaTreeNode) -> float:
        """``wsim = wstruct × ssim + (1 − wstruct) × lsim``.

        ``wstruct`` is "typically ... lower for leaf-leaf pairs than
        for non-leaf pairs" (Table 1), so the leaf weight applies when
        both nodes are leaves.
        """
        if s.is_leaf and t.is_leaf:
            wstruct = self._config.wstruct_leaf
        else:
            wstruct = self._config.wstruct
        return wstruct * self.ssim(s, t) + (1.0 - wstruct) * self.lsim(s, t)

    def set_nonleaf_ssims(
        self,
        keys: Sequence[Tuple[int, int]],
        values: Sequence[float],
        lsims: Sequence[float],
    ) -> List[float]:
        """:meth:`set_ssim` then :meth:`wsim` for node pairs with a
        non-leaf, in bulk: ``keys`` are the pairs' ``(node_id,
        node_id)``, ``lsims`` their :meth:`lsim`. The values are
        strong-link fractions, already in [0, 1], so set_ssim's clamp
        would return each one unchanged. Returns the wsims, each
        computed in :meth:`wsim`'s operand order."""
        self._ssim.update(zip(keys, values))
        wstruct = self._config.wstruct
        rest = 1.0 - wstruct
        return [
            wstruct * value + rest * lsim
            for value, lsim in zip(values, lsims)
        ]

    def explicit_pairs(self) -> int:
        """Number of pairs with explicitly stored ssim (for tests)."""
        return len(self._ssim)
