"""The TreeMatch algorithm (Figure 3 of the paper).

Post-order double loop over the two schema trees. For every node pair:

1. compute structural similarity ``ssim`` — for a pair of leaves this
   is the (mutable) stored value; otherwise it is the fraction of
   leaves in the two subtrees that have a *strong link* (a leaf pair
   whose ``wsim`` exceeds ``thaccept``) into the other subtree;
2. compute ``wsim = wstruct·ssim + (1−wstruct)·lsim``;
3. if ``wsim > thhigh``, multiply the ssim of every leaf pair in the
   two subtrees by ``cinc`` (leaves of highly similar ancestors occur
   in similar contexts); if ``wsim < thlow``, multiply by ``cdec``.

The post-order traversals ensure both subtrees are fully compared
before their roots are, giving the mutually recursive flavor the paper
describes. Node pairs with very different subtree leaf counts are
skipped ("say within a factor of 2"), which both prunes work and avoids
dragging down leaf similarities with hopeless comparisons.

Interval-encoding invariants (:meth:`SchemaTree.reindex` stamps them;
``REPRO_INTERVAL_ORACLE=1`` cross-checks them on every reindex): every
node carries ``pre`` (first-visit pre-order position — the traversal
that defines the dense leaf-layout row/column order), ``post``
(position in :meth:`SchemaTree.postorder`, the order both loops here
iterate), ``level`` (primary-parent depth), and ``subtree_size``
(distinct descendant count, self included). For *pure* nodes — no
proper descendant has extra parents — the subtree's leaves are the
contiguous window ``[leaf_lo, leaf_hi)`` of the layout order, required
flags are the per-leaf comparison ``opt_level(leaf) <= level``, and
depth-pruned frontiers are shrunken-window scans that skip a stand-in's
``subtree_size`` span; impure DAG nodes carry ascending gather tuples
and answer through reference DFS. The per-pair loops consult those
answers once per node pair (frontier dicts are memoized per pass
below, since the tree cannot mutate mid-run); the dense store
translates the same windows into ``[pre_lo, pre_hi)`` block addresses
for its scans and multiplies, and its wave kernels read windows,
levels and optional levels straight from the encoding. Nothing here
invalidates anything: a structural mutation
unindexes the touched ancestry at mutation time and the accessors fall
back to DFS until the next reindex.

Leaf plane (dense engine). The first pass does not visit leaf×leaf
pairs one by one; one plane operation
(:meth:`DenseSimilarityStore.scale_leaf_plane`) handles all of them
before the loop, which then visits only pairs involving a non-leaf, in
their original order. This is exact because of the visit order. A
pair (s, t) writes only the block leaves(s)×leaves(t); for that block
to hold a leaf pair (x, y), s must be x or an ancestor of x, and t must
be y or an ancestor of y. Post-order puts every node after all of its
descendants (in a DAG too: a node is emitted only after all its
children), so with the source side outer, every such pair other than
(x, y) itself comes later. Hence each leaf pair's own update reads the
untouched initial ssim and no other leaf pair's result, and every pair
that reads a leaf cell — any pair whose block or frontier holds it —
comes after that cell's own update. Running all leaf updates first
therefore leaves every later read, every non-leaf decision and every
write in the same order on the same values. The counters follow by
arithmetic: every leaf pair is compared (``leaf_count_ratio >= 1``
never prunes a 1:1 pair), and each scaled leaf pair touched one cell.
The plane is used only when the trees' leaves are exactly the store's
layout; a tree mutated after its layout was built takes the per-pair
loop, which the reference engine always runs as the oracle.

Waves (dense engine, pure trees). After the plane, the pairs with a
non-leaf run in **waves**: a wave is every compared pair with the same
(source height, target height) — a leaf has height 0, a node 1 + the
height of its highest child — and the waves run in lexicographic
order, the plane being wave (0, 0). Each wave is one fraction-kernel
call, its cinc/cdec decisions, and one scale call
(:meth:`DenseSimilarityStore.wave_fractions` /
:meth:`~DenseSimilarityStore.scale_wave`). This is exact:

* Two pairs *conflict* when their blocks share a cell; pairs that do
  not conflict touch disjoint cells and commute.
* On a pure tree two nodes share a leaf only if one is the other or an
  ancestor of it, and a strict ancestor is strictly higher.
* Take two conflicting pairs. Either their source heights differ, and
  the source-outer post-order ran the lower one's row first; or they
  share the source and their target heights differ, and that row ran
  the lower target first. Lexicographic (h_s, h_t) keeps that order,
  and no two pairs of one wave conflict.
* At ``leaf_prune_depth = 0`` a pair reads and writes only its own
  block, and no other first-pass pair reads its non-leaf ssim. A wave
  may therefore read all of its fractions before it applies any
  scaling.

``result.wsim`` keeps the post-order loop's key order. The second pass
writes no plane cell, so it runs the same fraction kernel over every
wave in any order. Waves need both trees pure (no gather-tuple node)
and indexed against the store's layout
(:meth:`DenseSimilarityStore.begin_waves`), and ``leaf_prune_depth =
0``. A join-view DAG can have same-height nodes that share leaves (a
join view and a table it joins are both height 1), and a depth-pruned
fraction reads the non-leaf wsims of frontier stand-ins, so both run
the same loop with one pair per wave, in post-order.

One plan per match. The first pass leaves its plan on the result: the
waves, each with its pairs' lsims, the post-order keys and the count
of pairs with a non-leaf. The second pass runs those same waves in the
same order while both trees still carry the interval encodings the
plan was built on, so it costs one fraction kernel and one
``set_nonleaf_ssims`` per wave, and then drops the plan. The lsims
cannot change between the passes: feedback hints are applied to the
lsim table before TreeMatch runs. A tree mutated between the passes
(join-view augmentation, a node added and reindexed) carries a new
encoding, or none, and the second pass plans afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.config import DEFAULT_CONFIG, CupidConfig
from repro.linguistic.matcher import LsimTable
from repro.obs import trace
from repro.model.datatypes import TypeCompatibilityTable, default_compatibility_table
from repro.structure.dense import (
    DenseSimilarityStore,
    LeafPlaneWsim,
    WaveBlocks,
)
from repro.structure.similarity import SimilarityStore
from repro.tree.schema_tree import SchemaTree, SchemaTreeNode


@dataclass
class TreeMatchResult:
    """Everything TreeMatch computed.

    ``wsim`` maps every compared node pair to its weighted similarity
    (read-only: ``get``, ``[]``, ``in``, ``items()``, ``len()``). A
    non-leaf pair's value is as of the moment it was compared — the
    paper's Section 7 notes it may be stale after later leaf updates,
    hence :meth:`TreeMatch.recompute_wsim` for mapping generation's
    second pass. On the reference engine a leaf pair's value is also
    the one seen at its visit. When the dense engine takes the leaf
    plane (module docstring), leaf entries read the live wsim plane
    (:class:`~repro.structure.dense.LeafPlaneWsim`); after
    ``recompute_wsim``, which every pipeline runs, they equal the
    reference engine's.
    """

    source_tree: SchemaTree
    target_tree: SchemaTree
    sims: SimilarityStore
    wsim: Mapping[Tuple[int, int], float]
    compared_pairs: int = 0
    pruned_pairs: int = 0
    #: Leaf-pair ssim cells touched by cinc/cdec context adjustments.
    scaled_pairs: int = 0
    engine: str = "reference"
    #: First-pass waves of the wave schedule, the leaf plane counted as
    #: wave (0, 0); 0 when a per-pair loop ran (module docstring).
    waves: int = 0
    #: Pairs with a non-leaf that the second pass
    #: (:meth:`TreeMatch.recompute_wsim`) recomputed.
    recompute_pairs: int = 0
    #: Second-pass pairs skipped: always 0, since every pair with a
    #: non-leaf is recomputed.
    recompute_skipped: int = 0
    #: The first pass's wave schedule on the leaf plane, which the
    #: second pass reuses and then drops (module docstring).
    wave_plan: Optional["_WavePlan"] = field(
        default=None, repr=False, compare=False
    )

    def wsim_of(self, s: SchemaTreeNode, t: SchemaTreeNode) -> float:
        return self.wsim.get((s.node_id, t.node_id), 0.0)


class TreeMatch:
    """Runs the Figure 3 algorithm over two schema trees."""

    #: Figure 3's cinc/cdec context adjustment (step 3). Clearing it
    #: switches off every scaling site: the leaf-plane operation, the
    #: wave kernel and the per-pair ``_scale_leaf_pairs`` calls.
    adjusts_context = True

    def __init__(
        self,
        config: Optional[CupidConfig] = None,
        compat: Optional[TypeCompatibilityTable] = None,
    ) -> None:
        self.config = config or DEFAULT_CONFIG
        self.config.validate()
        self.compat = compat or default_compatibility_table()
        # Per-pass memo of effective-leaf dicts (node_id -> frontier):
        # consulted once per node *pair*, stable within a pass because
        # the tree cannot mutate mid-run. Reset by run() and
        # recompute_wsim() so a mutation between passes (e.g. join-view
        # augmentation after a match) can never serve stale flags.
        self._frontier_memo: Dict[int, Dict[SchemaTreeNode, bool]] = {}

    # ------------------------------------------------------------------
    # Main algorithm
    # ------------------------------------------------------------------

    def run(
        self,
        source_tree: SchemaTree,
        target_tree: SchemaTree,
        lsim_table: LsimTable,
        source_layout=None,
        target_layout=None,
    ) -> TreeMatchResult:
        """Run TreeMatch. ``source_layout`` / ``target_layout`` are
        optional prebuilt :class:`~repro.structure.dense.LeafLayout`
        objects (per-schema artifacts a
        :class:`~repro.pipeline.prepared.PreparedSchema` caches);
        omitted, the dense store derives them itself."""
        pass_span = trace.start_span("treematch.run")
        if pass_span is None:
            return self._run_pass(
                source_tree, target_tree, lsim_table,
                source_layout, target_layout,
            )
        try:
            result = self._run_pass(
                source_tree, target_tree, lsim_table,
                source_layout, target_layout,
            )
        finally:
            trace.end_span(pass_span)
        pass_span.annotate(
            engine=result.engine,
            compared_pairs=result.compared_pairs,
            pruned_pairs=result.pruned_pairs,
            scaled_pairs=result.scaled_pairs,
        )
        return result

    def _run_pass(
        self,
        source_tree: SchemaTree,
        target_tree: SchemaTree,
        lsim_table: LsimTable,
        source_layout=None,
        target_layout=None,
    ) -> TreeMatchResult:
        self._frontier_memo = {}
        sims = self._make_store(
            source_tree, target_tree, lsim_table, source_layout, target_layout
        )
        result = TreeMatchResult(
            source_tree=source_tree,
            target_tree=target_tree,
            sims=sims,
            wsim={},
            engine=self.config.engine,
        )

        # Leaf ssim initialization is implicit: both stores default to
        # data-type compatibility, exactly the first loop of Figure 3
        # (the dense store materializes those defaults up front).

        source_order = source_tree.postorder()
        # Subtree leaf counts are consulted once per node pair; hoist
        # them out of the double loop (they are stable during a run).
        target_order = [(t, t.leaf_count()) for t in target_tree.postorder()]
        if self._on_leaf_plane(sims, source_order, target_order):
            self._leaf_plane_pass(result, source_order, target_order)
        else:
            self._pair_pass(result, source_order, target_order)
        return result

    def _pair_pass(
        self,
        result: TreeMatchResult,
        source_order: List[SchemaTreeNode],
        target_order: List[Tuple[SchemaTreeNode, int]],
    ) -> None:
        """Figure 3's double loop, one node pair at a time (the
        reference engine, and the dense engine off the leaf plane)."""
        sims = result.sims
        source_root = result.source_tree.root
        target_root = result.target_tree.root
        thhigh, thlow = self._scaling_band()
        cinc, cdec = self.config.cinc, self.config.cdec

        for s in source_order:
            s_leaf_count = s.leaf_count()
            s_is_leaf = s.is_leaf
            for t, t_leaf_count in target_order:
                if self._pruned(
                    s, t, s_leaf_count, t_leaf_count, source_root, target_root
                ):
                    result.pruned_pairs += 1
                    continue
                if not (s_is_leaf and t.is_leaf):
                    sims.set_ssim(
                        s, t, self._structural_similarity(s, t, sims)
                    )
                # For a leaf pair the structural similarity IS the
                # stored ssim, which wsim() reads directly — no
                # separate probe needed.
                wsim = sims.wsim(s, t)
                result.wsim[(s.node_id, t.node_id)] = wsim
                result.compared_pairs += 1

                if wsim > thhigh:
                    result.scaled_pairs += self._scale_leaf_pairs(
                        s, t, sims, cinc
                    )
                elif wsim < thlow:
                    result.scaled_pairs += self._scale_leaf_pairs(
                        s, t, sims, cdec
                    )

    def _leaf_plane_pass(
        self,
        result: TreeMatchResult,
        source_order: List[SchemaTreeNode],
        target_order: List[Tuple[SchemaTreeNode, int]],
    ) -> None:
        """The first pass with every leaf×leaf pair hoisted into one
        plane operation, then the pairs with a non-leaf wave by wave
        (both ordering arguments are in the module docstring)."""
        sims = result.sims
        thhigh, thlow = self._scaling_band()
        cinc, cdec = self.config.cinc, self.config.cdec
        result.scaled_pairs = sims.scale_leaf_plane(thhigh, thlow, cinc, cdec)
        plan = result.wave_plan = self._waves(
            result, source_order, target_order
        )
        pairs = plan.slots
        result.wsim = LeafPlaneWsim(pairs, sims)
        result.pruned_pairs = plan.pruned
        result.compared_pairs = sims.leaf_cells + plan.compared
        waves = plan.waves
        if waves and waves[0].blocks is not None:
            result.waves = 1 + len(waves)
        for wave in waves:
            wsims = self._wave_wsims(sims, wave)
            pairs.update(zip(wave.keys, wsims))
            scaled: List[int] = []
            factors: List[float] = []
            for p, wsim in enumerate(wsims):
                if wsim > thhigh:
                    scaled.append(p)
                    factors.append(cinc)
                elif wsim < thlow:
                    scaled.append(p)
                    factors.append(cdec)
            if scaled:
                result.scaled_pairs += self._scale_wave(
                    sims, wave, scaled, factors
                )

    def _waves(
        self,
        result: TreeMatchResult,
        source_order: List[SchemaTreeNode],
        target_order: List[Tuple[SchemaTreeNode, int]],
    ) -> "_WavePlan":
        """A pass's pairs with a non-leaf in the groups it runs them in,
        and how many pairs it compares and prunes besides the leaf
        plane.

        On trees the store's wave kernels address, one wave per
        (source height, target height) in lexicographic order;
        otherwise one pair per wave, in post-order (module docstring).
        Every pair's key goes into the plan's ``slots`` in post-order,
        so a map filled wave by wave keeps the loop's key order.
        """
        sims = result.sims
        row_of = self._target_rows(result, target_order, False)
        waved = self.config.leaf_prune_depth == 0 and sims.begin_waves(
            result.source_tree, result.target_tree
        )
        if waved:
            s_height = _heights(source_order)
            t_height = _heights(t for t, _ in target_order)
        # Rows are shared by sources of one leaf count, leafness and
        # rootness: derive each distinct row's ids and height groups once.
        row_ids: Dict[int, List[int]] = {}
        row_groups: Dict[int, List[Tuple[int, _Targets]]] = {}
        entries: Dict[Tuple[int, int], list] = {}
        slots: Dict[Tuple[int, int], float] = {}
        waves: List[_Wave] = []
        compared = pruned = 0
        for s in source_order:
            row, row_pruned = row_of(s)
            pruned += row_pruned
            compared += len(row)
            t_ids = row_ids.get(id(row))
            if t_ids is None:
                t_ids = row_ids[id(row)] = [t.node_id for _, t in row]
            s_id = s.node_id
            keys = [(s_id, t_id) for t_id in t_ids]
            slots.update(dict.fromkeys(keys))
            if not waved:
                waves.extend(
                    _Wave([key], None, (s, t))
                    for key, (_, t) in zip(keys, row)
                )
                continue
            groups = row_groups.get(id(row))
            if groups is None:
                groups = row_groups[id(row)] = _Targets.by_height(
                    row, t_height
                )
            h_s = s_height[s_id]
            for h_t, targets in groups:
                entries.setdefault((h_s, h_t), []).append((s, targets))
        if waved:
            waves = [_Wave.of(entries[key]) for key in sorted(entries)]
        return _WavePlan(waves, slots, compared, pruned, result, self)

    def _wave_wsims(
        self, sims: SimilarityStore, wave: "_Wave"
    ) -> List[float]:
        """Steps 1 and 2 of Figure 3 for every pair of a wave: stores
        each pair's ssim and returns the wsims, in pair order. The
        pairs' lsims are read on the wave's first run and kept on it."""
        blocks = wave.blocks
        if blocks is not None:
            fractions = sims.wave_fractions(
                blocks,
                self.config.thaccept,
                self.config.discount_optional_leaves,
            )
            if wave.lsims is None:
                wave.lsims = sims.wave_lsims(blocks)
        else:
            s, t = wave.pair
            fractions = [self._structural_similarity(s, t, sims)]
            if wave.lsims is None:
                wave.lsims = [sims.lsim(s, t)]
        return sims.set_nonleaf_ssims(wave.keys, fractions, wave.lsims)

    def _scale_wave(
        self,
        sims: SimilarityStore,
        wave: "_Wave",
        scaled: List[int],
        factors: List[float],
    ) -> int:
        """Step 3 of Figure 3 for pairs ``scaled`` of a wave; returns
        the number of leaf-pair cells scaled."""
        if wave.blocks is not None:
            return sims.scale_wave(wave.blocks, scaled, factors)
        s, t = wave.pair
        return self._scale_leaf_pairs(s, t, sims, factors[0])

    @staticmethod
    def _on_leaf_plane(
        sims: SimilarityStore,
        source_order: List[SchemaTreeNode],
        target_order: List[Tuple[SchemaTreeNode, int]],
    ) -> bool:
        """May this traversal hoist its leaf×leaf pairs into the dense
        plane? Only when the visited leaves are exactly the plane's."""
        return isinstance(sims, DenseSimilarityStore) and sims.spans_leaves(
            [s for s in source_order if s.is_leaf],
            [t for t, _ in target_order if t.is_leaf],
        )

    def _target_rows(
        self,
        result: TreeMatchResult,
        target_order: List[Tuple[SchemaTreeNode, int]],
        leaf_pairs: bool,
    ):
        """``row_of(s)`` -> ``(row, pruned)``: the ``(target index,
        target)`` pairs (s, t) a loop visits, in target post-order,
        leaving out the pairs the leaf-count ratio prunes (``pruned``
        counts them) and, unless ``leaf_pairs``, leaf×leaf pairs. A row
        depends only on s's leaf count, leafness and rootness, so each
        distinct combination is pruned once."""
        source_root = result.source_tree.root
        target_root = result.target_tree.root
        rows: Dict[Tuple[int, bool, bool], Tuple[list, int]] = {}

        def row_of(s: SchemaTreeNode) -> Tuple[list, int]:
            s_leaf_count = s.leaf_count()
            key = (s_leaf_count, s.is_leaf, s is source_root)
            entry = rows.get(key)
            if entry is None:
                row = []
                pruned = 0
                for t_index, (t, t_leaf_count) in enumerate(target_order):
                    if self._pruned(
                        s, t, s_leaf_count, t_leaf_count,
                        source_root, target_root,
                    ):
                        pruned += 1
                    elif leaf_pairs or not (s.is_leaf and t.is_leaf):
                        row.append((t_index, t))
                entry = rows[key] = (row, pruned)
            return entry

        return row_of

    def _scaling_band(self) -> Tuple[float, float]:
        """``(thhigh, thlow)`` of Figure 3's step 3. Without context
        adjustment no wsim is above +inf or below -inf, so neither
        scaling site ever fires."""
        if self.adjusts_context:
            return self.config.thhigh, self.config.thlow
        return math.inf, -math.inf

    def _make_store(
        self,
        source_tree: SchemaTree,
        target_tree: SchemaTree,
        lsim_table: LsimTable,
        source_layout=None,
        target_layout=None,
    ) -> SimilarityStore:
        if self.config.engine == "dense":
            return DenseSimilarityStore(
                lsim_table,
                self.config,
                self.compat,
                source_tree,
                target_tree,
                source_layout,
                target_layout,
            )
        return SimilarityStore(lsim_table, self.config, self.compat)

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------

    def _pruned(
        self,
        s: SchemaTreeNode,
        t: SchemaTreeNode,
        s_leaf_count: int,
        t_leaf_count: int,
        source_root: SchemaTreeNode,
        target_root: SchemaTreeNode,
    ) -> bool:
        """Leaf-count ratio pruning (Section 6). Roots always compare."""
        if not self.config.prune_by_leaf_count:
            return False
        if s is source_root and t is target_root:
            return False
        ratio = self.config.leaf_count_ratio
        return (
            s_leaf_count > ratio * t_leaf_count
            or t_leaf_count > ratio * s_leaf_count
        )

    def _effective_leaves(
        self, node: SchemaTreeNode
    ) -> Dict[SchemaTreeNode, bool]:
        """Leaves of ``node``'s subtree with their *required* flags.

        With ``leaf_prune_depth`` k > 0 (Section 8.4 "Pruning leaves"),
        the frontier is cut at depth k: nodes at that depth stand in
        for their subtrees. Both shapes come straight from the
        interval encoding (:meth:`SchemaTreeNode.pruned_frontier` /
        :meth:`~SchemaTreeNode.leaves_with_required_flag`) and are
        memoized for the duration of one pass — they are consulted
        once per node *pair* but cannot change mid-run.
        """
        memo = self._frontier_memo
        key = node.node_id
        frontier = memo.get(key)
        if frontier is None:
            frontier = node.pruned_frontier(self.config.leaf_prune_depth)
            memo[key] = frontier
        return frontier

    def _structural_similarity(
        self, s: SchemaTreeNode, t: SchemaTreeNode, sims: SimilarityStore
    ) -> float:
        """ssim(s, t) per Section 6 (+ optional-leaf discount of §8.4).

        For a leaf pair, the stored (possibly already incremented)
        value. Otherwise, the fraction of leaves in the union of both
        subtrees with at least one strong link to the other side.
        """
        if s.is_leaf and t.is_leaf:
            return sims.ssim(s, t)

        s_leaves = self._effective_leaves(s)
        t_leaves = self._effective_leaves(t)
        if not s_leaves or not t_leaves:
            return 0.0

        thaccept = self.config.thaccept
        discount = self.config.discount_optional_leaves

        if isinstance(sims, DenseSimilarityStore):
            fraction = sims.structural_fraction(
                s, t, s_leaves, t_leaves, thaccept, discount
            )
            if fraction is not None:
                return fraction
            # Frontier includes depth-pruned stand-in nodes outside the
            # leaf index: fall through to the per-pair reference loop
            # (sims.wsim handles those nodes via the dict path).

        s_linked = 0
        s_total = 0
        for x, x_required in s_leaves.items():
            has_link = any(
                sims.wsim(x, y) >= thaccept for y in t_leaves
            )
            if has_link:
                s_linked += 1
                s_total += 1
            elif x_required or not discount:
                s_total += 1
            # Optional leaf without a strong link: excluded from both
            # numerator and denominator (§8.4) when discounting is on.

        t_linked = 0
        t_total = 0
        for y, y_required in t_leaves.items():
            has_link = any(
                sims.wsim(x, y) >= thaccept for x in s_leaves
            )
            if has_link:
                t_linked += 1
                t_total += 1
            elif y_required or not discount:
                t_total += 1

        denominator = s_total + t_total
        if denominator == 0:
            return 0.0
        return (s_linked + t_linked) / denominator

    def _scale_leaf_pairs(
        self,
        s: SchemaTreeNode,
        t: SchemaTreeNode,
        sims: SimilarityStore,
        factor: float,
    ) -> int:
        """Multiply ssim of every (leaf of s, leaf of t) pair by factor.

        Returns the number of leaf pairs touched (for run statistics).
        """
        if isinstance(sims, DenseSimilarityStore):
            scaled = sims.scale_block(s, t, factor)
            if scaled is not None:
                return scaled
        count = 0
        for x in s.leaves():
            for y in t.leaves():
                sims.scale_ssim(x, y, factor)
                count += 1
        return count

    # ------------------------------------------------------------------
    # Second pass (Section 7)
    # ------------------------------------------------------------------

    def recompute_wsim(
        self, result: TreeMatchResult
    ) -> Mapping[Tuple[int, int], float]:
        """Second post-order pass re-computing non-leaf similarities.

        "To generate non-leaf mappings, we need a second post-order
        traversal ... because the updating of leaf similarities during
        tree-match may affect the structural similarity of non-leaf
        nodes after they were first calculated." No threshold updates
        happen here; leaf pair values pass through unchanged, and
        every pair with a non-leaf is recomputed. On the leaf plane
        the pass visits only pairs involving a non-leaf, in the first
        pass's waves, reusing its plan while the trees are unchanged
        (module docstring); leaf entries of the returned map (also
        stored as ``result.wsim``) read the plane.
        """
        pass_span = trace.start_span("treematch.recompute")
        if pass_span is None:
            return self._recompute_pass(result)
        try:
            refreshed = self._recompute_pass(result)
        finally:
            trace.end_span(pass_span)
        pass_span.annotate(recompute_pairs=result.recompute_pairs)
        return refreshed

    def _recompute_pass(
        self, result: TreeMatchResult
    ) -> Mapping[Tuple[int, int], float]:
        sims = result.sims
        self._frontier_memo = {}
        plan, result.wave_plan = result.wave_plan, None
        if plan is None or not plan.fits(result, self):
            source_order = result.source_tree.postorder()
            target_order = [
                (t, t.leaf_count()) for t in result.target_tree.postorder()
            ]
            if not self._on_leaf_plane(sims, source_order, target_order):
                return self._pair_recompute(
                    result, source_order, target_order
                )
            plan = self._waves(result, source_order, target_order)
        # Nothing here writes the plane, so leaf-pair wsims are final and
        # waves of many pairs may run in any order; the one-pair waves of
        # depth-pruned frontiers keep post-order, since they read
        # stand-in wsims this pass rewrites.
        result.recompute_pairs = plan.compared
        refreshed = dict.fromkeys(plan.slots)
        for wave in plan.waves:
            refreshed.update(zip(wave.keys, self._wave_wsims(sims, wave)))
        result.wsim = LeafPlaneWsim(refreshed, sims)
        return result.wsim

    def _pair_recompute(
        self,
        result: TreeMatchResult,
        source_order: List[SchemaTreeNode],
        target_order: List[Tuple[SchemaTreeNode, int]],
    ) -> Mapping[Tuple[int, int], float]:
        """The second pass off the leaf plane, one node pair at a time
        in post-order."""
        sims = result.sims
        refreshed: Dict[Tuple[int, int], float] = {}
        row_of = self._target_rows(result, target_order, True)
        result.recompute_pairs = 0
        for s in source_order:
            s_is_leaf = s.is_leaf
            row, _ = row_of(s)
            for _, t in row:
                if not (s_is_leaf and t.is_leaf):
                    result.recompute_pairs += 1
                    sims.set_ssim(
                        s, t, self._structural_similarity(s, t, sims)
                    )
                refreshed[(s.node_id, t.node_id)] = sims.wsim(s, t)
        result.wsim = refreshed
        return refreshed


def _heights(order: Iterable[SchemaTreeNode]) -> Dict[int, int]:
    """Node id -> height (a leaf is 0, a node 1 + its highest child's
    height), from a post-order, which lists children first."""
    height: Dict[int, int] = {}
    for node in order:
        height[node.node_id] = (
            1 + max(height[child.node_id] for child in node.children)
            if node.children
            else 0
        )
    return height


class _Targets(NamedTuple):
    """The targets of one height in a row: nodes, their ids, and the
    sum of their leaf counts."""

    nodes: List[SchemaTreeNode]
    ids: List[int]
    cells: int

    @classmethod
    def by_height(
        cls, row: list, height: Dict[int, int]
    ) -> List[Tuple[int, "_Targets"]]:
        """A ``(target index, target)`` row split by target height,
        each group in row (post-)order."""
        groups: Dict[int, List[SchemaTreeNode]] = {}
        for _, t in row:
            groups.setdefault(height[t.node_id], []).append(t)
        return [
            (h, cls(
                nodes,
                [t.node_id for t in nodes],
                sum(t.leaf_hi - t.leaf_lo for t in nodes),
            ))
            for h, nodes in groups.items()
        ]


class _Wave:
    """A group of node pairs a TreeMatch pass runs together, with their
    ``(node_id, node_id)`` keys: either the store's
    :class:`WaveBlocks` for the wave kernels, or a single ``pair`` for
    the per-pair path. ``lsims`` holds the pairs' lsims, in pair
    order, once the wave has run."""

    __slots__ = ("keys", "blocks", "pair", "lsims")

    def __init__(
        self,
        keys: List[Tuple[int, int]],
        blocks: Optional[WaveBlocks],
        pair: Optional[Tuple[SchemaTreeNode, SchemaTreeNode]] = None,
    ) -> None:
        self.keys = keys
        self.blocks = blocks
        self.pair = pair
        self.lsims: Optional[List[float]] = None

    @classmethod
    def of(cls, entries: List[Tuple[SchemaTreeNode, _Targets]]) -> "_Wave":
        """The wave of ``(source, targets)`` entries sharing one
        (source height, target height), sources in post-order. Nodes
        of one height are disjoint, so post-order is their window
        order."""
        sources = [s for s, _ in entries]
        targets = entries[0][1].nodes
        shared = all(group.nodes is targets for _, group in entries)
        if shared:
            columns = list(range(len(targets)))
        else:
            targets = sorted(
                {t.node_id: t for _, group in entries for t in group.nodes}
                .values(),
                key=lambda t: t.leaf_lo,
            )
            column = {t.node_id: k for k, t in enumerate(targets)}
        keys: List[Tuple[int, int]] = []
        pair_s: List[int] = []
        pair_t: List[int] = []
        cells = 0
        for i, (s, group) in enumerate(entries):
            s_id = s.node_id
            keys += [(s_id, t_id) for t_id in group.ids]
            pair_s += [i] * len(group.ids)
            pair_t += (
                columns if shared else [column[t_id] for t_id in group.ids]
            )
            cells += (s.leaf_hi - s.leaf_lo) * group.cells
        return cls(
            keys, WaveBlocks(sources, targets, pair_s, pair_t, cells)
        )


class _WavePlan:
    """A leaf-plane pass's schedule: its waves, ``slots`` (every pair
    with a non-leaf, keyed in post-order), how many pairs it compares
    and prunes besides the leaf plane, and the config and tree
    encodings it was built on."""

    __slots__ = (
        "waves", "slots", "compared", "pruned", "_config", "_encodings"
    )

    def __init__(
        self,
        waves: List[_Wave],
        slots: Dict[Tuple[int, int], float],
        compared: int,
        pruned: int,
        result: TreeMatchResult,
        treematch: TreeMatch,
    ) -> None:
        self.waves = waves
        self.slots = slots
        self.compared = compared
        self.pruned = pruned
        self._config = treematch.config
        self._encodings = (
            result.source_tree.root._enc, result.target_tree.root._enc
        )

    def fits(self, result: TreeMatchResult, treematch: TreeMatch) -> bool:
        """Does the plan still describe ``result``'s trees under
        ``treematch``? A structural mutation drops a tree's encoding
        and a reindex stamps a new one, so the same encoding objects
        on both roots mean unchanged trees."""
        source_enc, target_enc = self._encodings
        return (
            treematch.config is self._config
            and source_enc is not None
            and source_enc is result.source_tree.root._enc
            and target_enc is not None
            and target_enc is result.target_tree.root._enc
        )
