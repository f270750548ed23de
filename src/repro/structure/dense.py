"""Dense-index similarity engine for TreeMatch.

The reference :class:`~repro.structure.similarity.SimilarityStore`
routes every leaf-pair probe through dict-of-int-tuple lookups and
recomputes ``wsim`` from scratch on each read. On the scalability
workloads (``benchmarks/bench_scalability.py``) those probes dominate:
TreeMatch's strong-link counting touches every (leaf, leaf) cell once
per ancestor pair.

This module replaces the hot path with contiguous-array arithmetic:

* each tree's leaves get **dense integer ids** (their position in the
  root's deduplicated leaf tuple);
* ``ssim``, ``lsim`` and ``wsim`` over leaf pairs live in flat
  row-major ``array('d')`` matrices (pure stdlib); when numpy is
  importable they are transparently upgraded with zero-copy
  ``np.frombuffer`` views over the same buffers (mirroring the
  optional-numpy pattern of :mod:`repro.mapping.assignment`), used for
  blocks large enough that vectorization beats per-call overhead;
* per-node leaf ids come from the tree's **interval encoding**
  (:meth:`~repro.tree.schema_tree.SchemaTree.reindex`): a pure
  subtree's leaves are the contiguous ``[pre_lo, pre_hi)`` window of
  the layout order, so the strong-link count of a node pair becomes a
  row/column max scan over the wsim matrix and the ``cinc``/``cdec``
  context adjustment becomes a clamped block multiply over that
  window (impure DAG nodes gather through their ascending id tuples);
* ``wsim`` cells are refreshed only for the block whose ``ssim`` was
  scaled, except by the leaf-plane operations below;
* every leaf×leaf pair is handled as one plane: TreeMatch's first-pass
  context adjustment of all of them is :meth:`scale_leaf_plane`, their
  wsim entries read the plane through :class:`LeafPlaneWsim`, and the
  leaf mapping starts from :meth:`leaf_column_maxima`;
* on pure trees TreeMatch runs its pairs with a non-leaf in **waves**
  (the schedule and its ordering argument are in
  :mod:`repro.structure.treematch`), and a wave is one kernel call
  per step: :meth:`wave_fractions` returns every pair's strong-link
  fraction and :meth:`scale_wave` applies every cinc/cdec decision.
  A wave's distinct sources have pairwise-disjoint leaf windows, and
  so do its targets (:class:`WaveBlocks`). The numpy kernels take one
  ``>= thaccept`` mask over the windows' bounding box, reduce it per
  window with ``reduceat`` on each axis, and scale through a factor
  block that holds 1.0 outside the scaled pairs: ×1.0 and an in-range
  clamp are exact, and a cell's wsim recomputes to the value it
  holds. Below the numpy floor, and on the stdlib backend, flat-array
  loops do the same per pair.

Every matrix cell is computed with exactly the scalar expressions the
reference store uses (same operand order, same clamping), and the
vectorized paths apply the same IEEE-754 double operations
element-wise, so the two engines produce **bit-identical**
similarities — the parity tests in ``tests/test_engine_parity.py``
assert exact equality.

Non-leaf pairs (and, under ``leaf_prune_depth > 0``, frontier nodes
that stand in for pruned subtrees) fall back to the inherited
dict-based bookkeeping, which is exact by construction.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import CupidConfig
from repro.exceptions import ConfigError
from repro.linguistic.kernel import FactoredLsimTable
from repro.linguistic.matcher import LsimTable
from repro.model.datatypes import TypeCompatibilityTable
from repro.structure.similarity import SimilarityStore
from repro.tree.schema_tree import SchemaTree, SchemaTreeNode

try:  # optional acceleration, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via dense_backend="stdlib"
    _np = None


def numpy_available() -> bool:
    return _np is not None


def resolve_backend(requested: str) -> str:
    """Map a ``dense_backend`` config value to a concrete backend."""
    if requested == "stdlib":
        return "stdlib"
    if requested == "numpy":
        if _np is None:
            raise ConfigError(
                "dense_backend='numpy' requested but numpy is not importable"
            )
        return "numpy"
    return "numpy" if _np is not None else "stdlib"


def leaf_base_ssim(
    config: CupidConfig, compat: TypeCompatibilityTable,
    dt1, key1: bool, dt2, key2: bool,
) -> float:
    """Initial ssim of a leaf class pair: clamped type compatibility
    plus the key-affinity adjustment.

    The same expression ``SimilarityStore.ssim`` uses for never-updated
    pairs; the dense store's matrix fill evaluates it once per distinct
    (type, key-ness) class pair.
    """
    base = compat.compatibility(dt1, dt2)
    if config.use_key_affinity:
        if key1 and key2:
            base += config.key_affinity_bonus
        elif key1 != key2:
            base -= config.key_affinity_bonus
    return min(0.5, max(0.0, base))


def iter_lsim_cells(entries, s_leaves, t_leaves):
    """Yield ``(i, j, value)`` for every leaf-matrix cell that the
    ``((source id, target id), value)`` lsim ``entries`` assign.

    Shared-type expansion can map one element to several tree leaves,
    hence the per-element index lists. The dense store scatters
    dict-form tables, and a factored table's overrides, into its lsim
    plane through this iterator.
    """
    s_rows: Dict[str, List[int]] = {}
    for i, leaf in enumerate(s_leaves):
        s_rows.setdefault(leaf.element.element_id, []).append(i)
    t_cols: Dict[str, List[int]] = {}
    for j, leaf in enumerate(t_leaves):
        t_cols.setdefault(leaf.element.element_id, []).append(j)
    for (id1, id2), value in entries:
        rows = s_rows.get(id1)
        if not rows:
            continue
        cols = t_cols.get(id2)
        if not cols:
            continue
        for i in rows:
            for j in cols:
                yield i, j, value


class LeafLayout:
    """Dense leaf-index layout of one tree side.

    Maps the root's deduplicated leaf tuple to consecutive integer ids.
    Computing it is cheap, but it is pure per-tree work: a
    :class:`~repro.pipeline.prepared.PreparedSchema` captures it once so
    batch sessions skip re-deriving it for every match. Must be rebuilt
    if the tree is structurally mutated afterwards.
    """

    __slots__ = ("leaves", "index")

    def __init__(self, tree: SchemaTree) -> None:
        self.leaves: Tuple[SchemaTreeNode, ...] = tuple(tree.root.leaves())
        self.index: Dict[int, int] = {
            leaf.node_id: i for i, leaf in enumerate(self.leaves)
        }


def _same_nodes(nodes: Sequence[SchemaTreeNode], layout_leaves) -> bool:
    return len(nodes) == len(layout_leaves) and set(map(id, nodes)) == set(
        map(id, layout_leaves)
    )


class LeafPlaneWsim(Mapping):
    """TreeMatch's read-only wsim map on the leaf plane.

    Pairs involving a non-leaf come from the ``pairs`` dict; leaf pairs
    read the store's live wsim plane, so no per-leaf-pair entry is ever
    built. Keys are ``(source node_id, target node_id)`` as in the dict
    the reference engine keeps.
    """

    __slots__ = ("pairs", "_store")

    def __init__(
        self,
        pairs: Dict[Tuple[int, int], float],
        store: "DenseSimilarityStore",
    ) -> None:
        self.pairs = pairs
        self._store = store

    def get(self, key: Tuple[int, int], default=None):
        value = self.pairs.get(key)
        if value is None:
            value = self._store.leaf_wsim(key)
        return default if value is None else value

    def __getitem__(self, key: Tuple[int, int]) -> float:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __contains__(self, key: object) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self.pairs) + self._store.leaf_cells

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        yield from self.pairs
        yield from self._store.leaf_keys()


class _NodeIndex:
    """Cached dense leaf ids of one node's subtree (one tree side).

    ``ids`` is ascending; ``lo``/``hi`` are set when the ids form the
    contiguous range [lo, hi) — true for every plain-tree node, since
    DFS leaf collection numbers a subtree's leaves consecutively; only
    DAG join views produce gather lists. ``np_ids`` is materialized
    lazily the first time a vectorized gather needs it.
    """

    __slots__ = ("ids", "lo", "hi", "np_ids")

    def __init__(self, ids: List[int]) -> None:
        self.ids = ids
        if ids and ids[-1] - ids[0] + 1 == len(ids):
            self.lo: Optional[int] = ids[0]
            self.hi: Optional[int] = ids[-1] + 1
        else:
            self.lo = None
            self.hi = None
        self.np_ids = None

    def numpy_ids(self):
        if self.np_ids is None:
            self.np_ids = _np.asarray(self.ids, dtype=_np.intp)
        return self.np_ids


class _FrontierIndex(_NodeIndex):
    """A node's effective-leaf frontier: ids + aligned required flags."""

    __slots__ = ("required", "np_required")

    def __init__(self, ids: List[int], required: List[bool]) -> None:
        super().__init__(ids)
        self.required = required
        self.np_required = None

    def numpy_required(self):
        if self.np_required is None:
            self.np_required = _np.asarray(self.required, dtype=bool)
        return self.np_required


class WaveBlocks:
    """One TreeMatch wave as the store's wave kernels address it.

    ``sources`` and ``targets`` are the wave's distinct nodes on each
    side, in ascending order of their pairwise-disjoint ``[leaf_lo,
    leaf_hi)`` windows (the trees are ones :meth:`DenseSimilarityStore.
    begin_waves` accepted). Pair p is the block window ``pair_s[p]`` ×
    window ``pair_t[p]``. ``cells`` sums the pairs' block sizes; it is
    what the store's numpy floor is tested against.
    """

    __slots__ = ("sources", "targets", "pair_s", "pair_t", "cells", "_axes")

    def __init__(
        self,
        sources: List[SchemaTreeNode],
        targets: List[SchemaTreeNode],
        pair_s: List[int],
        pair_t: List[int],
        cells: int,
    ) -> None:
        self.sources = sources
        self.targets = targets
        self.pair_s = pair_s
        self.pair_t = pair_t
        self.cells = cells
        self._axes = None


class _WaveAxis:
    """One side of a wave in numpy form, relative to its windows'
    bounding box ``[lo, hi)``: the box is cut into segments — each
    window, plus any gap between two windows — starting at ``starts``
    with lengths ``sizes``; ``window`` maps a window to its segment,
    ``required`` flags each box position whose leaf is required from
    its window's node (``leaf_opt <= level``; gap positions read False
    and are dropped with their segments), and ``pairs`` holds each
    pair's window on this side."""

    __slots__ = ("lo", "hi", "starts", "sizes", "window", "required", "pairs")

    def __init__(
        self, nodes: List[SchemaTreeNode], leaf_opt, pairs: List[int]
    ) -> None:
        self.lo = lo = nodes[0].leaf_lo
        self.hi = hi = nodes[-1].leaf_hi
        starts: List[int] = []
        levels: List[int] = []
        window: List[int] = []
        at = lo
        for node in nodes:
            if node.leaf_lo > at:
                # A gap: below every optional level, so never required.
                starts.append(at - lo)
                levels.append(-2)
            window.append(len(starts))
            starts.append(node.leaf_lo - lo)
            levels.append(node.level)
            at = node.leaf_hi
        self.starts = _np.asarray(starts, dtype=_np.intp)
        self.sizes = _np.diff(self.starts, append=hi - lo)
        self.window = _np.asarray(window, dtype=_np.intp)
        self.required = leaf_opt[lo:hi] <= _np.repeat(levels, self.sizes)
        self.pairs = _np.asarray(pairs, dtype=_np.intp)


class DenseSimilarityStore(SimilarityStore):
    """Matrix-backed ssim/lsim/wsim over the two trees' leaf pairs.

    Drop-in replacement for :class:`SimilarityStore`: all scalar
    accessors keep working for arbitrary node pairs; leaf-pair accesses
    are redirected to the matrices. TreeMatch additionally uses the
    bulk operations :meth:`scale_block` and :meth:`structural_fraction`.
    """

    #: Blocks with at least this many cells use the numpy views; below
    #: it, the flat-array scalar loop wins (numpy's per-call dispatch
    #: costs more than the arithmetic it saves on small blocks).
    _VECTOR_MIN_CELLS = 2048

    def __init__(
        self,
        lsim_table: LsimTable,
        config: CupidConfig,
        compat: TypeCompatibilityTable,
        source_tree: SchemaTree,
        target_tree: SchemaTree,
        source_layout: Optional[LeafLayout] = None,
        target_layout: Optional[LeafLayout] = None,
    ) -> None:
        super().__init__(lsim_table, config, compat)
        self.backend = resolve_backend(config.dense_backend)
        self._use_numpy = self.backend == "numpy"
        if source_layout is None:
            source_layout = LeafLayout(source_tree)
        if target_layout is None:
            target_layout = LeafLayout(target_tree)
        self._s_leaves = source_layout.leaves
        self._t_leaves = target_layout.leaves
        self._s_index = source_layout.index
        self._t_index = target_layout.index
        self._n_s = len(self._s_leaves)
        self._n_t = len(self._t_leaves)
        self._wl = config.wstruct_leaf
        self._om = 1.0 - config.wstruct_leaf

        # Per-node caches (node_id -> index or None), filled lazily.
        self._leaf_idx_s: Dict[int, Optional[_NodeIndex]] = {}
        self._leaf_idx_t: Dict[int, Optional[_NodeIndex]] = {}
        self._frontier_s: Dict[int, Optional[_FrontierIndex]] = {}
        self._frontier_t: Dict[int, Optional[_FrontierIndex]] = {}
        # Per-leaf optional levels of the trees begin_waves bound, and
        # their numpy form once a numpy wave kernel needs it.
        self._wave_opt: Tuple[Sequence[int], ...] = ()
        self._wave_opt_np = None

        self._build_matrices(lsim_table)

    # ------------------------------------------------------------------
    # Matrix construction
    # ------------------------------------------------------------------

    def _build_matrices(self, lsim_table: LsimTable) -> None:
        n_s, n_t = self._n_s, self._n_t
        size = n_s * n_t
        ssim_flat = array("d", bytes(8 * size))
        lsim_flat = array("d", bytes(8 * size))

        # Initial leaf ssim = the shared leaf_base_ssim expression. It
        # depends only on each side's (type, key-ness) class, so every
        # source leaf of one class gets the same row: build it once per
        # source class (one evaluation per class pair) and copy it in
        # by slice.
        config = self._config
        compat = self._compat
        t_class_ids: Dict[Tuple, int] = {}
        t_columns = [
            t_class_ids.setdefault(
                (leaf.data_type, leaf.element.is_key), len(t_class_ids)
            )
            for leaf in self._t_leaves
        ]
        rows: Dict[Tuple, array] = {}
        for i, s_leaf in enumerate(self._s_leaves):
            s_class = (s_leaf.data_type, s_leaf.element.is_key)
            row = rows.get(s_class)
            if row is None:
                per_class = [
                    leaf_base_ssim(config, compat, *s_class, dt2, k2)
                    for dt2, k2 in t_class_ids
                ]
                row = rows[s_class] = array(
                    "d", [per_class[c] for c in t_columns]
                )
            ssim_flat[i * n_t:(i + 1) * n_t] = row

        if isinstance(lsim_table, FactoredLsimTable):
            # Kernel-factored table: gather each leaf's profile row,
            # then scatter the pairs that override their profile cell.
            self._gather_lsim(lsim_table, lsim_flat)
            entries = lsim_table.overrides.items()
        else:
            # lsim is sparse: scatter the table into the matrix instead
            # of probing every cell.
            entries = lsim_table.items()
        if entries:
            for i, j, value in iter_lsim_cells(
                entries, self._s_leaves, self._t_leaves
            ):
                lsim_flat[i * n_t + j] = value

        wsim_flat = array("d", bytes(8 * size))
        self._S = ssim_flat
        self._L = lsim_flat
        self._W = wsim_flat

        if self._use_numpy:
            # Zero-copy views: scalar paths keep using the flat arrays,
            # vectorized paths write through the same memory.
            self._Snp = _np.frombuffer(ssim_flat, dtype=_np.float64).reshape(
                n_s, n_t
            )
            self._Lnp = _np.frombuffer(lsim_flat, dtype=_np.float64).reshape(
                n_s, n_t
            )
            self._Wnp = _np.frombuffer(wsim_flat, dtype=_np.float64).reshape(
                n_s, n_t
            )
            _np.multiply(self._Snp, self._wl, out=self._Wnp)
            self._Wnp += self._om * self._Lnp
        else:
            wl, om = self._wl, self._om
            for i in range(size):
                wsim_flat[i] = wl * ssim_flat[i] + om * lsim_flat[i]

    def _gather_lsim(
        self, factored: FactoredLsimTable, lsim_flat: array
    ) -> None:
        """Fill the leaf lsim matrix by profile-index gather.

        Each leaf maps to its element's profile id; the cell (i, j) is
        a straight copy of the profile matrix cell, so the result is
        bit-identical to scattering the reference table. Leaves whose
        element carries no profile (no category membership) keep lsim
        0, exactly the pairs that table omits. The caller scatters the
        table's overrides on top.
        """
        n_s, n_t = self._n_s, self._n_t
        p_s = factored.n_source_profiles
        p_t = factored.n_target_profiles
        s_profile_of = factored.profile_of_source
        t_profile_of = factored.profile_of_target
        # Sentinel p_s / p_t rows (all zero after padding) stand in for
        # unprofiled elements.
        row_profiles = [
            s_profile_of.get(leaf.element.element_id, p_s)
            for leaf in self._s_leaves
        ]
        col_profiles = [
            t_profile_of.get(leaf.element.element_id, p_t)
            for leaf in self._t_leaves
        ]
        if self._use_numpy and n_s * n_t >= self._VECTOR_MIN_CELLS:
            padded = _np.zeros((p_s + 1, p_t + 1))
            if p_s and p_t:
                padded[:p_s, :p_t] = factored.numpy_values()
            gathered = padded[
                _np.asarray(row_profiles, dtype=_np.intp)[:, None],
                _np.asarray(col_profiles, dtype=_np.intp)[None, :],
            ]
            _np.frombuffer(lsim_flat, dtype=_np.float64)[:] = (
                gathered.reshape(-1)
            )
            return
        values = factored.profile_values
        for i, p in enumerate(row_profiles):
            if p == p_s:
                continue
            base = i * n_t
            p_base = p * p_t
            for j, q in enumerate(col_profiles):
                if q == p_t:
                    continue
                value = values[p_base + q]
                if value != 0.0:
                    lsim_flat[base + j] = value

    # ------------------------------------------------------------------
    # Scalar accessors (leaf-pair fast path, inherited fallback)
    # ------------------------------------------------------------------

    def _leaf_pos(
        self, s: SchemaTreeNode, t: SchemaTreeNode
    ) -> Optional[int]:
        """Flat wsim-matrix offset of a leaf pair, or None."""
        i = self._s_index.get(s.node_id)
        if i is None:
            return None
        j = self._t_index.get(t.node_id)
        if j is None:
            return None
        return i * self._n_t + j

    def ssim(self, s: SchemaTreeNode, t: SchemaTreeNode) -> float:
        pos = self._leaf_pos(s, t)
        if pos is None:
            return super().ssim(s, t)
        return self._S[pos]

    def set_ssim(
        self, s: SchemaTreeNode, t: SchemaTreeNode, value: float
    ) -> None:
        pos = self._leaf_pos(s, t)
        if pos is None:
            super().set_ssim(s, t, value)
            return
        clamped = min(1.0, max(0.0, value))
        self._S[pos] = clamped
        self._W[pos] = self._wl * clamped + self._om * self._L[pos]

    def lsim(self, s: SchemaTreeNode, t: SchemaTreeNode) -> float:
        pos = self._leaf_pos(s, t)
        if pos is None:
            return super().lsim(s, t)
        return self._L[pos]

    def wsim(self, s: SchemaTreeNode, t: SchemaTreeNode) -> float:
        pos = self._leaf_pos(s, t)
        if pos is None:
            return super().wsim(s, t)
        return self._W[pos]

    # ------------------------------------------------------------------
    # The leaf plane as a whole
    # ------------------------------------------------------------------

    def spans_leaves(
        self,
        source_leaves: Sequence[SchemaTreeNode],
        target_leaves: Sequence[SchemaTreeNode],
    ) -> bool:
        """Are these exactly the layout's leaves on each side (in any
        order)? Only then does the plane hold every leaf pair a
        traversal of the trees visits, and nothing else — false for a
        tree mutated after its layout was built."""
        return _same_nodes(source_leaves, self._s_leaves) and _same_nodes(
            target_leaves, self._t_leaves
        )

    @property
    def leaf_cells(self) -> int:
        return self._n_s * self._n_t

    def leaf_wsim(self, key: Tuple[int, int]) -> Optional[float]:
        """Live plane wsim of a ``(source node_id, target node_id)``
        leaf pair, or None when either id is not a layout leaf."""
        s_id, t_id = key
        i = self._s_index.get(s_id)
        if i is None:
            return None
        j = self._t_index.get(t_id)
        if j is None:
            return None
        return self._W[i * self._n_t + j]

    def leaf_keys(self) -> Iterator[Tuple[int, int]]:
        """Every leaf pair's ``(node_id, node_id)`` key, row-major."""
        t_ids = [leaf.node_id for leaf in self._t_leaves]
        for s_leaf in self._s_leaves:
            s_id = s_leaf.node_id
            for t_id in t_ids:
                yield s_id, t_id

    def scale_leaf_plane(
        self, thhigh: float, thlow: float, cinc: float, cdec: float
    ) -> int:
        """Figure 3's context adjustment of every leaf pair at once.

        Multiplies ssim by ``cinc`` where the cell's wsim exceeds
        ``thhigh`` and by ``cdec`` where it is below ``thlow``, then
        applies :meth:`scale_block`'s [0, 1] clamp and wsim refresh —
        the same IEEE operations in the same order, so each cell ends
        exactly where a 1×1 ``scale_block`` would leave it. Validation
        keeps ``thlow < thaccept < thhigh``, so the two cases never
        overlap. TreeMatch calls it on the pristine planes, before any
        other first-pass write (the ordering argument is in
        :mod:`repro.structure.treematch`). Returns the number of cells
        scaled.
        """
        n_s, n_t = self._n_s, self._n_t
        if self._use_numpy and n_s * n_t >= self._VECTOR_MIN_CELLS:
            ssim, wsim = self._Snp, self._Wnp
            inc = wsim > thhigh
            dec = wsim < thlow
            scaled = int(_np.count_nonzero(inc)) + int(
                _np.count_nonzero(dec)
            )
            if scaled:
                _np.multiply(ssim, cinc, out=ssim, where=inc)
                _np.multiply(ssim, cdec, out=ssim, where=dec)
                # Unscaled cells are in range and recompute to the wsim
                # they hold, so a whole-plane clamp and refresh leave
                # them be.
                _np.clip(ssim, 0.0, 1.0, out=ssim)
                _np.multiply(ssim, self._wl, out=wsim)
                wsim += self._om * self._Lnp
            return scaled

        ssim_flat, lsim_flat, wsim_flat = self._S, self._L, self._W
        wl, om = self._wl, self._om
        scaled = 0
        for flat in range(n_s * n_t):
            old_wsim = wsim_flat[flat]
            if old_wsim > thhigh:
                value = ssim_flat[flat] * cinc
            elif old_wsim < thlow:
                value = ssim_flat[flat] * cdec
            else:
                continue
            scaled += 1
            if value > 1.0:
                value = 1.0
            elif value < 0.0:
                value = 0.0
            ssim_flat[flat] = value
            wsim_flat[flat] = wl * value + om * lsim_flat[flat]
        return scaled

    def leaf_column_maxima(
        self,
        source_leaves: Sequence[SchemaTreeNode],
        target_leaves: Sequence[SchemaTreeNode],
        margin: float,
    ) -> Optional[List[Tuple[float, int, bool]]]:
        """Per target leaf (plane column): ``(best wsim, first source
        row holding it, whether every other row is more than
        ``margin`` below it)``.

        None when there are no source leaves, or when the sequences
        are not the layout's rows and columns in layout order (a tree
        mutated after its layout was built).
        """
        if (
            not self._n_s
            or tuple(source_leaves) != self._s_leaves
            or tuple(target_leaves) != self._t_leaves
        ):
            return None
        n_t = self._n_t
        if self._use_numpy and self._n_s * n_t >= self._VECTOR_MIN_CELLS:
            wsim = self._Wnp
            best = wsim.max(axis=0)
            clear = _np.count_nonzero(wsim >= best - margin, axis=0) == 1
            return list(zip(
                best.tolist(), wsim.argmax(axis=0).tolist(), clear.tolist()
            ))
        wsim_flat = self._W
        columns: List[Tuple[float, int, bool]] = []
        for j in range(n_t):
            column = wsim_flat[j::n_t]
            top = max(column)
            row = column.index(top)
            runner_up = max(
                max(column[:row], default=-math.inf),
                max(column[row + 1:], default=-math.inf),
            )
            columns.append((top, row, runner_up < top - margin))
        return columns

    # ------------------------------------------------------------------
    # Per-node leaf-index caching
    # ------------------------------------------------------------------

    def _node_indices(
        self, node: SchemaTreeNode, source_side: bool
    ) -> Optional[_NodeIndex]:
        """Dense ids of ``node``'s subtree leaves (cached per node).

        When the node's interval encoding was minted from this store's
        layout order (checked by leaf-tuple identity), the ids come
        straight from the encoding: the ``[leaf_lo, leaf_hi)`` window
        for pure subtrees (block ops then address ``[pre_lo, pre_hi)``
        ranges without any sort), or the ascending gather tuple for
        impure DAG nodes. Otherwise — foreign layout, or a tree
        mutated after store construction — each leaf is resolved
        through the index dict; None when one is missing, and callers
        fall back to the scalar path.
        """
        cache = self._leaf_idx_s if source_side else self._leaf_idx_t
        key = node.node_id
        if key in cache:
            return cache[key]
        layout_leaves = self._s_leaves if source_side else self._t_leaves
        enc = node._enc
        if enc is not None and enc.leaves is layout_leaves:
            ids = (
                list(range(node.leaf_lo, node.leaf_hi))
                if node._leaf_ids is None
                else list(node._leaf_ids)
            )
            entry = _NodeIndex(ids)
            cache[key] = entry
            return entry
        index = self._s_index if source_side else self._t_index
        ids: List[int] = []
        for leaf in node.leaves():
            i = index.get(leaf.node_id)
            if i is None:
                cache[key] = None
                return None
            ids.append(i)
        ids.sort()
        entry = _NodeIndex(ids)
        cache[key] = entry
        return entry

    def _frontier_indices(
        self,
        node: SchemaTreeNode,
        frontier: Dict[SchemaTreeNode, bool],
        source_side: bool,
    ) -> Optional[_FrontierIndex]:
        """Dense ids + required flags for a node's effective-leaf
        frontier, aligned on ascending ids; None when the frontier
        contains nodes outside the leaf index (depth-pruned stand-ins).
        """
        cache = self._frontier_s if source_side else self._frontier_t
        key = node.node_id
        if key in cache:
            return cache[key]
        index = self._s_index if source_side else self._t_index
        pairs: List[Tuple[int, bool]] = []
        for leaf, required in frontier.items():
            i = index.get(leaf.node_id)
            if i is None:
                cache[key] = None
                return None
            pairs.append((i, required))
        pairs.sort()
        entry = _FrontierIndex(
            [i for i, _ in pairs], [r for _, r in pairs]
        )
        cache[key] = entry
        return entry

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------

    def scale_block(
        self, s: SchemaTreeNode, t: SchemaTreeNode, factor: float
    ) -> Optional[int]:
        """Multiply ssim of every (leaf of s, leaf of t) pair by
        ``factor`` (clamped to [0, 1]) and refresh exactly that block
        of the wsim matrix. Returns the number of cells scaled, or
        None if the subtrees are not fully leaf-indexed.
        """
        s_entry = self._node_indices(s, source_side=True)
        if s_entry is None:
            return None
        t_entry = self._node_indices(t, source_side=False)
        if t_entry is None:
            return None
        cells = len(s_entry.ids) * len(t_entry.ids)

        if self._use_numpy and cells >= self._VECTOR_MIN_CELLS:
            if s_entry.lo is not None and t_entry.lo is not None:
                rows = slice(s_entry.lo, s_entry.hi)
                cols = slice(t_entry.lo, t_entry.hi)
                block = self._Snp[rows, cols]
                block *= factor
                _np.clip(block, 0.0, 1.0, out=block)
                self._Wnp[rows, cols] = (
                    self._wl * block + self._om * self._Lnp[rows, cols]
                )
            else:
                ix = _np.ix_(s_entry.numpy_ids(), t_entry.numpy_ids())
                block = self._Snp[ix] * factor
                _np.clip(block, 0.0, 1.0, out=block)
                self._Snp[ix] = block
                self._Wnp[ix] = self._wl * block + self._om * self._Lnp[ix]
            return cells

        ssim_flat, lsim_flat, wsim_flat = self._S, self._L, self._W
        n_t = self._n_t
        wl, om = self._wl, self._om
        t_ids = (
            range(t_entry.lo, t_entry.hi)
            if t_entry.lo is not None
            else t_entry.ids
        )
        for x in s_entry.ids:
            base = x * n_t
            for y in t_ids:
                flat = base + y
                value = ssim_flat[flat] * factor
                if value > 1.0:
                    value = 1.0
                elif value < 0.0:
                    value = 0.0
                ssim_flat[flat] = value
                wsim_flat[flat] = wl * value + om * lsim_flat[flat]
        return cells

    def structural_fraction(
        self,
        s: SchemaTreeNode,
        t: SchemaTreeNode,
        s_frontier: Dict[SchemaTreeNode, bool],
        t_frontier: Dict[SchemaTreeNode, bool],
        thaccept: float,
        discount: bool,
    ) -> Optional[float]:
        """Strong-link fraction of Section 6 as matrix row/column scans.

        Returns None when either frontier is not fully leaf-indexed
        (TreeMatch then falls back to the reference per-pair loop).
        """
        s_entry = self._frontier_indices(s, s_frontier, source_side=True)
        if s_entry is None:
            return None
        t_entry = self._frontier_indices(t, t_frontier, source_side=False)
        if t_entry is None:
            return None
        s_ids, t_ids = s_entry.ids, t_entry.ids
        if not s_ids or not t_ids:
            return 0.0

        if self._use_numpy and len(s_ids) * len(t_ids) >= self._VECTOR_MIN_CELLS:
            if s_entry.lo is not None and t_entry.lo is not None:
                sub = self._Wnp[s_entry.lo:s_entry.hi, t_entry.lo:t_entry.hi]
            else:
                sub = self._Wnp[
                    _np.ix_(s_entry.numpy_ids(), t_entry.numpy_ids())
                ]
            strong = sub >= thaccept
            s_has = strong.any(axis=1)
            t_has = strong.any(axis=0)
            s_linked = int(_np.count_nonzero(s_has))
            t_linked = int(_np.count_nonzero(t_has))
            if discount:
                s_total = s_linked + int(
                    _np.count_nonzero(s_entry.numpy_required() & ~s_has)
                )
                t_total = t_linked + int(
                    _np.count_nonzero(t_entry.numpy_required() & ~t_has)
                )
            else:
                s_total = len(s_ids)
                t_total = len(t_ids)
        else:
            wsim_flat = self._W
            n_t = self._n_t
            s_required = s_entry.required
            t_required = t_entry.required
            s_linked = 0
            s_total = 0
            for k, x in enumerate(s_ids):
                base = x * n_t
                has_link = False
                for y in t_ids:
                    if wsim_flat[base + y] >= thaccept:
                        has_link = True
                        break
                if has_link:
                    s_linked += 1
                    s_total += 1
                elif s_required[k] or not discount:
                    s_total += 1
            t_linked = 0
            t_total = 0
            for k, y in enumerate(t_ids):
                has_link = False
                for x in s_ids:
                    if wsim_flat[x * n_t + y] >= thaccept:
                        has_link = True
                        break
                if has_link:
                    t_linked += 1
                    t_total += 1
                elif t_required[k] or not discount:
                    t_total += 1

        denominator = s_total + t_total
        if denominator == 0:
            return 0.0
        return (s_linked + t_linked) / denominator

    # ------------------------------------------------------------------
    # Wave kernels
    # ------------------------------------------------------------------

    def begin_waves(self, source_tree: SchemaTree, target_tree: SchemaTree) -> bool:
        """Bind the wave kernels to these trees if they can address
        them: both pure (no gather-tuple node, so every node's leaves
        are its window and a leaf x is required from it exactly when
        ``leaf_opt[x] <= level``) and indexed against this store's
        layout."""
        leaf_opt = []
        for tree, leaves in (
            (source_tree, self._s_leaves), (target_tree, self._t_leaves)
        ):
            enc = tree.root._enc
            if enc is None or enc.leaves is not leaves or not tree.root.pure:
                return False
            leaf_opt.append(enc.leaf_opt)
        self._wave_opt = tuple(leaf_opt)
        self._wave_opt_np = None
        return True

    def _vectorized(self, wave: WaveBlocks) -> bool:
        return self._use_numpy and wave.cells >= self._VECTOR_MIN_CELLS

    def wave_fractions(
        self, wave: WaveBlocks, thaccept: float, discount: bool
    ) -> List[float]:
        """:meth:`structural_fraction` of every pair of the wave, in
        pair order, read from the wsim plane as it stands."""
        if self._vectorized(wave):
            return self._wave_fractions_numpy(wave, thaccept, discount)
        wsim_flat = self._W
        n_t = self._n_t
        s_opt, t_opt = self._wave_opt
        sources, targets = wave.sources, wave.targets
        fractions: List[float] = []
        for i, k in zip(wave.pair_s, wave.pair_t):
            s, t = sources[i], targets[k]
            s_lo, s_hi, t_lo, t_hi = s.leaf_lo, s.leaf_hi, t.leaf_lo, t.leaf_hi
            # ``counted``: leaves without a strong link that still count
            # in the denominator (required ones, or all of them when
            # optional leaves are not discounted).
            linked = counted = 0
            level = s.level
            for x in range(s_lo, s_hi):
                base = x * n_t
                for flat in range(base + t_lo, base + t_hi):
                    if wsim_flat[flat] >= thaccept:
                        linked += 1
                        break
                else:
                    if not discount or s_opt[x] <= level:
                        counted += 1
            level = t.level
            row_end = s_hi * n_t
            for y in range(t_lo, t_hi):
                for flat in range(s_lo * n_t + y, row_end, n_t):
                    if wsim_flat[flat] >= thaccept:
                        linked += 1
                        break
                else:
                    if not discount or t_opt[y] <= level:
                        counted += 1
            denominator = linked + counted
            fractions.append(linked / denominator if denominator else 0.0)
        return fractions

    def _wave_axes(self, wave: WaveBlocks) -> Tuple[_WaveAxis, _WaveAxis]:
        if wave._axes is None:
            if self._wave_opt_np is None:
                self._wave_opt_np = tuple(
                    _np.asarray(opt, dtype=_np.intp) for opt in self._wave_opt
                )
            s_opt, t_opt = self._wave_opt_np
            wave._axes = (
                _WaveAxis(wave.sources, s_opt, wave.pair_s),
                _WaveAxis(wave.targets, t_opt, wave.pair_t),
            )
        return wave._axes

    def wave_lsims(self, wave: WaveBlocks) -> List[float]:
        """:meth:`lsim` of every pair of the wave, in pair order. A
        factored table without overrides is read by profile, as its
        ``get`` reads it."""
        table = self._lsim_table
        sources, targets = wave.sources, wave.targets
        if not isinstance(table, FactoredLsimTable) or table.overrides:
            get = table.get
            return [
                get(sources[i].element, targets[k].element)
                for i, k in zip(wave.pair_s, wave.pair_t)
            ]
        s_profile = table.profile_of_source
        t_profile = table.profile_of_target
        # -1: an element without a profile, whose lsim reads 0.0.
        rows = [s_profile.get(s.element.element_id, -1) for s in sources]
        cols = [t_profile.get(t.element.element_id, -1) for t in targets]
        values = table.profile_values
        width = table.n_target_profiles
        lsims = []
        for i, k in zip(wave.pair_s, wave.pair_t):
            p, q = rows[i], cols[k]
            lsims.append(0.0 if p < 0 or q < 0 else values[p * width + q])
        return lsims

    def _wave_fractions_numpy(
        self, wave: WaveBlocks, thaccept: float, discount: bool
    ) -> List[float]:
        rows, cols = self._wave_axes(wave)
        strong = self._Wnp[rows.lo:rows.hi, cols.lo:cols.hi] >= thaccept
        # Per row, per column segment: a strong link into it; per column,
        # per row segment likewise. Counting those per segment gives
        # every segment pair's linked leaves on each side.
        row_links = _np.logical_or.reduceat(strong, cols.starts, axis=1)
        col_links = _np.logical_or.reduceat(strong, rows.starts, axis=0)
        del strong

        def per_segment(row_flags, col_flags):
            return _np.add.reduceat(
                row_flags, rows.starts, axis=0, dtype=_np.intp
            ) + _np.add.reduceat(
                col_flags, cols.starts, axis=1, dtype=_np.intp
            )

        linked = per_segment(row_links, col_links)
        if discount:
            row_links |= rows.required[:, None]
            col_links |= cols.required[None, :]
            total = per_segment(row_links, col_links)
        else:
            total = rows.sizes[:, None] + cols.sizes[None, :]
        ps = rows.window[rows.pairs]
        pt = cols.window[cols.pairs]
        denominator = total[ps, pt]
        fractions = _np.zeros(len(ps))
        _np.divide(
            linked[ps, pt], denominator, out=fractions,
            where=denominator != 0,
        )
        return fractions.tolist()

    def scale_wave(
        self, wave: WaveBlocks, scaled: List[int], factors: List[float]
    ) -> int:
        """:meth:`scale_block` for each pair ``scaled[i]`` of the wave
        by ``factors[i]``: multiply, clamp to [0, 1], refresh wsim.
        The pairs' blocks are disjoint, so the order is free. Returns
        the number of cells scaled."""
        if self._vectorized(wave):
            return self._scale_wave_numpy(wave, scaled, factors)
        ssim_flat, lsim_flat, wsim_flat = self._S, self._L, self._W
        n_t = self._n_t
        wl, om = self._wl, self._om
        sources, targets = wave.sources, wave.targets
        pair_s, pair_t = wave.pair_s, wave.pair_t
        cells = 0
        for p, factor in zip(scaled, factors):
            s, t = sources[pair_s[p]], targets[pair_t[p]]
            t_lo, t_hi = t.leaf_lo, t.leaf_hi
            cells += (s.leaf_hi - s.leaf_lo) * (t_hi - t_lo)
            for x in range(s.leaf_lo, s.leaf_hi):
                base = x * n_t
                for flat in range(base + t_lo, base + t_hi):
                    value = ssim_flat[flat] * factor
                    if value > 1.0:
                        value = 1.0
                    elif value < 0.0:
                        value = 0.0
                    ssim_flat[flat] = value
                    wsim_flat[flat] = wl * value + om * lsim_flat[flat]
        return cells

    def _scale_wave_numpy(
        self, wave: WaveBlocks, scaled: List[int], factors: List[float]
    ) -> int:
        rows, cols = self._wave_axes(wave)
        scaled = _np.asarray(scaled, dtype=_np.intp)
        ps = rows.window[rows.pairs[scaled]]
        pt = cols.window[cols.pairs[scaled]]
        # Work on the segments the scaled pairs span. Every other cell
        # of that box gets factor 1.0: ×1.0 and the clamp leave an
        # in-range ssim as it is, and wsim recomputes to the bits it
        # holds (every cell's wsim was last written by this very
        # expression).
        r0, r1 = int(ps.min()), int(ps.max()) + 1
        c0, c1 = int(pt.min()), int(pt.max()) + 1
        grid = _np.ones((r1 - r0, c1 - c0))
        grid[ps - r0, pt - c0] = factors
        factor_block = _np.repeat(
            _np.repeat(grid, rows.sizes[r0:r1], axis=0),
            cols.sizes[c0:c1], axis=1,
        )
        row_lo = rows.lo + int(rows.starts[r0])
        col_lo = cols.lo + int(cols.starts[c0])
        box = (
            slice(row_lo, row_lo + factor_block.shape[0]),
            slice(col_lo, col_lo + factor_block.shape[1]),
        )
        ssim = self._Snp[box]
        ssim *= factor_block
        _np.clip(ssim, 0.0, 1.0, out=ssim)
        wsim = self._Wnp[box]
        _np.multiply(ssim, self._wl, out=wsim)
        _np.multiply(self._Lnp[box], self._om, out=factor_block)
        wsim += factor_block
        return int(_np.dot(rows.sizes[ps], cols.sizes[pt]))

    def store_bytes(self) -> int:
        """Bytes held by the similarity plane representation (the
        three flat matrices; the O(n) index dicts are not counted)."""
        return 3 * 8 * self._n_s * self._n_t

    def describe(self) -> Dict[str, object]:
        """Engine/backend facts for ``--stats`` dumps."""
        return {
            "store": "flat",
            "backend": self.backend,
            "matrix_shape": (self._n_s, self._n_t),
            "leaf_cells": self._n_s * self._n_t,
            "store_bytes": self.store_bytes(),
        }
