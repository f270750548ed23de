"""Blocked (tiled) similarity store for very large schemas.

:class:`~repro.structure.dense.DenseSimilarityStore` materializes three
full ``n_s×n_t`` matrices (ssim, lsim, wsim) at construction — 24 bytes
per leaf pair before the first comparison runs. ROADMAP flags that as
the blocker for the 10⁴-leaf regime: at 10,000 leaves a side the flat
planes alone are 2.4 GB.

:class:`BlockedSimilarityStore` stores the same similarity plane as a
grid of fixed-size **tiles** (``config.block_size`` a side, default
:data:`DEFAULT_BLOCK_SIZE`) with three per-tile states:

* **virtual** — nothing allocated. Every cell reads as its pure
  *initial* value: ssim is the clamped type-compatibility (+ key
  affinity) of the leaf classes, lsim is gathered from the linguistic
  table (the kernel's profile matrix when factored, the sparse dict
  otherwise), and wsim is recomputed as ``wl·ssim + (1−wl)·lsim`` — the
  exact expression the flat store used to *fill* its wsim plane, so the
  bits are identical.
* **overlay** — a small dict of written cells over the virtual base.
  Scattered single-cell updates (the leaf-pair cinc/cdec adjustments of
  sparse strong-link workloads) land here without allocating the tile.
* **solid** — paired ``block_size²`` ``array('d')`` tiles of ssim and
  (cached) wsim, allocated when a bulk scale actually changes the
  tile's cells or an overlay outgrows :attr:`_overlay_limit`. lsim is
  never stored (it stays gathered from the linguistic tables), so even
  a fully solid plane costs two thirds of the flat store — and reads
  over solid tiles are plain array loads, keeping dense context-heavy
  workloads at flat-store speed.

Writes that do not change a cell's value (``clamp(s·factor) == s``,
e.g. scaling zero-compatibility cells) leave tiles virtual — that is
what keeps dissimilar-pair workloads, where almost nothing crosses the
context thresholds, at near-zero allocation.

Every value is produced by exactly the scalar expressions the flat
store uses (same operand order, same clamping; the numpy tile paths
apply the same IEEE-754 double operations element-wise), so the two
stores are **bit-identical** — asserted cell-by-cell by
``tests/test_blocked_store.py`` and end-to-end by the fuzz-parity
sweep in ``tests/test_fuzz_parity.py``.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.linguistic.kernel import FactoredLsimTable
from repro.structure.dense import (
    DenseSimilarityStore,
    _np,
    iter_lsim_cells,
    leaf_base_ssim,
)
from repro.tree.schema_tree import SchemaTreeNode

#: Tile edge length used when ``config.block_size`` is 0 ("auto").
#: 64×64 tiles (32 KiB of ssim) keep the tile directory negligible up
#: to 10⁴ leaves a side (≈25k tiles) while staying fine-grained enough
#: that sparse workloads skip most of the plane.
DEFAULT_BLOCK_SIZE = 64


def resolve_block_size(requested: int) -> int:
    """Map ``config.block_size`` to a concrete tile edge (0 = auto)."""
    return requested if requested > 0 else DEFAULT_BLOCK_SIZE


class BlockedSimilarityStore(DenseSimilarityStore):
    """Tile-backed drop-in for :class:`DenseSimilarityStore`.

    All inherited bookkeeping (per-node leaf-index caches, frontier
    caches, dirty-set crossing stamps) is reused unchanged; only the
    matrix storage and the accessors that touch it are replaced.
    """

    #: The flat store's 2048-cell vectorization floor reflects the cost
    #: of numpy dispatch vs direct ``array('d')`` indexing. Here the
    #: scalar alternative pays a tile lookup per cell while the numpy
    #: path is a handful of slice copies / gathers per tile, so
    #: vectorization wins much earlier (measured on the scalability
    #: bench: region ops at >= 128 cells).
    _VECTOR_MIN_CELLS = 128

    def _build_matrices(self, lsim_table) -> None:
        n_s, n_t = self._n_s, self._n_t
        block = resolve_block_size(self._config.block_size)
        self._B = block
        self._tiles_s = -(-n_s // block) if n_s else 0
        self._tiles_t = -(-n_t // block) if n_t else 0
        n_tiles = self._tiles_s * self._tiles_t
        #: Solid ssim tiles (``block²`` doubles, row-major, edge tiles
        #: padded with never-read zeros) and their numpy views.
        self._tiles: List[Optional[array]] = [None] * n_tiles
        self._tiles_np: List[Optional[object]] = [None] * n_tiles
        #: Companion wsim tiles, allocated with their ssim tile and
        #: maintained by every write (the same ``wl·s + (1−wl)·l``
        #: refresh the flat store applies), so reads and strong-link
        #: scans over solid tiles are single array loads. Virtual and
        #: overlay cells recompute wsim on the fly instead.
        self._wtiles: List[Optional[array]] = [None] * n_tiles
        self._wtiles_np: List[Optional[object]] = [None] * n_tiles
        #: Per-tile sparse overlays: local offset -> written ssim.
        self._overlays: List[Optional[Dict[int, float]]] = [None] * n_tiles
        #: Tiles that served at least one read or write.
        self._touched = bytearray(n_tiles)
        #: Overlay size beyond which a tile solidifies (dict entries
        #: cost ~4x an array cell; an eighth of the tile is the
        #: break-even neighborhood).
        self._overlay_limit = max(8, (block * block) // 8)

        # Per-axis lookup tables so the hot cell path is pure list
        # indexing (no division): tile row/col, local offsets.
        self._tr = [i // block for i in range(n_s)]
        self._tc = [j // block for j in range(n_t)]
        self._offr = [(i % block) * block for i in range(n_s)]
        self._offc = [j % block for j in range(n_t)]

        self._build_base_classes()
        self._build_lsim_plan(lsim_table)
        self._np_ready = False
        #: Bound-locals fast path for single-cell wsim (the main
        #: TreeMatch loop reads every leaf pair through it; closing
        #: over the stable containers skips ~a dozen attribute loads
        #: per call).
        self._cell_wsim = self._make_cell_wsim()

    # ------------------------------------------------------------------
    # Initial-value tables (what virtual cells read as)
    # ------------------------------------------------------------------

    def _build_base_classes(self) -> None:
        """Per-leaf (data type, key-ness) classes + their base ssim.

        The base table holds exactly the value the flat store writes
        into every never-updated ssim cell — both layouts call the
        shared :func:`repro.structure.dense.leaf_base_ssim`, so the
        expression cannot drift.
        """
        config = self._config
        compat = self._compat

        s_class_index: Dict[Tuple, int] = {}
        s_props: List[Tuple] = []
        row_class: List[int] = []
        for leaf in self._s_leaves:
            key = (leaf.data_type, leaf.element.is_key)
            class_id = s_class_index.get(key)
            if class_id is None:
                class_id = s_class_index[key] = len(s_props)
                s_props.append(key)
            row_class.append(class_id)
        t_class_index: Dict[Tuple, int] = {}
        t_props: List[Tuple] = []
        col_class: List[int] = []
        for leaf in self._t_leaves:
            key = (leaf.data_type, leaf.element.is_key)
            class_id = t_class_index.get(key)
            if class_id is None:
                class_id = t_class_index[key] = len(t_props)
                t_props.append(key)
            col_class.append(class_id)

        n_cc = len(t_props)
        base = array("d", bytes(8 * max(1, len(s_props) * n_cc)))
        pos = 0
        for dt1, k1 in s_props:
            for dt2, k2 in t_props:
                base[pos] = leaf_base_ssim(config, compat, dt1, k1, dt2, k2)
                pos += 1
        self._base = base
        self._n_col_classes = n_cc
        self._col_class = col_class
        #: Premultiplied row offsets into the base table.
        self._row_base = [c * n_cc for c in row_class]
        self._row_class = row_class

    def _build_lsim_plan(self, lsim_table) -> None:
        """Choose how lsim cells are gathered.

        Factored tables (the kernel's default output) are read straight
        off the profile matrix the kernel already allocated — the
        blocked store adds only the two per-leaf profile index arrays.
        Anything else is scattered once into a flat-position dict (and
        per-tile entry lists for the vectorized region reads), exactly
        the entries the flat store scattered into its lsim plane.
        """
        self._factored = (
            isinstance(lsim_table, FactoredLsimTable)
            and lsim_table.factored_live
        )
        if self._factored:
            p_t = lsim_table.n_target_profiles
            s_profile_of = lsim_table.profile_of_source
            t_profile_of = lsim_table.profile_of_target
            self._p_s = lsim_table.n_source_profiles
            self._p_t = p_t
            self._profile_values = lsim_table.profile_values
            # -1 marks unprofiled elements (lsim 0 against everything —
            # the pairs the dict form omits); row entries premultiplied.
            self._row_prof_base = [
                p * p_t if p is not None else -1
                for p in (
                    s_profile_of.get(leaf.element.element_id)
                    for leaf in self._s_leaves
                )
            ]
            self._col_prof = [
                p if p is not None else -1
                for p in (
                    t_profile_of.get(leaf.element.element_id)
                    for leaf in self._t_leaves
                )
            ]
            self._lsim_cells: Dict[int, float] = {}
            self._tile_lsim: List[Optional[List[Tuple[int, float]]]] = []
            return
        n_t = self._n_t
        cells: Dict[int, float] = {}
        tile_entries: List[Optional[List[Tuple[int, float]]]] = (
            [None] * (self._tiles_s * self._tiles_t)
        )
        tr, tc = self._tr, self._tc
        offr, offc = self._offr, self._offc
        tiles_t = self._tiles_t
        for i, j, value in iter_lsim_cells(
            lsim_table, self._s_leaves, self._t_leaves
        ):
            cells[i * n_t + j] = value
            tid = tr[i] * tiles_t + tc[j]
            entries = tile_entries[tid]
            if entries is None:
                entries = tile_entries[tid] = []
            entries.append((offr[i] + offc[j], value))
        self._lsim_cells = cells
        self._tile_lsim = tile_entries

    # ------------------------------------------------------------------
    # numpy side tables (built lazily on first vectorized region op)
    # ------------------------------------------------------------------

    def _ensure_np(self) -> None:
        if self._np_ready:
            return
        self._base_np = _np.frombuffer(
            self._base, dtype=_np.float64
        ).reshape(-1, max(1, self._n_col_classes))
        self._row_class_np = _np.asarray(self._row_class, dtype=_np.intp)
        self._col_class_np = _np.asarray(self._col_class, dtype=_np.intp)
        if self._factored:
            p_s, p_t = self._p_s, self._p_t
            padded = _np.zeros((p_s + 1, p_t + 1))
            if p_s and p_t:
                padded[:p_s, :p_t] = _np.frombuffer(
                    self._profile_values, dtype=_np.float64
                ).reshape(p_s, p_t)
            # Sentinel rows/cols (the -1 entries) index the padded zero
            # border, mirroring the flat store's sentinel gather.
            self._padded_np = padded
            self._row_prof_np = _np.asarray(
                [
                    rb // p_t if rb >= 0 else p_s
                    for rb in self._row_prof_base
                ]
                if p_t
                else [0] * self._n_s,
                dtype=_np.intp,
            )
            self._col_prof_np = _np.asarray(
                [c if c >= 0 else p_t for c in self._col_prof],
                dtype=_np.intp,
            )
        self._np_ready = True

    # ------------------------------------------------------------------
    # Tile lifecycle
    # ------------------------------------------------------------------

    def _solidify(self, tid: int) -> array:
        """Materialize a tile pair: base ssim + overlay, then the
        companion wsim tile via the flat store's fill expression."""
        block = self._B
        tile = array("d", bytes(8 * block * block))
        wtile = array("d", bytes(8 * block * block))
        trow, tcol = divmod(tid, self._tiles_t)
        i0 = trow * block
        i1 = min(i0 + block, self._n_s)
        j0 = tcol * block
        j1 = min(j0 + block, self._n_t)
        use_np = (
            self._use_numpy
            and (i1 - i0) * (j1 - j0) >= self._VECTOR_MIN_CELLS
        )
        if use_np:
            self._ensure_np()
            view = _np.frombuffer(tile, dtype=_np.float64).reshape(
                block, block
            )
            view[: i1 - i0, : j1 - j0] = self._base_np[
                self._row_class_np[i0:i1, None],
                self._col_class_np[None, j0:j1],
            ]
        else:
            base = self._base
            row_base = self._row_base
            col_class = self._col_class
            for i in range(i0, i1):
                rb = row_base[i]
                off = (i - i0) * block - j0
                for j in range(j0, j1):
                    tile[off + j] = base[rb + col_class[j]]
        overlay = self._overlays[tid]
        if overlay:
            for off, value in overlay.items():
                tile[off] = value
        if use_np:
            wview = _np.frombuffer(wtile, dtype=_np.float64).reshape(
                block, block
            )
            wview[: i1 - i0, : j1 - j0] = (
                self._wl * view[: i1 - i0, : j1 - j0]
                + self._om * self._region_lsim_np(i0, i1, j0, j1)
            )
        else:
            wl, om = self._wl, self._om
            cell_lsim = self._cell_lsim
            for i in range(i0, i1):
                off = (i - i0) * block - j0
                for j in range(j0, j1):
                    wtile[off + j] = (
                        wl * tile[off + j] + om * cell_lsim(i, j)
                    )
        self._overlays[tid] = None
        self._tiles[tid] = tile
        self._wtiles[tid] = wtile
        self._touched[tid] = 1
        return tile

    def _tile_np(self, tid: int):
        view = self._tiles_np[tid]
        if view is None:
            view = self._tiles_np[tid] = _np.frombuffer(
                self._tiles[tid], dtype=_np.float64
            ).reshape(self._B, self._B)
        return view

    def _wtile_np(self, tid: int):
        view = self._wtiles_np[tid]
        if view is None:
            view = self._wtiles_np[tid] = _np.frombuffer(
                self._wtiles[tid], dtype=_np.float64
            ).reshape(self._B, self._B)
        return view

    # ------------------------------------------------------------------
    # Scalar cell reads
    # ------------------------------------------------------------------

    def _make_cell_wsim(self):
        """Closure computing one leaf cell's wsim = wl·s + (1−wl)·l.

        All referenced containers are identity-stable for the store's
        lifetime (solidification replaces list *elements*), so the
        closure always sees current state.
        """
        tr, tc = self._tr, self._tc
        offr, offc = self._offr, self._offc
        wtiles, overlays = self._wtiles, self._overlays
        touched = self._touched
        tiles_t = self._tiles_t
        base, row_base, col_class = (
            self._base, self._row_base, self._col_class,
        )
        wl, om = self._wl, self._om
        if self._factored:
            row_prof_base = self._row_prof_base
            col_prof = self._col_prof
            pvalues = self._profile_values

            def cell_wsim(i: int, j: int) -> float:
                tid = tr[i] * tiles_t + tc[j]
                wtile = wtiles[tid]
                if wtile is not None:
                    return wtile[offr[i] + offc[j]]
                touched[tid] = 1
                overlay = overlays[tid]
                sv = (
                    overlay.get(offr[i] + offc[j])
                    if overlay is not None
                    else None
                )
                if sv is None:
                    sv = base[row_base[i] + col_class[j]]
                rb = row_prof_base[i]
                if rb < 0:
                    lv = 0.0
                else:
                    c = col_prof[j]
                    lv = 0.0 if c < 0 else pvalues[rb + c]
                return wl * sv + om * lv

        else:
            lcells = self._lsim_cells
            n_t = self._n_t

            def cell_wsim(i: int, j: int) -> float:
                tid = tr[i] * tiles_t + tc[j]
                wtile = wtiles[tid]
                if wtile is not None:
                    return wtile[offr[i] + offc[j]]
                touched[tid] = 1
                overlay = overlays[tid]
                sv = (
                    overlay.get(offr[i] + offc[j])
                    if overlay is not None
                    else None
                )
                if sv is None:
                    sv = base[row_base[i] + col_class[j]]
                return wl * sv + om * lcells.get(i * n_t + j, 0.0)

        return cell_wsim

    def _cell_ssim(self, i: int, j: int) -> float:
        tid = self._tr[i] * self._tiles_t + self._tc[j]
        if not self._touched[tid]:
            self._touched[tid] = 1
        tile = self._tiles[tid]
        off = self._offr[i] + self._offc[j]
        if tile is not None:
            return tile[off]
        overlay = self._overlays[tid]
        if overlay is not None:
            value = overlay.get(off)
            if value is not None:
                return value
        return self._base[self._row_base[i] + self._col_class[j]]

    def _cell_lsim(self, i: int, j: int) -> float:
        if self._factored:
            rb = self._row_prof_base[i]
            if rb < 0:
                return 0.0
            c = self._col_prof[j]
            if c < 0:
                return 0.0
            return self._profile_values[rb + c]
        return self._lsim_cells.get(i * self._n_t + j, 0.0)

    # ------------------------------------------------------------------
    # SimilarityStore accessors (leaf fast path, inherited fallback)
    # ------------------------------------------------------------------

    def ssim(self, s: SchemaTreeNode, t: SchemaTreeNode) -> float:
        i = self._s_index.get(s.node_id)
        j = self._t_index.get(t.node_id) if i is not None else None
        if i is None or j is None:
            return super(DenseSimilarityStore, self).ssim(s, t)
        return self._cell_ssim(i, j)

    def lsim(self, s: SchemaTreeNode, t: SchemaTreeNode) -> float:
        i = self._s_index.get(s.node_id)
        j = self._t_index.get(t.node_id) if i is not None else None
        if i is None or j is None:
            return super(DenseSimilarityStore, self).lsim(s, t)
        return self._cell_lsim(i, j)

    def wsim(self, s: SchemaTreeNode, t: SchemaTreeNode) -> float:
        i = self._s_index.get(s.node_id)
        j = self._t_index.get(t.node_id) if i is not None else None
        if i is None or j is None:
            return super(DenseSimilarityStore, self).wsim(s, t)
        # The flat store *stores* wl·ssim + (1−wl)·lsim and reads it
        # back; recomputing the identical expression from identical
        # operands yields the identical double.
        return self._cell_wsim(i, j)

    def set_ssim(
        self, s: SchemaTreeNode, t: SchemaTreeNode, value: float
    ) -> None:
        i = self._s_index.get(s.node_id)
        j = self._t_index.get(t.node_id) if i is not None else None
        if i is None or j is None:
            super(DenseSimilarityStore, self).set_ssim(s, t, value)
            return
        self._write_cell(i, j, min(1.0, max(0.0, value)))

    def _write_cell(self, i: int, j: int, clamped: float) -> None:
        """Write one ssim cell, maintaining wsim + crossing stamps."""
        tid = self._tr[i] * self._tiles_t + self._tc[j]
        self._touched[tid] = 1
        off = self._offr[i] + self._offc[j]
        tile = self._tiles[tid]
        lsim = self._cell_lsim(i, j)
        new_wsim = self._wl * clamped + self._om * lsim
        if tile is not None:
            old = tile[off]
            tile[off] = clamped
            self._wtiles[tid][off] = new_wsim
        else:
            overlay = self._overlays[tid]
            old = overlay.get(off) if overlay is not None else None
            if old is None:
                old = self._base[self._row_base[i] + self._col_class[j]]
            if clamped == old:
                # Value (hence wsim, hence strong-link status) is
                # unchanged bit-for-bit: the flat store would rewrite
                # the same bytes; the blocked store stays lazy.
                return
            if overlay is None:
                overlay = self._overlays[tid] = {}
            overlay[off] = clamped
            if len(overlay) > self._overlay_limit:
                self._solidify(tid)
        old_wsim = self._wl * old + self._om * lsim
        threshold = self._thaccept
        if (old_wsim >= threshold) != (new_wsim >= threshold):
            self.mutation_seq += 1
            self._row_seq[i] = self._col_seq[j] = self.mutation_seq

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------

    def scale_block(
        self, s: SchemaTreeNode, t: SchemaTreeNode, factor: float
    ) -> Optional[int]:
        s_entry = self._node_indices(s, source_side=True)
        if s_entry is None:
            return None
        t_entry = self._node_indices(t, source_side=False)
        if t_entry is None:
            return None
        cells = len(s_entry.ids) * len(t_entry.ids)
        if factor == 1.0:
            # clamp(v·1.0) == v for every in-range double: the flat
            # store rewrites identical bytes and never stamps.
            return cells
        if cells == 1:
            # Leaf-pair context adjustments dominate the op count on
            # large schemas; skip the block scaffolding for them.
            i, j = s_entry.ids[0], t_entry.ids[0]
            old = self._cell_ssim(i, j)
            value = old * factor
            if value > 1.0:
                value = 1.0
            elif value < 0.0:
                value = 0.0
            if value != old:
                self._write_cell(i, j, value)
            return 1

        if (
            self._use_numpy
            and cells >= self._VECTOR_MIN_CELLS
            and s_entry.lo is not None
            and t_entry.lo is not None
        ):
            self._scale_region_np(
                s_entry, t_entry, s_entry.lo, s_entry.hi,
                t_entry.lo, t_entry.hi, factor,
            )
            return cells

        s_ids = (
            range(s_entry.lo, s_entry.hi)
            if s_entry.lo is not None
            else s_entry.ids
        )
        t_ids = (
            range(t_entry.lo, t_entry.hi)
            if t_entry.lo is not None
            else t_entry.ids
        )
        tr, tc = self._tr, self._tc
        offr, offc = self._offr, self._offc
        tiles, overlays = self._tiles, self._overlays
        wtiles = self._wtiles
        touched = self._touched
        tiles_t = self._tiles_t
        base, row_base, col_class = self._base, self._row_base, self._col_class
        wl, om = self._wl, self._om
        threshold = self._thaccept
        overlay_limit = self._overlay_limit
        rows_crossed = [False] * len(s_ids)
        cols_crossed = [False] * len(t_ids)
        any_crossed = False
        for xi, x in enumerate(s_ids):
            trow = tr[x] * tiles_t
            off_row = offr[x]
            rb = row_base[x]
            for yi, y in enumerate(t_ids):
                tid = trow + tc[y]
                touched[tid] = 1
                off = off_row + offc[y]
                tile = tiles[tid]
                if tile is not None:
                    old = tile[off]
                else:
                    overlay = overlays[tid]
                    old = overlay.get(off) if overlay is not None else None
                    if old is None:
                        old = base[rb + col_class[y]]
                value = old * factor
                if value > 1.0:
                    value = 1.0
                elif value < 0.0:
                    value = 0.0
                if value == old:
                    # Unchanged bits: the flat store rewrites the same
                    # bytes and refreshes wsim to the same double.
                    continue
                lsim = self._cell_lsim(x, y)
                new_wsim = wl * value + om * lsim
                if tile is not None:
                    tile[off] = value
                    wtiles[tid][off] = new_wsim
                else:
                    overlay = overlays[tid]
                    if overlay is None:
                        overlay = overlays[tid] = {}
                    overlay[off] = value
                    if len(overlay) > overlay_limit:
                        self._solidify(tid)
                old_wsim = wl * old + om * lsim
                if (old_wsim >= threshold) != (new_wsim >= threshold):
                    any_crossed = True
                    rows_crossed[xi] = True
                    cols_crossed[yi] = True
        if any_crossed:
            self._mark_crossed(s_entry, t_entry, rows_crossed, cols_crossed)
        return cells

    def _scale_region_np(
        self, s_entry, t_entry, i0, i1, j0, j1, factor
    ) -> None:
        """Vectorized contiguous-region scale (same ops as the flat
        store's numpy path, assembled from tiles)."""
        self._ensure_np()
        s_old = self._region_ssim_np(i0, i1, j0, j1)
        lsim = self._region_lsim_np(i0, i1, j0, j1)
        threshold = self._thaccept
        old_strong = (self._wl * s_old + self._om * lsim) >= threshold
        s_new = s_old * factor
        _np.clip(s_new, 0.0, 1.0, out=s_new)
        w_new = self._wl * s_new + self._om * lsim
        changed = s_new != s_old
        if changed.any():
            self._writeback_region_np(
                i0, i1, j0, j1, s_new, w_new, changed
            )
        crossed = old_strong != (w_new >= threshold)
        if crossed.any():
            self._mark_crossed(
                s_entry,
                t_entry,
                crossed.any(axis=1).tolist(),
                crossed.any(axis=0).tolist(),
            )

    def _region_tiles(self, i0, i1, j0, j1):
        """(tid, global rect, local rect) for tiles overlapping a
        contiguous region."""
        block = self._B
        tiles_t = self._tiles_t
        for trow in range(i0 // block, (i1 - 1) // block + 1):
            a0 = max(i0, trow * block)
            a1 = min(i1, trow * block + block)
            for tcol in range(j0 // block, (j1 - 1) // block + 1):
                b0 = max(j0, tcol * block)
                b1 = min(j1, tcol * block + block)
                yield (
                    trow * tiles_t + tcol,
                    a0, a1, b0, b1,
                    a0 - trow * block, b0 - tcol * block,
                )

    def _region_ssim_np(self, i0, i1, j0, j1):
        """Assemble the region's current ssim into a scratch matrix."""
        scratch = _np.empty((i1 - i0, j1 - j0))
        base_np = self._base_np
        row_cls = self._row_class_np
        col_cls = self._col_class_np
        touched = self._touched
        for tid, a0, a1, b0, b1, la, lb in self._region_tiles(
            i0, i1, j0, j1
        ):
            touched[tid] = 1
            dest = scratch[a0 - i0:a1 - i0, b0 - j0:b1 - j0]
            if self._tiles[tid] is not None:
                view = self._tile_np(tid)
                dest[...] = view[la:la + (a1 - a0), lb:lb + (b1 - b0)]
                continue
            dest[...] = base_np[
                row_cls[a0:a1, None], col_cls[None, b0:b1]
            ]
            overlay = self._overlays[tid]
            if overlay:
                block = self._B
                base_row = tid // self._tiles_t * block
                base_col = tid % self._tiles_t * block
                for off, value in overlay.items():
                    gi = base_row + off // block
                    gj = base_col + off % block
                    if i0 <= gi < i1 and j0 <= gj < j1:
                        scratch[gi - i0, gj - j0] = value
        return scratch

    def _region_wsim_np(self, i0, i1, j0, j1):
        """The region's current wsim: solid tiles by slice copy, lazy
        tiles by the fill expression (identical bits either way)."""
        scratch = _np.empty((i1 - i0, j1 - j0))
        base_np = self._base_np
        row_cls = self._row_class_np
        col_cls = self._col_class_np
        touched = self._touched
        wl, om = self._wl, self._om
        for tid, a0, a1, b0, b1, la, lb in self._region_tiles(
            i0, i1, j0, j1
        ):
            touched[tid] = 1
            dest = scratch[a0 - i0:a1 - i0, b0 - j0:b1 - j0]
            if self._wtiles[tid] is not None:
                view = self._wtile_np(tid)
                dest[...] = view[la:la + (a1 - a0), lb:lb + (b1 - b0)]
                continue
            s_rect = base_np[row_cls[a0:a1, None], col_cls[None, b0:b1]]
            overlay = self._overlays[tid]
            if overlay:
                s_rect = s_rect.copy()
                block = self._B
                base_row = tid // self._tiles_t * block
                base_col = tid % self._tiles_t * block
                for off, value in overlay.items():
                    gi = base_row + off // block
                    gj = base_col + off % block
                    if a0 <= gi < a1 and b0 <= gj < b1:
                        s_rect[gi - a0, gj - b0] = value
            dest[...] = wl * s_rect + om * self._region_lsim_np(
                a0, a1, b0, b1
            )
        return scratch

    def _region_lsim_np(self, i0, i1, j0, j1):
        """The region's lsim values (factored gather or dict scatter)."""
        if self._factored:
            return self._padded_np[
                self._row_prof_np[i0:i1, None],
                self._col_prof_np[None, j0:j1],
            ]
        scratch = _np.zeros((i1 - i0, j1 - j0))
        block = self._B
        tiles_t = self._tiles_t
        for tid, a0, a1, b0, b1, _la, _lb in self._region_tiles(
            i0, i1, j0, j1
        ):
            entries = self._tile_lsim[tid] if self._tile_lsim else None
            if not entries:
                continue
            base_row = tid // tiles_t * block
            base_col = tid % tiles_t * block
            for off, value in entries:
                gi = base_row + off // block
                gj = base_col + off % block
                if i0 <= gi < i1 and j0 <= gj < j1:
                    scratch[gi - i0, gj - j0] = value
        return scratch

    def _writeback_region_np(
        self, i0, i1, j0, j1, values, wsims, changed
    ):
        """Store scaled ssim + refreshed wsim back, solidifying only
        tiles whose cells actually changed."""
        for tid, a0, a1, b0, b1, la, lb in self._region_tiles(
            i0, i1, j0, j1
        ):
            rows = slice(a0 - i0, a1 - i0)
            cols = slice(b0 - j0, b1 - j0)
            if self._tiles[tid] is None and not changed[rows, cols].any():
                continue
            if self._tiles[tid] is None:
                self._solidify(tid)
            local_rows = slice(la, la + (a1 - a0))
            local_cols = slice(lb, lb + (b1 - b0))
            self._tile_np(tid)[local_rows, local_cols] = values[rows, cols]
            self._wtile_np(tid)[local_rows, local_cols] = wsims[rows, cols]

    # ------------------------------------------------------------------
    # Structural fraction (Section 6 strong-link scans)
    # ------------------------------------------------------------------

    def structural_fraction(
        self,
        s: SchemaTreeNode,
        t: SchemaTreeNode,
        s_frontier: Dict[SchemaTreeNode, bool],
        t_frontier: Dict[SchemaTreeNode, bool],
        thaccept: float,
        discount: bool,
    ) -> Optional[float]:
        s_entry = self._frontier_indices(s, s_frontier, source_side=True)
        if s_entry is None:
            return None
        t_entry = self._frontier_indices(t, t_frontier, source_side=False)
        if t_entry is None:
            return None
        s_ids, t_ids = s_entry.ids, t_entry.ids
        if not s_ids or not t_ids:
            return 0.0

        if (
            self._use_numpy
            and len(s_ids) * len(t_ids) >= self._VECTOR_MIN_CELLS
            and s_entry.lo is not None
            and t_entry.lo is not None
        ):
            self._ensure_np()
            strong = self._region_wsim_np(
                s_entry.lo, s_entry.hi, t_entry.lo, t_entry.hi
            ) >= thaccept
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
            denominator = s_total + t_total
            if denominator == 0:
                return 0.0
            return (s_linked + t_linked) / denominator

        tr, tc = self._tr, self._tc
        tiles_t = self._tiles_t
        s_required = s_entry.required
        t_required = t_entry.required
        cell_wsim = self._cell_wsim

        # Mark the whole scanned region touched up front (the early
        # break would otherwise undercount tiles the scan logically
        # covers).
        lo_i, hi_i = s_ids[0], s_ids[-1]
        lo_j, hi_j = t_ids[0], t_ids[-1]
        touched = self._touched
        for trow in range(tr[lo_i], tr[hi_i] + 1):
            row_off = trow * tiles_t
            for tcol in range(tc[lo_j], tc[hi_j] + 1):
                touched[row_off + tcol] = 1

        s_linked = 0
        s_total = 0
        for k, x in enumerate(s_ids):
            has_link = False
            for y in t_ids:
                if cell_wsim(x, y) >= thaccept:
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
                if cell_wsim(x, y) >= thaccept:
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
    # Occupancy / reporting
    # ------------------------------------------------------------------

    @property
    def block_size(self) -> int:
        return self._B

    def tiles_total(self) -> int:
        return self._tiles_s * self._tiles_t

    def tiles_allocated(self) -> int:
        return sum(1 for tile in self._tiles if tile is not None)

    def tiles_touched(self) -> int:
        return sum(self._touched)

    def overlay_cells(self) -> int:
        return sum(
            len(overlay) for overlay in self._overlays if overlay
        )

    def store_bytes(self) -> int:
        """Bytes held by the similarity plane representation.

        Solid tiles at 16 bytes/cell (ssim + cached wsim), overlay
        entries at ~32 bytes (key + value + dict slot), plus the O(n)
        side tables (leaf class/profile indices) and the class-pair
        base table. The kernel's profile value matrix is shared with
        the linguistic phase, not owned here, and is excluded (the
        flat store does not count it either).
        """
        block2 = self._B * self._B
        solid = sum(16 * block2 for tile in self._tiles if tile is not None)
        overlay = 32 * self.overlay_cells()
        side = 8 * (4 * self._n_s + 4 * self._n_t) + 8 * len(self._base)
        if not self._factored:
            side += 32 * len(self._lsim_cells)
            side += sum(
                16 * len(entries)
                for entries in self._tile_lsim
                if entries
            )
        return solid + overlay + side

    def subtree_alignment(self) -> Dict[str, int]:
        """Tile↔subtree alignment of the node windows consulted so far.

        Of the contiguous ``[pre_lo, pre_hi)`` subtree windows this
        match addressed (the lazily filled per-node index caches), how
        many start AND end on tile-grid boundaries — those subtrees'
        block operations touch no partial tile, the property the
        out-of-core direction needs for subtree-granular eviction.
        Rows and columns are counted against their own grid edges.
        """
        windows = 0
        aligned = 0
        block = self._B
        for cache, edge in (
            (self._leaf_idx_s, self._n_s),
            (self._leaf_idx_t, self._n_t),
        ):
            for entry in cache.values():
                if entry is None or entry.lo is None:
                    continue
                windows += 1
                if entry.lo % block == 0 and (
                    entry.hi % block == 0 or entry.hi == edge
                ):
                    aligned += 1
        return {
            "subtree_windows": windows,
            "subtree_windows_tile_aligned": aligned,
        }

    def describe(self) -> Dict[str, object]:
        facts = {
            "store": "blocked",
            "backend": self.backend,
            "matrix_shape": (self._n_s, self._n_t),
            "leaf_cells": self._n_s * self._n_t,
            "block_size": self._B,
            "tiles_total": self.tiles_total(),
            "tiles_allocated": self.tiles_allocated(),
            "tiles_touched": self.tiles_touched(),
            "overlay_cells": self.overlay_cells(),
            "store_bytes": self.store_bytes(),
        }
        facts.update(self.subtree_alignment())
        return facts
