"""Distinct-name linguistic similarity kernel.

The reference linguistic phase (Section 5) walks the element-pair
cross product of every compatible category pair: its cost grows with
the number of *elements*, even though ``lsim`` only depends on element
*names* and category *keywords*. Real schemas repeat both heavily
(wide fact tables reuse "id"/"name"/"date" columns, star schemas stamp
out the same dimension attributes), so the per-pair work is mostly
duplicates.

This module factors a prepared schema into its linguistic vocabulary:

* **distinct normalized names** — ``ns(m1, m2)`` reads nothing but the
  two names, so one similarity per distinct name pair covers every
  element pair that carries those names;
* **category classes** — two categories with the same keyword token
  sequence (and the same dtype-ness) are interchangeable in every
  compatibility decision, so compatibility is decided once per class
  pair instead of once per category pair;
* **profiles** — elements sharing (distinct name, category-class set)
  are fully exchangeable for lsim purposes; the scale map ("max
  category similarity over compatible pairs") and the final
  ``min(1, ns × scale)`` are computed once per *profile* pair and
  broadcast to every member element pair.

:class:`FactoredLsimTable` keeps the profile-level result and behaves
like a plain :class:`~repro.linguistic.matcher.LsimTable`: reads gather
through the factored indices, the dict form is materialized lazily on
first ``items()``, and the first ``set()`` (initial-mapping hints)
permanently switches the table to dict mode. Every value is produced by
exactly the scalar expressions the reference path uses (same ``ns``
through the memo, same float ``max`` over category similarities, same
``min(1.0, ns * scale)`` product), so the factored table is
**bit-identical** to the reference table — the engine parity tests
assert exact equality.

The scale-map build follows the optional-numpy pattern of
:mod:`repro.structure.dense`: flat ``array('d')`` matrices, upgraded
with zero-copy ``np.frombuffer`` views when numpy is importable, never
a hard dependency.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.linguistic.matcher import LsimTable

try:  # optional acceleration, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via dense_backend="stdlib"
    _np = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.linguistic.categorization import Categorizer, Category
    from repro.linguistic.matcher import LinguisticPreparation
    from repro.linguistic.name_similarity import NameSimilarityMemo
    from repro.linguistic.normalizer import NormalizedName


#: Compatible class pairs whose profile block has at least this many
#: cells use the numpy max-scatter; smaller blocks take the flat loop
#: (same trade-off as DenseSimilarityStore._VECTOR_MIN_CELLS).
_VECTOR_MIN_CELLS = 1024


def numpy_enabled(dense_backend: str) -> bool:
    """Whether the kernel should use its numpy paths for this config.

    Mirrors :func:`repro.structure.dense.resolve_backend` without
    importing it (structure already imports linguistic): ``"stdlib"``
    forces the flat-array loops, anything else uses numpy when
    importable. A forced-but-missing ``"numpy"`` backend fails loudly
    in the dense store; the kernel just falls back.
    """
    return _np is not None and dense_backend != "stdlib"


class SchemaVocabulary:
    """One schema's distinct-name / category-class / profile tables.

    A pure function of a :class:`~repro.linguistic.matcher.
    LinguisticPreparation` (itself pure in schema, thesaurus, config),
    so a :class:`~repro.pipeline.prepared.PreparedSchema` caches it as
    another per-schema artifact tier: every match the schema
    participates in reuses the same factoring.
    """

    __slots__ = (
        "names",
        "name_index",
        "classes",
        "class_is_dtype",
        "class_keywords",
        "class_texts",
        "class_profiles",
        "profile_names",
        "profile_members",
        "profile_of",
        "n_elements",
    )

    def __init__(self, prep: "LinguisticPreparation") -> None:
        #: Distinct normalized names, first-seen order.
        self.names: List["NormalizedName"] = []
        self.name_index: Dict[str, int] = {}
        #: One representative Category per distinct (dtype-ness,
        #: keyword-token sequence) class — compatibility and similarity
        #: read nothing else, so one representative decides for all.
        self.classes: List["Category"] = []
        #: Per class: is it a data-type category (the compatibility
        #: rule pairs dtype only with dtype)?
        self.class_is_dtype: List[bool] = []
        #: Per class: non-ignored keyword tokens / their text tuple —
        #: precomputed so the compatibility scan probes the memo
        #: without per-pair filtering or tuple building.
        self.class_keywords: List[Tuple] = []
        self.class_texts: List[Tuple[str, ...]] = []
        #: class id -> ascending profile ids containing the class.
        self.class_profiles: List[List[int]] = []
        #: profile id -> distinct-name (vocab) id.
        self.profile_names: List[int] = []
        #: profile id -> member element ids.
        self.profile_members: List[List[str]] = []
        #: element id -> profile id (absent: element in no category,
        #: linguistically incomparable, lsim 0 against everything).
        self.profile_of: Dict[str, int] = {}
        self.n_elements = len(prep.elements_by_id)
        self._build(prep)

    def _build(self, prep: "LinguisticPreparation") -> None:
        class_index: Dict[Tuple, int] = {}
        # element id -> set of class ids (categories can list an
        # element twice; the reference scale loop just re-maxes, so a
        # set keeps the same semantics).
        element_classes: Dict[str, set] = {}
        for category in prep.categories.values():
            key = (
                category.source == "dtype",
                tuple((t.text, t.ignored) for t in category.keywords),
            )
            class_id = class_index.get(key)
            if class_id is None:
                class_id = class_index[key] = len(self.classes)
                self.classes.append(category)
                self.class_is_dtype.append(key[0])
                filtered = tuple(
                    t for t in category.keywords if not t.ignored
                )
                self.class_keywords.append(filtered)
                self.class_texts.append(tuple(t.text for t in filtered))
            for member in category.members:
                element_classes.setdefault(
                    member.element_id, set()
                ).add(class_id)

        normalized = prep.normalized
        profile_index: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        self.class_profiles = [[] for _ in self.classes]
        for element_id, class_ids in element_classes.items():
            raw = normalized[element_id].raw
            vocab_id = self.name_index.get(raw)
            if vocab_id is None:
                vocab_id = self.name_index[raw] = len(self.names)
                self.names.append(normalized[element_id])
            profile_key = (vocab_id, tuple(sorted(class_ids)))
            profile_id = profile_index.get(profile_key)
            if profile_id is None:
                profile_id = profile_index[profile_key] = len(
                    self.profile_names
                )
                self.profile_names.append(vocab_id)
                self.profile_members.append([])
                for class_id in profile_key[1]:
                    self.class_profiles[class_id].append(profile_id)
            self.profile_members[profile_id].append(element_id)
            self.profile_of[element_id] = profile_id

    @property
    def n_names(self) -> int:
        return len(self.names)

    @property
    def n_profiles(self) -> int:
        return len(self.profile_names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SchemaVocabulary {self.n_elements} elements -> "
            f"{self.n_names} names, {len(self.classes)} classes, "
            f"{self.n_profiles} profiles>"
        )


class FactoredLsimTable(LsimTable):
    """An :class:`LsimTable` stored as a profile-level value matrix.

    ``values`` is row-major ``n_source_profiles × n_target_profiles``;
    cell (p, q) holds the lsim shared by every element pair drawn from
    the two profiles' member lists (0.0 where incompatible or the name
    similarity is zero — exactly the pairs the reference table omits).

    Three lifecycle states:

    * **factored** — reads gather through ``profile_of``; nothing
      materialized. The dense engine consumes this form directly.
    * **materialized** — ``items()`` filled the dict form (same
      entries the reference path stores); reads still gather.
      ``len()`` counts those entries without materializing.
    * **mutated** — the first ``set()`` (initial-mapping hints)
      materializes and switches reads to the dict permanently.
    """

    def __init__(
        self,
        source_vocab: SchemaVocabulary,
        target_vocab: SchemaVocabulary,
        values: array,
        kernel_stats: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__()
        self._source_vocab = source_vocab
        self._target_vocab = target_vocab
        self._values = values
        self._np_values = None
        self._materialized = False
        self._factored_live = True
        #: Counter dump for ``--stats`` (vocabulary sizes, kernel
        #: dedup rates); shared by copies.
        self.kernel_stats: Dict[str, object] = kernel_stats or {}

    # -- factored accessors (consumed by the dense engine's gather) ----

    @property
    def factored_live(self) -> bool:
        """True while the factored form is authoritative (no ``set``)."""
        return self._factored_live

    @property
    def profile_of_source(self) -> Dict[str, int]:
        return self._source_vocab.profile_of

    @property
    def profile_of_target(self) -> Dict[str, int]:
        return self._target_vocab.profile_of

    @property
    def n_source_profiles(self) -> int:
        return self._source_vocab.n_profiles

    @property
    def n_target_profiles(self) -> int:
        return self._target_vocab.n_profiles

    @property
    def profile_values(self) -> array:
        return self._values

    def numpy_values(self):
        """Zero-copy numpy view over the profile value matrix."""
        if self._np_values is None:
            self._np_values = _np.frombuffer(
                self._values, dtype=_np.float64
            ).reshape(self.n_source_profiles, self.n_target_profiles)
        return self._np_values

    # -- LsimTable API -------------------------------------------------

    def get_by_id(self, source_id: str, target_id: str) -> float:
        if not self._factored_live:
            return self._table.get((source_id, target_id), 0.0)
        p = self._source_vocab.profile_of.get(source_id)
        if p is None:
            return 0.0
        q = self._target_vocab.profile_of.get(target_id)
        if q is None:
            return 0.0
        return self._values[p * self._target_vocab.n_profiles + q]

    def get(self, source, target) -> float:
        return self.get_by_id(source.element_id, target.element_id)

    def set(self, source, target, value: float) -> None:
        # Hints invalidate the factored form: broadcast-by-profile can
        # no longer represent a single overridden pair.
        self._ensure_materialized()
        self._factored_live = False
        super().set(source, target, value)

    def items(self) -> Iterable[Tuple[Tuple[str, str], float]]:
        self._ensure_materialized()
        return self._table.items()

    def __len__(self) -> int:
        if not self._factored_live:
            return len(self._table)
        # Count what _ensure_materialized would write — every member
        # pair of a profile cell > 0.0 — without building the dict.
        s_counts = [len(m) for m in self._source_vocab.profile_members]
        t_counts = [len(m) for m in self._target_vocab.profile_members]
        if not s_counts or not t_counts:
            return 0
        if _np is not None:
            positive = self.numpy_values() > 0.0
            return int(
                _np.asarray(s_counts, dtype=_np.int64)
                @ positive
                @ _np.asarray(t_counts, dtype=_np.int64)
            )
        values = self._values
        n_t = len(t_counts)
        total = 0
        for p, count in enumerate(s_counts):
            row = values[p * n_t:(p + 1) * n_t]
            total += count * sum(
                c for value, c in zip(row, t_counts) if value > 0.0
            )
        return total

    def copy(self) -> LsimTable:
        if not self._factored_live:
            return super().copy()
        # Factored copies share the immutable vocabulary/value arrays;
        # a later set() on the copy materializes its own dict, so the
        # session's cached original stays pristine.
        return FactoredLsimTable(
            self._source_vocab,
            self._target_vocab,
            self._values,
            kernel_stats=self.kernel_stats,
        )

    def _ensure_materialized(self) -> None:
        """Broadcast the profile matrix into the dict form (once).

        Entry set and values are exactly what the reference path
        stores: every member-pair of a nonzero profile cell, nothing
        else.
        """
        if self._materialized:
            return
        values = self._values
        n_t = self._target_vocab.n_profiles
        t_members = self._target_vocab.profile_members
        table = self._table
        for p, s_ids in enumerate(self._source_vocab.profile_members):
            base = p * n_t
            for q, t_ids in enumerate(t_members):
                value = values[base + q]
                if value > 0.0:
                    for id1 in s_ids:
                        for id2 in t_ids:
                            table[(id1, id2)] = value
        self._materialized = True


def compute_factored_lsim(
    categorizer: "Categorizer",
    memo: "NameSimilarityMemo",
    source_vocab: SchemaVocabulary,
    target_vocab: SchemaVocabulary,
    use_numpy: bool,
) -> FactoredLsimTable:
    """Build the pair's lsim table over the distinct-name cross product.

    Three steps, each over deduplicated axes:

    1. category-class compatibility (per class pair, via the shared
       :class:`Categorizer` logic and memo);
    2. the scale map as a profile×profile max matrix (numpy max-scatter
       per compatible class pair, flat-loop fallback);
    3. ``min(1, ns × scale)`` with ``ns`` computed once per distinct
       name pair and broadcast by index gather.
    """
    p_s, p_t = source_vocab.n_profiles, target_vocab.n_profiles
    size = p_s * p_t
    scale = array("d", bytes(8 * size))
    scale_np = (
        _np.frombuffer(scale, dtype=_np.float64).reshape(p_s, p_t)
        if use_numpy and size
        else None
    )

    # 1 + 2: compatibility per class pair, max-scattered onto the
    # profile blocks that carry the two classes. Mirrors
    # Categorizer.compatible_similarity — dtype classes pair only with
    # dtype classes (partitioned up front instead of re-tested per
    # pair), keyword similarity >= thns — through the memo's
    # prefiltered probe, so values match the reference scan exactly.
    thns = categorizer.config.thns
    token_set_sim = memo.token_set_similarity_prefiltered
    s_texts, t_texts = source_vocab.class_texts, target_vocab.class_texts
    s_keywords = source_vocab.class_keywords
    t_keywords = target_vocab.class_keywords
    t_class_ids_by_kind = ([], [])  # [non-dtype ids], [dtype ids]
    for j, is_dtype in enumerate(target_vocab.class_is_dtype):
        t_class_ids_by_kind[is_dtype].append(j)
    np_rows_cache: Dict[int, object] = {}
    np_cols_cache: Dict[int, object] = {}
    compatible_class_pairs = 0
    for i, is_dtype in enumerate(source_vocab.class_is_dtype):
        rows = source_vocab.class_profiles[i]
        if not rows:
            continue
        texts1 = s_texts[i]
        keywords1 = s_keywords[i]
        for j in t_class_ids_by_kind[is_dtype]:
            cols = target_vocab.class_profiles[j]
            if not cols:
                continue
            cat_sim = token_set_sim(
                (texts1, t_texts[j]), keywords1, t_keywords[j]
            )
            if cat_sim < thns:
                continue
            compatible_class_pairs += 1
            if (
                scale_np is not None
                and len(rows) * len(cols) >= _VECTOR_MIN_CELLS
            ):
                np_rows = np_rows_cache.get(i)
                if np_rows is None:
                    np_rows = np_rows_cache[i] = _np.asarray(
                        rows, dtype=_np.intp
                    )[:, None]
                np_cols = np_cols_cache.get(j)
                if np_cols is None:
                    np_cols = np_cols_cache[j] = _np.asarray(
                        cols, dtype=_np.intp
                    )
                block = scale_np[np_rows, np_cols]
                _np.maximum(block, cat_sim, out=block)
                scale_np[np_rows, np_cols] = block
            else:
                for r in rows:
                    base = r * p_t
                    for c in cols:
                        if cat_sim > scale[base + c]:
                            scale[base + c] = cat_sim

    # 3: one ns per distinct name pair, broadcast over the nonzero
    # scale cells. min(1.0, ns * scale) with the same operand order as
    # the reference loop keeps the values bit-identical.
    values = array("d", bytes(8 * size))
    names_s, names_t = source_vocab.names, target_vocab.names
    v_t = len(names_t)
    profile_pairs = 0
    element_pairs = 0
    distinct_pairs = 0
    batched_pairs = 0

    if scale_np is not None:
        rows_nz, cols_nz = _np.nonzero(scale_np)
        profile_pairs = int(rows_nz.size)
        if profile_pairs:
            vp_s = _np.asarray(source_vocab.profile_names, dtype=_np.intp)
            vp_t = _np.asarray(target_vocab.profile_names, dtype=_np.intp)
            members_s = _np.asarray(
                [len(m) for m in source_vocab.profile_members],
                dtype=_np.int64,
            )
            members_t = _np.asarray(
                [len(m) for m in target_vocab.profile_members],
                dtype=_np.int64,
            )
            element_pairs = int(
                (members_s[rows_nz] * members_t[cols_nz]).sum()
            )
            ns_matrix = _np.zeros((len(names_s), v_t))
            flat_ns = ns_matrix.reshape(-1)
            # Fused (v1, v2) keys deduplicated in C — the distinct
            # name pairs actually needing an ns computation.
            unique_keys = _np.unique(vp_s[rows_nz] * v_t + vp_t[cols_nz])
            distinct_pairs = int(unique_keys.size)
            key_list = unique_keys.tolist()
            if categorizer.config.linguistic_batch_ns:
                ns_values = memo.element_name_similarity_batch(
                    [
                        (names_s[key // v_t], names_t[key % v_t])
                        for key in key_list
                    ],
                    use_numpy=True,
                )
                batched_pairs = len(key_list)
                for key, ns in zip(key_list, ns_values):
                    flat_ns[key] = ns
            else:
                for key in key_list:
                    flat_ns[key] = memo.element_name_similarity(
                        names_s[key // v_t], names_t[key % v_t]
                    )
            values_np = _np.frombuffer(
                values, dtype=_np.float64
            ).reshape(p_s, p_t)
            _np.multiply(
                ns_matrix[vp_s[:, None], vp_t[None, :]],
                scale_np,
                out=values_np,
            )
            _np.minimum(values_np, 1.0, out=values_np)
    else:
        ns_cache: Dict[int, float] = {}
        profile_names_t = target_vocab.profile_names
        members_s = source_vocab.profile_members
        members_t = target_vocab.profile_members
        if categorizer.config.linguistic_batch_ns:
            # Pre-resolve the distinct name pairs the nonzero scale
            # cells will need with one batched memo call (flat-array
            # fallback inside the memo); the fill loop below then
            # always hits this cache. ns is pure per pair, so
            # resolution order cannot change any value.
            ordered: Dict[int, None] = {}
            for r in range(p_s):
                v_base = source_vocab.profile_names[r] * v_t
                base = r * p_t
                for c in range(p_t):
                    if scale[base + c] != 0.0:
                        ordered.setdefault(v_base + profile_names_t[c])
            key_list = list(ordered)
            ns_values = memo.element_name_similarity_batch(
                [
                    (names_s[key // v_t], names_t[key % v_t])
                    for key in key_list
                ],
                use_numpy=False,
            )
            ns_cache = dict(zip(key_list, ns_values))
            batched_pairs = len(key_list)
        for r in range(p_s):
            v1 = source_vocab.profile_names[r]
            v_base = v1 * v_t
            name1 = names_s[v1]
            base = r * p_t
            for c in range(p_t):
                cat_scale = scale[base + c]
                if cat_scale == 0.0:
                    continue
                profile_pairs += 1
                element_pairs += len(members_s[r]) * len(members_t[c])
                key = v_base + profile_names_t[c]
                ns = ns_cache.get(key)
                if ns is None:
                    ns = memo.element_name_similarity(
                        name1, names_t[profile_names_t[c]]
                    )
                    ns_cache[key] = ns
                lsim = ns * cat_scale
                values[base + c] = 1.0 if lsim > 1.0 else lsim
        distinct_pairs = len(ns_cache)

    stats: Dict[str, object] = {
        "vocab_source_elements": source_vocab.n_elements,
        "vocab_target_elements": target_vocab.n_elements,
        "vocab_source_names": source_vocab.n_names,
        "vocab_target_names": target_vocab.n_names,
        "vocab_source_profiles": p_s,
        "vocab_target_profiles": p_t,
        "kernel_category_classes": (
            len(source_vocab.classes) * len(target_vocab.classes)
        ),
        "kernel_compatible_class_pairs": compatible_class_pairs,
        "kernel_profile_pairs": profile_pairs,
        "kernel_element_pairs": element_pairs,
        "kernel_distinct_name_pairs": distinct_pairs,
        # Distinct name pairs resolved through the memo's batched ns
        # entry point (0 when linguistic_batch_ns is off or the
        # backend skipped the kernel's vector paths entirely).
        "kernel_ns_batched_pairs": batched_pairs,
        # Fraction of the reference path's per-element-pair ns lookups
        # the kernel answered from its distinct-name result.
        "kernel_hit_rate": (
            1.0 - distinct_pairs / element_pairs if element_pairs else 0.0
        ),
    }
    return FactoredLsimTable(
        source_vocab, target_vocab, values, kernel_stats=stats
    )
