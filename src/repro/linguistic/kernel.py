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

**The matrix path.** Each vocabulary also carries token-id tables
(:meth:`SchemaVocabulary.token_tables`), and a match is a handful of
whole-matrix operations over the vocabulary axes — nothing is built
per name pair:

1. one token-similarity matrix, source tokens × target tokens, resolved
   through the memo's token tier
   (:meth:`~repro.linguistic.name_similarity.NameSimilarityMemo.
   token_matrix`);
2. ``ns(T1, T2)`` of every class-keyword pair and, per token type,
   ``ns(T1i, T2i)`` of every source name × target name — token-id
   gathers from that matrix, grouped by token count, in two one-sided
   passes (each target item's best match for every source token,
   summed over each source item's tokens; then the mirror image);
3. class compatibility as a mask: similarity ≥ ``thns``, both or
   neither a data-type class, both classes carrying profiles;
4. the scale map in two grouped maxima: each target profile's max over
   its classes, then each source profile's max over its classes;
5. ``min(1, ns × scale)`` with ``ns`` gathered by profile.

**Bit-identity.** Every value equals the reference path's scalar
expressions:

* each ``ns(T1, T2)`` sums its per-token maxima left to right with
  elementwise adds and divides by ``|T1| + |T2|``, as the scalar loop
  does (a one-token pair gives ``(x + x) / 2 == x``, the scalar
  shortcut's value);
* ``ns(m1, m2)`` accumulates ``weight · ns · count`` and ``weight ·
  count`` in the config's weight-slot order; where the scalar slot
  loop skips a slot the matrix adds an exact ``0.0``, which leaves the
  non-negative sums unchanged;
* maxima are exact and order-free, so the grouped scale map equals the
  reference loop's running max over compatible category pairs;
* ``ns`` is computed for the full name cross product, which is exact:
  it is finite, and a cell under a zero scale gets ``ns × 0.0 == 0.0``,
  the reference table's absent pair.

The engine parity and fuzz suites assert exact equality.

The arrays follow the optional-numpy pattern of
:mod:`repro.structure.dense`: numpy when importable, never a hard
dependency. The stdlib backend runs the same steps on flat
``array('d')`` with Python loops, computing ``ns`` only for name pairs
under a nonzero scale cell.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional, Tuple,
)

from repro.linguistic.matcher import LsimTable
from repro.linguistic.tokens import TokenType

try:  # optional acceleration, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via dense_backend="stdlib"
    _np = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.linguistic.categorization import Categorizer, Category
    from repro.linguistic.matcher import LinguisticPreparation
    from repro.linguistic.name_similarity import NameSimilarityMemo
    from repro.linguistic.normalizer import NormalizedName


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
        "class_profiles",
        "profile_names",
        "profile_members",
        "profile_of",
        "n_elements",
        "_tables",
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
        #: Per class: its non-ignored keyword tokens (the token set
        #: compatibility compares).
        self.class_keywords: List[Tuple] = []
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
        self._tables: Optional[_TokenTables] = None
        self._build(prep)

    def _build(self, prep: "LinguisticPreparation") -> None:
        class_index: Dict[Tuple, int] = {}
        # element id -> the class ids of its categories, in category
        # order; an element can sit in two categories of one class
        # (the reference scale loop just re-maxes), so profiles key on
        # the distinct ids.
        element_classes: Dict[str, List[int]] = {}
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
                self.class_keywords.append(
                    tuple(t for t in category.keywords if not t.ignored)
                )
            for member in category.members:
                class_ids = element_classes.get(member.element_id)
                if class_ids is None:
                    element_classes[member.element_id] = [class_id]
                else:
                    class_ids.append(class_id)

        normalized = prep.normalized
        name_index = self.name_index
        profile_index: Dict[Tuple[int, FrozenSet[int]], int] = {}
        self.class_profiles = [[] for _ in self.classes]
        for element_id, class_ids in element_classes.items():
            name = normalized[element_id]
            vocab_id = name_index.get(name.raw)
            if vocab_id is None:
                vocab_id = name_index[name.raw] = len(self.names)
                self.names.append(name)
            # A set key: profiles are equal when their class sets are,
            # and each class lists its profiles in creation order.
            profile_key = (vocab_id, frozenset(class_ids))
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

    def token_tables(self) -> "_TokenTables":
        """The token-id tables the matrix path reads (built once).

        Derived from the tables above, so nothing new is persisted.
        Pure, so built without a lock: a racing first match wastes a
        rebuild, never publishes a wrong table.
        """
        tables = self._tables
        if tables is None:
            tables = self._tables = _TokenTables(self)
        return tables

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


class _IdLists:
    """Per-item id lists over one axis, grouped by length.

    ``lists[i]`` is item ``i``'s ids (empty when it has none). Under
    numpy, ``counts`` holds the lengths as floats and ``groups`` one
    ``(length, items, ids)`` triple per distinct length — the item ids
    and their ``(n, length)`` id matrix, the shape one gather consumes.
    """

    __slots__ = ("lists", "empty", "counts", "groups")

    def __init__(self, lists: List[List[int]]) -> None:
        self.lists = lists
        self.empty = not any(lists)
        self.counts = None
        self.groups: list = []
        if _np is None:
            return
        self.counts = _np.fromiter(
            map(len, lists), dtype=_np.float64, count=len(lists)
        )
        by_length: Dict[int, List[int]] = {}
        for item, ids in enumerate(lists):
            if ids:
                items = by_length.get(len(ids))
                if items is None:
                    by_length[len(ids)] = [item]
                else:
                    items.append(item)
        self.groups = [
            (
                length,
                _np.asarray(items, dtype=_np.intp),
                _np.fromiter(
                    chain.from_iterable(lists[i] for i in items),
                    dtype=_np.intp, count=len(items) * length,
                ).reshape(len(items), length),
            )
            for length, items in by_length.items()
        ]


class _TokenTables:
    """A vocabulary's tables for the matrix path.

    Token ids index :attr:`texts`, the vocabulary's distinct
    non-ignored token texts (name tokens, then class keywords) — one
    axis of a match's token-similarity matrix. :attr:`names` holds,
    per token type, each name's token ids in the order the scalar
    ``ns`` visits them; :attr:`classes` each class's keyword ids;
    :attr:`profile_classes` each profile's class ids.
    """

    __slots__ = (
        "texts",
        "names",
        "classes",
        "profile_classes",
        "profile_names",
        "profiles_are_names",
        "member_counts",
        "class_is_dtype",
        "class_has_profiles",
    )

    def __init__(self, vocab: "SchemaVocabulary") -> None:
        index: Dict[str, int] = {}

        def token_id(text: str) -> int:
            tid = index.get(text)
            if tid is None:
                tid = index[text] = len(index)
            return tid

        per_type: Dict[TokenType, List[List[int]]] = {
            token_type: [[] for _ in vocab.names] for token_type in TokenType
        }
        # Each distinct token object resolves its type's lists and its
        # id once — the normalizer shares one Token per distinct text,
        # so that is once per vocabulary word, not per occurrence. Keyed
        # by identity, which stays unique while vocab.names holds every
        # token.
        resolved: Dict[int, Tuple[List[List[int]], int]] = {}
        for name_id, name in enumerate(vocab.names):
            for token in name.tokens:
                if token.ignored:
                    continue
                hit = resolved.get(id(token))
                if hit is None:
                    hit = resolved[id(token)] = (
                        per_type[token.token_type], token_id(token.text)
                    )
                hit[0][name_id].append(hit[1])
        self.names = {
            token_type: _IdLists(lists)
            for token_type, lists in per_type.items()
        }
        self.classes = _IdLists(
            [
                [token_id(token.text) for token in keywords]
                for keywords in vocab.class_keywords
            ]
        )
        self.texts = list(index)
        profile_classes: List[List[int]] = [
            [] for _ in range(vocab.n_profiles)
        ]
        for class_id, profiles in enumerate(vocab.class_profiles):
            for profile_id in profiles:
                profile_classes[profile_id].append(class_id)
        self.profile_classes = _IdLists(profile_classes)
        #: Profile p carries name p, for every profile (no name has two
        #: class sets) — profile-indexed and name-indexed axes coincide.
        self.profiles_are_names = vocab.profile_names == list(
            range(vocab.n_profiles)
        )
        # numpy forms of the vocabulary's per-profile / per-class facts
        # (None without numpy; the flat path reads the vocabulary).
        self.profile_names = self.member_counts = None
        self.class_is_dtype = self.class_has_profiles = None
        if _np is not None:
            self.profile_names = _np.asarray(
                vocab.profile_names, dtype=_np.intp
            )
            self.member_counts = _np.asarray(
                [len(m) for m in vocab.profile_members], dtype=_np.int64
            )
            self.class_is_dtype = _np.asarray(
                vocab.class_is_dtype, dtype=bool
            )
            self.class_has_profiles = _np.asarray(
                [bool(p) for p in vocab.class_profiles], dtype=bool
            )


class FactoredLsimTable(LsimTable):
    """An :class:`LsimTable` stored as a profile-level value matrix
    plus per-pair overrides.

    ``values`` is row-major ``n_source_profiles × n_target_profiles``;
    cell (p, q) holds the lsim shared by every element pair drawn from
    the two profiles' member lists (0.0 where incompatible or the name
    similarity is zero — exactly the pairs the reference table omits).

    :attr:`overrides` holds the element pairs whose lsim is not their
    profile cell's: initial-mapping hints (``set``) and description
    matches. Reads consult it before the matrix. The matrix is never
    written after construction, so copies share it and copy only the
    overrides, and the dense engine gathers it by profile and then
    scatters the overrides.
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
        #: Counter dump for ``--stats`` (vocabulary sizes, kernel
        #: dedup rates); shared by copies.
        self.kernel_stats: Dict[str, object] = kernel_stats or {}

    # -- factored accessors (consumed by the dense engine's gather) ----

    @property
    def overrides(self) -> Dict[Tuple[str, str], float]:
        """``(source id, target id) -> lsim`` for the pairs that do not
        read their profile cell (the inherited sparse dict)."""
        return self._table

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
        if self._table:
            value = self._table.get((source_id, target_id))
            if value is not None:
                return value
        return self._profile_value(source_id, target_id)

    def get(self, source, target) -> float:
        return self.get_by_id(source.element_id, target.element_id)

    def _profile_value(self, source_id: str, target_id: str) -> float:
        p = self._source_vocab.profile_of.get(source_id)
        if p is None:
            return 0.0
        q = self._target_vocab.profile_of.get(target_id)
        if q is None:
            return 0.0
        return self._values[p * self._target_vocab.n_profiles + q]

    def items(self) -> Iterator[Tuple[Tuple[str, str], float]]:
        """The reference table's entries: every member pair of a
        nonzero profile cell that no override replaces, then the
        overrides."""
        overrides = self._table
        values = self._values
        n_t = self._target_vocab.n_profiles
        t_members = self._target_vocab.profile_members
        for p, s_ids in enumerate(self._source_vocab.profile_members):
            base = p * n_t
            for q, t_ids in enumerate(t_members):
                value = values[base + q]
                if value > 0.0:
                    for id1 in s_ids:
                        for id2 in t_ids:
                            if (id1, id2) not in overrides:
                                yield (id1, id2), value
        yield from overrides.items()

    def __len__(self) -> int:
        # Member pairs of the nonzero profile cells, counted without
        # enumerating them, then the overrides that add a pair.
        added = sum(
            1 for pair in self._table if self._profile_value(*pair) <= 0.0
        )
        s_counts = [len(m) for m in self._source_vocab.profile_members]
        t_counts = [len(m) for m in self._target_vocab.profile_members]
        if not s_counts or not t_counts:
            return added
        if _np is not None:
            positive = self.numpy_values() > 0.0
            return added + int(
                _np.asarray(s_counts, dtype=_np.int64)
                @ positive
                @ _np.asarray(t_counts, dtype=_np.int64)
            )
        values = self._values
        n_t = len(t_counts)
        total = added
        for p, count in enumerate(s_counts):
            row = values[p * n_t:(p + 1) * n_t]
            total += count * sum(
                c for value, c in zip(row, t_counts) if value > 0.0
            )
        return total

    def copy(self) -> LsimTable:
        # Copies share the immutable vocabulary/value arrays and own
        # their overrides, so a hint on a copy never reaches the
        # session's cached original.
        duplicate = FactoredLsimTable(
            self._source_vocab,
            self._target_vocab,
            self._values,
            kernel_stats=self.kernel_stats,
        )
        duplicate._table = dict(self._table)
        return duplicate


def compute_factored_lsim(
    categorizer: "Categorizer",
    memo: "NameSimilarityMemo",
    source_vocab: SchemaVocabulary,
    target_vocab: SchemaVocabulary,
    use_numpy: bool,
) -> FactoredLsimTable:
    """Build the pair's lsim table over the two vocabularies.

    One token-similarity matrix through the memo, then class
    compatibility, the profile scale map and ``min(1, ns × scale)``
    as matrix operations (see the module docstring); the stdlib
    backend runs the same steps as flat-array loops.
    """
    config = categorizer.config
    s_tables = source_vocab.token_tables()
    t_tables = target_vocab.token_tables()
    sims = memo.token_matrix(s_tables.texts, t_tables.texts)
    p_s, p_t = source_vocab.n_profiles, target_vocab.n_profiles
    build = _lsim_np if use_numpy and p_s and p_t else _lsim_flat
    values, compatible, profile_pairs, element_pairs, distinct_pairs = (
        build(
            sims, _ns_slots(config, s_tables, t_tables), config.thns,
            source_vocab, target_vocab, s_tables, t_tables,
        )
    )
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
        "kernel_compatible_class_pairs": compatible,
        "kernel_profile_pairs": profile_pairs,
        "kernel_element_pairs": element_pairs,
        "kernel_distinct_name_pairs": distinct_pairs,
        # Fraction of the reference path's per-element-pair ns lookups
        # the kernel answered from its distinct-name result.
        "kernel_hit_rate": (
            1.0 - distinct_pairs / element_pairs if element_pairs else 0.0
        ),
    }
    return FactoredLsimTable(
        source_vocab, target_vocab, values, kernel_stats=stats
    )


def _ns_slots(config, s_tables: _TokenTables, t_tables: _TokenTables):
    """``(source lists, target lists, weight)`` per ``ns`` weight slot,
    in the config's order. The scalar loop skips a zero-weight slot,
    and one that no name on either side has tokens of, for every pair,
    so both are dropped."""
    return [
        (s_tables.names[token_type], t_tables.names[token_type], weight)
        for token_type, weight in config.token_type_weights.items()
        if weight != 0.0
        and not (
            s_tables.names[token_type].empty
            and t_tables.names[token_type].empty
        )
    ]


# ----------------------------------------------------------------------
# numpy backend
# ----------------------------------------------------------------------


def _lsim_np(sims, slots, thns, source_vocab, target_vocab, s_tables,
             t_tables):
    sims_np = _np.frombuffer(sims, dtype=_np.float64).reshape(
        len(s_tables.texts), len(t_tables.texts)
    )
    s_classes, t_classes = s_tables.classes, t_tables.classes
    cat_sim = _set_similarity_matrix(
        sims_np, s_classes, t_classes,
        _np.add.outer(s_classes.counts, t_classes.counts),
    )
    # Categorizer.compatible_similarity per class pair, plus the
    # reference scan's implicit rule that a class without profiles
    # (no members) scatters nothing.
    compatible = cat_sim >= thns
    compatible &= (
        s_tables.class_is_dtype[:, None] == t_tables.class_is_dtype[None, :]
    )
    compatible &= s_tables.class_has_profiles[:, None]
    compatible &= t_tables.class_has_profiles[None, :]
    compatible_pairs = int(_np.count_nonzero(compatible))
    class_scale = _np.where(compatible, cat_sim, 0.0)
    # The scale map: per target profile the max over its classes (a
    # source-class × target-profile matrix), then per source profile
    # the max over its classes.
    by_target = _fold_groups(
        class_scale, t_tables.profile_classes, _np.maximum, 1,
        target_vocab.n_profiles,
    )
    scale = _fold_groups(
        by_target, s_tables.profile_classes, _np.maximum, 0,
        source_vocab.n_profiles,
    )
    del cat_sim, compatible, class_scale, by_target

    values = array("d", bytes(8 * scale.size))
    positive = scale > 0.0
    profile_pairs = int(_np.count_nonzero(positive))
    if not profile_pairs:
        return values, compatible_pairs, 0, 0, 0
    element_pairs = int(
        s_tables.member_counts @ positive @ t_tables.member_counts
    )
    names_s, names_t = s_tables.profile_names, t_tables.profile_names
    if s_tables.profiles_are_names and t_tables.profiles_are_names:
        distinct_pairs = profile_pairs
    else:
        # Distinct name pairs under a nonzero scale cell: the true
        # cells of a names × names mask (the pairs the reference path
        # computes ns for, once each).
        rows, cols = _np.nonzero(positive)
        name_mask = _np.zeros(
            (source_vocab.n_names, target_vocab.n_names), dtype=bool
        )
        name_mask[names_s[rows], names_t[cols]] = True
        distinct_pairs = int(_np.count_nonzero(name_mask))
        del rows, cols, name_mask
    del positive

    ns = _ns_matrix(
        sims_np, slots, source_vocab.n_names, target_vocab.n_names
    )
    if not s_tables.profiles_are_names:
        ns = ns.take(names_s, axis=0)
    if not t_tables.profiles_are_names:
        ns = ns.take(names_t, axis=1)
    values_np = _np.frombuffer(values, dtype=_np.float64).reshape(
        scale.shape
    )
    _np.multiply(ns, scale, out=values_np)
    _np.minimum(values_np, 1.0, out=values_np)
    return values, compatible_pairs, profile_pairs, element_pairs, (
        distinct_pairs
    )


def _ns_matrix(sims, slots, n_source, n_target):
    """``ns(m1, m2)`` for every source name × target name.

    Per weight slot: the per-type ``ns`` by grouped gathers, then
    ``weight · ns · count`` and ``weight · count`` accumulated in slot
    order, exactly as the scalar loop does (exact zeros where it
    skips).
    """
    numerator = _np.zeros((n_source, n_target))
    denominator = _np.zeros((n_source, n_target))
    count = _np.empty((n_source, n_target))
    for lists1, lists2, weight in slots:
        _np.add.outer(lists1.counts, lists2.counts, out=count)
        per_type = _set_similarity_matrix(sims, lists1, lists2, count)
        per_type *= weight
        per_type *= count
        numerator += per_type
        count *= weight
        denominator += count
    _np.divide(
        numerator, denominator, out=numerator, where=denominator > 0.0
    )
    return numerator


def _set_similarity_matrix(sims, lists1, lists2, count):
    """``ns(T1, T2)`` for every item pair of two id-list tables (0.0
    where either list is empty); ``count`` holds ``|T1| + |T2|``.

    Two one-sided passes instead of one per item pair. Forward: per
    target item, the max over its token columns of the token matrix
    (a source-token × target-item matrix); each source item then sums
    those rows over its tokens, left to right. Backward mirrors it and
    is added group by group. Then ``(forward + backward) / (|T1| +
    |T2|)``, the scalar code's expression, elementwise.
    """
    n1, n2 = count.shape
    out = _fold_groups(
        _fold_groups(sims, lists2, _np.maximum, 1, n2),
        lists1, _np.add, 0, n1,
    )
    best_per_source = _fold_groups(sims, lists1, _np.maximum, 0, n1)
    for width, items, ids in lists2.groups:
        out[:, items] += _fold(best_per_source, ids, width, _np.add, 1)
    _np.divide(out, count, out=out, where=count > 0.0)
    return out


def _fold_groups(matrix, lists: _IdLists, ufunc, axis: int, n_items: int):
    """Per item of ``lists``, :func:`_fold` over the rows (``axis=0``)
    or columns (``axis=1``) of ``matrix`` its ids select; the result
    has ``n_items`` rows (or columns), zero for items without ids."""
    if axis == 0:
        out = _np.zeros((n_items, matrix.shape[1]))
    else:
        out = _np.zeros((matrix.shape[0], n_items))
    for width, items, ids in lists.groups:
        if axis == 0:
            out[items] = _fold(matrix, ids, width, ufunc, axis)
        else:
            out[:, items] = _fold(matrix, ids, width, ufunc, axis)
    return out


def _fold(matrix, ids, width: int, ufunc, axis: int):
    """``ufunc`` folded left to right over the ``width`` id positions
    of ``ids`` (one group's ``(n, width)`` id matrix), each position
    taking rows or columns of ``matrix`` — one gather per position."""
    acc = matrix.take(ids[:, 0], axis=axis)
    for position in range(1, width):
        ufunc(acc, matrix.take(ids[:, position], axis=axis), out=acc)
    return acc


# ----------------------------------------------------------------------
# stdlib backend
# ----------------------------------------------------------------------


def _lsim_flat(sims, slots, thns, source_vocab, target_vocab, s_tables,
               t_tables):
    width = len(t_tables.texts)
    p_s, p_t = source_vocab.n_profiles, target_vocab.n_profiles
    scale = array("d", bytes(8 * p_s * p_t))
    # Compatibility per class pair (dtype classes pair only with dtype
    # classes), max-scattered onto the profiles carrying the classes.
    t_keywords = t_tables.classes.lists
    t_class_ids_by_kind: Tuple[List[int], List[int]] = ([], [])
    for j, is_dtype in enumerate(target_vocab.class_is_dtype):
        if target_vocab.class_profiles[j]:
            t_class_ids_by_kind[is_dtype].append(j)
    compatible = 0
    for i, keywords in enumerate(s_tables.classes.lists):
        rows = source_vocab.class_profiles[i]
        if not rows:
            continue
        bases = [tid * width for tid in keywords]
        for j in t_class_ids_by_kind[source_vocab.class_is_dtype[i]]:
            cat_sim = _set_similarity(sims, bases, t_keywords[j])
            if cat_sim < thns:
                continue
            compatible += 1
            cols = target_vocab.class_profiles[j]
            for r in rows:
                base = r * p_t
                for c in cols:
                    if cat_sim > scale[base + c]:
                        scale[base + c] = cat_sim

    # ns once per distinct name pair under a nonzero scale cell, kept
    # in a flat names × names array (``done`` marks computed cells).
    # Each slot is the scalar ns loop's: ``weight · count`` into the
    # denominator, ``weight · ns(T1i, T2i) · count`` into the numerator
    # when both sides have tokens.
    weights = [weight for _, _, weight in slots]
    s_names = list(zip(*(
        [[tid * width for tid in ids] for ids in lists1.lists]
        for lists1, _, _ in slots
    )))
    t_names = list(zip(*(lists2.lists for _, lists2, _ in slots)))
    v_t = target_vocab.n_names
    ns_cells = array("d", bytes(8 * source_vocab.n_names * v_t))
    done = bytearray(source_vocab.n_names * v_t)
    names_s, names_t = source_vocab.profile_names, target_vocab.profile_names
    members_s = [len(m) for m in source_vocab.profile_members]
    members_t = [len(m) for m in target_vocab.profile_members]
    values = array("d", bytes(8 * p_s * p_t))
    profile_pairs = element_pairs = distinct_pairs = 0
    for r in range(p_s):
        v_s = names_s[r]
        s_slots = s_names[v_s]
        name_base = v_s * v_t
        base = r * p_t
        for c in range(p_t):
            cat_scale = scale[base + c]
            if cat_scale == 0.0:
                continue
            profile_pairs += 1
            element_pairs += members_s[r] * members_t[c]
            key = name_base + names_t[c]
            if done[key]:
                ns = ns_cells[key]
            else:
                numerator = denominator = 0.0
                for weight, bases, cols in zip(
                    weights, s_slots, t_names[names_t[c]]
                ):
                    if bases and cols:
                        count = len(bases) + len(cols)
                        denominator += weight * count
                        numerator += (
                            weight * _set_similarity(sims, bases, cols)
                            * count
                        )
                    elif bases or cols:
                        denominator += weight * (len(bases) + len(cols))
                ns = ns_cells[key] = (
                    0.0 if denominator == 0.0 else numerator / denominator
                )
                done[key] = 1
                distinct_pairs += 1
            lsim = ns * cat_scale
            values[base + c] = 1.0 if lsim > 1.0 else lsim
    return values, compatible, profile_pairs, element_pairs, distinct_pairs


def _set_similarity(sims, bases, cols) -> float:
    """Scalar ``ns(T1, T2)``: rows at pre-scaled ``bases`` of the flat
    token matrix, columns ``cols``; 0.0 when either side is empty."""
    if not bases or not cols:
        return 0.0
    if len(bases) == 1 and len(cols) == 1:
        return sims[bases[0] + cols[0]]  # (x + x) / 2 == x exactly
    forward = 0.0
    col_max = None
    for base in bases:
        row = [sims[base + col] for col in cols]
        forward += max(row)
        col_max = row if col_max is None else list(map(max, col_max, row))
    backward = 0.0
    for value in col_max:
        backward += value
    return (forward + backward) / (len(bases) + len(cols))
