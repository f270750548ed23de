"""Name-similarity functions (Sections 5.2 and 5.3).

Three layers, bottom-up:

* :func:`token_similarity` — ``sim(t1, t2)``: thesaurus lookup, falling
  back to common prefix/suffix substring matching.
* :func:`token_set_similarity` — ``ns(T1, T2)``: "the average of the
  best similarity of each token with a token in the other set".
* :func:`element_name_similarity` — ``ns(m1, m2)``: "a weighted mean of
  the per-token-type name similarity", weighting content and concept
  tokens more heavily.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.config import CupidConfig
from repro.linguistic.normalizer import NormalizedName
from repro.linguistic.thesaurus import Thesaurus
from repro.linguistic.tokens import Token, TokenType

try:  # optional acceleration, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via REPRO_FORCE_STDLIB
    _np = None


#: Below this many name pairs, :meth:`NameSimilarityMemo.
#: element_name_similarity_batch` routes through the scalar method —
#: batch setup (index building, bucketing) costs more than it saves.
_BATCH_MIN_PAIRS = 16


def _common_prefix_len(a: str, b: str) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def _common_suffix_len(a: str, b: str) -> int:
    n = min(len(a), len(b))
    for i in range(1, n + 1):
        if a[-i] != b[-i]:
            return i - 1
    return n


def substring_similarity(a: str, b: str, ceiling: float = 0.8) -> float:
    """Prefix/suffix overlap similarity in [0, ceiling].

    "In the absence of such entries, we match sub-strings of the words
    t1 and t2 to identify common prefixes or suffixes" (Section 5.2).
    The overlap fraction is measured against the longer word, so
    ``customername`` vs ``name`` scores on suffix overlap, and a short
    accidental overlap (``count`` vs ``country``: prefix "count")
    is scaled down by the longer word's length. Overlaps shorter than
    3 characters are treated as noise.
    """
    if not a or not b:
        return 0.0
    # An overlap can be at most min(len) and must start at the first
    # or end at the last character; both checks reject the typical
    # unrelated pair before any per-character scan.
    if len(a) < 3 or len(b) < 3:
        return 0.0
    if a[0] != b[0] and a[-1] != b[-1]:
        return 0.0
    overlap = max(_common_prefix_len(a, b), _common_suffix_len(a, b))
    if overlap < 3:
        return 0.0
    # Divide before scaling so a full overlap is exactly `ceiling`.
    return ceiling * (overlap / max(len(a), len(b)))


def token_similarity(
    t1: Token,
    t2: Token,
    thesaurus: Thesaurus,
    config: Optional[CupidConfig] = None,
) -> float:
    """``sim(t1, t2)``: identical → 1; thesaurus entry → its strength;
    otherwise substring similarity."""
    ceiling = config.substring_sim_ceiling if config else 0.8
    floor = config.min_token_sim if config else 0.0
    if t1.text == t2.text:
        return 1.0
    related = thesaurus.relatedness(t1.text, t2.text)
    if related is not None:
        return max(related, floor)
    return max(substring_similarity(t1.text, t2.text, ceiling), floor)


def token_set_similarity(
    tokens1: Sequence[Token],
    tokens2: Sequence[Token],
    thesaurus: Thesaurus,
    config: Optional[CupidConfig] = None,
    memo: Optional["NameSimilarityMemo"] = None,
) -> float:
    """``ns(T1, T2)`` — the paper's bidirectional best-match average:

    ``(Σ_{t1∈T1} max_{t2∈T2} sim(t1,t2) + Σ_{t2∈T2} max_{t1∈T1}
    sim(t1,t2)) / (|T1| + |T2|)``

    Ignored (common-word) tokens are excluded by callers; if either set
    is empty the similarity is 0 (nothing to compare). With ``memo``,
    per-token-pair similarities are read through its cache.
    """
    t1 = [t for t in tokens1 if not t.ignored]
    t2 = [t for t in tokens2 if not t.ignored]
    if not t1 or not t2:
        return 0.0
    if memo is not None:
        sim = memo.token_similarity
    else:
        def sim(a: Token, b: Token) -> float:
            return token_similarity(a, b, thesaurus, config)
    forward = sum(max(sim(a, b) for b in t2) for a in t1)
    backward = sum(max(sim(a, b) for a in t1) for b in t2)
    return (forward + backward) / (len(t1) + len(t2))


def element_name_similarity(
    name1: NormalizedName,
    name2: NormalizedName,
    thesaurus: Thesaurus,
    config: CupidConfig,
    memo: Optional["NameSimilarityMemo"] = None,
) -> float:
    """``ns(m1, m2)`` — weighted mean of per-token-type similarities.

    For each token type ``i`` present in either name, the per-type
    similarity ``ns(T1i, T2i)`` contributes with weight
    ``w_i · (|T1i| + |T2i|)``; the result is normalized by the total
    weight so it stays in [0, 1]:

    ``ns(m1,m2) = Σ_i w_i·ns(T1i,T2i)·(|T1i|+|T2i|) / Σ_i
    w_i·(|T1i|+|T2i|)``

    This matches the printed formula when all five types are populated
    and degrades gracefully when a type is absent from both names.
    Content and concept tokens carry higher ``w_i`` (Section 5.3).
    """
    numerator = 0.0
    denominator = 0.0
    for token_type, weight in config.token_type_weights.items():
        t1 = name1.tokens_of_type(token_type)
        t2 = name2.tokens_of_type(token_type)
        count = len(t1) + len(t2)
        if count == 0 or weight == 0.0:
            continue
        denominator += weight * count
        if t1 and t2:
            per_type = token_set_similarity(t1, t2, thesaurus, config, memo)
            numerator += weight * per_type * count
        # If only one side has tokens of this type, those tokens have no
        # counterpart: they contribute weight (penalty) but 0 similarity.
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


class NameSimilarityMemo:
    """Memoized token and element-name similarities (dense engine).

    Schemas repeat both whole names (Street, City, ...) and tokens
    across elements; the all-pairs linguistic phase of Section 5 pays
    for each duplicate again. This cache keys ``sim(t1, t2)`` on the
    token *texts* and ``ns(m1, m2)`` on the normalized names' raw
    strings, so each distinct comparison is computed exactly once per
    matcher. Both functions are pure given a fixed thesaurus and
    config, so memoization cannot change any value — only skip
    recomputation; the inlined loops below mirror the module functions
    operation for operation (same iteration order, same float
    expressions) to keep results bit-identical to the reference path.
    """

    __slots__ = (
        "thesaurus",
        "config",
        "_token",
        "_set",
        "_element",
        "_buckets",
        "_weight_entries",
        "token_hits",
        "token_misses",
        "set_hits",
        "set_misses",
        "element_hits",
        "element_misses",
    )

    def __init__(self, thesaurus: Thesaurus, config: CupidConfig) -> None:
        self.thesaurus = thesaurus
        self.config = config
        # text1 -> text2 -> sim — nested rather than tuple-keyed so the
        # inner loops probe with one dict get and no tuple allocation.
        self._token: Dict[str, Dict[str, float]] = {}
        # (texts1, texts2) -> ns(T1, T2) for whole (filtered) token
        # sets; what the category-compatibility scan repeats most.
        self._set: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], float] = {}
        self._element: Dict[Tuple[str, str], float] = {}
        # raw name -> per-type non-ignored token lists, slot-aligned
        # with _weight_entries (avoids enum hashing in the pair loop).
        self._buckets: Dict[str, List[Optional[List[Token]]]] = {}
        self._weight_entries: List[Tuple[TokenType, float]] = list(
            config.token_type_weights.items()
        )
        self.token_hits = 0
        self.token_misses = 0
        self.set_hits = 0
        self.set_misses = 0
        self.element_hits = 0
        self.element_misses = 0

    def token_similarity(self, t1: Token, t2: Token) -> float:
        row = self._token.get(t1.text)
        if row is None:
            row = self._token[t1.text] = {}
        value = row.get(t2.text)
        if value is not None:
            self.token_hits += 1
            return value
        self.token_misses += 1
        value = token_similarity(t1, t2, self.thesaurus, self.config)
        row[t2.text] = value
        return value

    def token_set_similarity(
        self, tokens1: Sequence[Token], tokens2: Sequence[Token]
    ) -> float:
        """``ns(T1, T2)`` with per-token-pair caching, inlined.

        ``tokens1``/``tokens2`` may still contain ignored tokens (the
        module function filters them; so does this).
        """
        t1 = [t for t in tokens1 if not t.ignored]
        t2 = [t for t in tokens2 if not t.ignored]
        # Whole-set cache: after filtering, the value depends only on
        # the token texts (token_similarity reads nothing else), so the
        # text tuples are a sound pure-function key. The category scan
        # compares the same keyword sets for every schema pair a
        # session matches — this turns those repeats into one dict get.
        return self.token_set_similarity_prefiltered(
            (
                tuple(t.text for t in t1),
                tuple(t.text for t in t2),
            ),
            t1,
            t2,
        )

    def token_set_similarity_prefiltered(
        self,
        key: Tuple[Tuple[str, ...], Tuple[str, ...]],
        t1: Sequence[Token],
        t2: Sequence[Token],
    ) -> float:
        """``ns(T1, T2)`` for pre-filtered token lists with a prebuilt
        cache key.

        The distinct-name kernel's category-class scan probes the same
        keyword sets thousands of times per match; this entry point
        skips the per-call ignored-token filtering and key-tuple
        construction :meth:`token_set_similarity` performs (``t1`` /
        ``t2`` must already exclude ignored tokens and ``key`` must be
        their text tuples). Same arithmetic, same cache — values are
        bit-identical to the generic path.
        """
        if not t1 or not t2:
            return 0.0
        if len(t1) == 1 and len(t2) == 1:
            return self.token_similarity(t1[0], t2[0])
        value = self._set.get(key)
        if value is not None:
            self.set_hits += 1
            return value
        self.set_misses += 1
        value = self._token_set_filtered(t1, t2)
        self._set[key] = value
        return value

    def _token_set_filtered(
        self, t1: Sequence[Token], t2: Sequence[Token]
    ) -> float:
        """Bidirectional best-match average over non-ignored tokens.

        Same arithmetic as :func:`token_set_similarity` (sum of
        per-token maxima in the same iteration order): the forward scan
        resolves every (a, b) similarity once through the cache and
        keeps the values, so the backward maxima fold over those local
        lists instead of re-probing the cache pair by pair.
        """
        cache = self._token
        forward = 0.0
        pair_rows: List[List[float]] = []
        for a in t1:
            row = cache.get(a.text)
            if row is None:
                row = cache[a.text] = {}
            values: List[float] = []
            best: Optional[float] = None
            for b in t2:
                value = row.get(b.text)
                if value is None:
                    self.token_misses += 1
                    value = token_similarity(
                        a, b, self.thesaurus, self.config
                    )
                    row[b.text] = value
                else:
                    self.token_hits += 1
                values.append(value)
                if best is None or value > best:
                    best = value
            pair_rows.append(values)
            forward += best
        backward = 0.0
        for k in range(len(t2)):
            best = None
            for values in pair_rows:
                value = values[k]
                if best is None or value > best:
                    best = value
            backward += best
        return (forward + backward) / (len(t1) + len(t2))

    def _type_buckets(
        self, name: NormalizedName
    ) -> List[Optional[List[Token]]]:
        """Non-ignored tokens per type, slot-aligned with the weight
        entries (so the pair loop below indexes instead of hashing).
        Computed once per name."""
        buckets = self._buckets.get(name.raw)
        if buckets is None:
            by_type: Dict[TokenType, List[Token]] = {}
            for token in name.tokens:
                if not token.ignored:
                    by_type.setdefault(token.token_type, []).append(token)
            buckets = [
                by_type.get(token_type)
                for token_type, _ in self._weight_entries
            ]
            self._buckets[name.raw] = buckets
        return buckets

    def element_name_similarity(
        self, name1: NormalizedName, name2: NormalizedName
    ) -> float:
        key = (name1.raw, name2.raw)
        value = self._element.get(key)
        if value is not None:
            self.element_hits += 1
            return value
        self.element_misses += 1

        # Same weighted-mean formula as the module-level
        # element_name_similarity (same weight iteration order, same
        # float expressions), reading the cached type buckets.
        buckets1 = self._type_buckets(name1)
        buckets2 = self._type_buckets(name2)
        numerator = 0.0
        denominator = 0.0
        for slot, (_token_type, weight) in enumerate(self._weight_entries):
            t1 = buckets1[slot]
            t2 = buckets2[slot]
            count = (len(t1) if t1 else 0) + (len(t2) if t2 else 0)
            if count == 0 or weight == 0.0:
                continue
            denominator += weight * count
            if t1 and t2:
                per_type = self._token_set_filtered(t1, t2)
                numerator += weight * per_type * count
        value = 0.0 if denominator == 0.0 else numerator / denominator
        self._element[key] = value
        return value

    # ------------------------------------------------------------------
    # Batched ns over a distinct-name cross product
    # ------------------------------------------------------------------

    def element_name_similarity_batch(
        self,
        pairs: Sequence[Tuple[NormalizedName, NormalizedName]],
        use_numpy: bool = True,
    ) -> List[float]:
        """``ns(m1, m2)`` for many name pairs in one call.

        The distinct-name kernel hands over its whole cross product of
        uncovered name pairs at once. All the batch's setup is
        per-*name* and per-*token*, never per-pair:

        1. the distinct names on each side get compact ids and one
           token-id list per weight slot (token texts are interned into
           a per-side index as they are first seen);
        2. every distinct token text pair is resolved exactly once into
           a flat ``array('d')`` similarity matrix, through the token
           cache (hits and misses counted per matrix cell);
        3. under numpy the per-slot ``ns`` values are computed for the
           whole distinct-name cross product at once — token-id gathers
           grouped by token-count shape, vectorized row/col maxes, and
           the weighted means assembled as elementwise matrix
           arithmetic in the scalar code's slot order. The stdlib
           fallback loops pair by pair but reads the flat matrix by
           pre-scaled integer index instead of re-probing string-keyed
           caches.

        Every float expression replicates
        :meth:`element_name_similarity` in the scalar accumulation
        order (maxima summed left to right with elementwise adds; the
        slot loop adds exact zeros where the scalar code skips), so
        results are **bit-identical** to the scalar path — the parity
        tests assert exact equality. Results land in the element cache
        exactly as scalar calls would. Batches below
        :data:`_BATCH_MIN_PAIRS` fall back to the scalar method
        (per-pair overhead beats batch setup there).
        """
        if len(pairs) < _BATCH_MIN_PAIRS:
            return [
                self.element_name_similarity(n1, n2) for n1, n2 in pairs
            ]
        results: List[float] = [0.0] * len(pairs)
        todo: List[Tuple[int, Tuple[str, str], NormalizedName,
                         NormalizedName]] = []
        for idx, (n1, n2) in enumerate(pairs):
            key = (n1.raw, n2.raw)
            value = self._element.get(key)
            if value is not None:
                self.element_hits += 1
                results[idx] = value
            else:
                todo.append((idx, key, n1, n2))
        if not todo:
            return results
        self.element_misses += len(todo)
        # Compact per-side name ids (cross products repeat each name
        # many times; everything expensive hangs off the distinct set).
        names1: Dict[str, int] = {}
        names2: Dict[str, int] = {}
        reps_n1: List[NormalizedName] = []
        reps_n2: List[NormalizedName] = []
        for _idx, _key, n1, n2 in todo:
            if n1.raw not in names1:
                names1[n1.raw] = len(reps_n1)
                reps_n1.append(n1)
            if n2.raw not in names2:
                names2[n2.raw] = len(reps_n2)
                reps_n2.append(n2)
        index1: Dict[str, int] = {}
        index2: Dict[str, int] = {}
        reps1: List[Token] = []
        reps2: List[Token] = []
        slots1 = [self._slot_ids(n, index1, reps1) for n in reps_n1]
        slots2 = [self._slot_ids(n, index2, reps2) for n in reps_n2]
        sims, width = self._token_matrix(reps1, reps2)
        element = self._element
        if use_numpy and _np is not None:
            table = self._cross_ns_np(slots1, slots2, sims, width)
            for idx, key, n1, n2 in todo:
                value = table[names1[n1.raw]][names2[n2.raw]]
                element[key] = value
                results[idx] = value
            return results
        # stdlib fallback: per-pair slot loop in the scalar iteration
        # order, reading the flat matrix by pre-scaled integer index.
        bases1 = [
            [
                None if ids is None else [i * width for i in ids]
                for ids in per_slot
            ]
            for per_slot in slots1
        ]
        weight_entries = self._weight_entries
        for idx, key, n1, n2 in todo:
            per_slot1 = bases1[names1[n1.raw]]
            per_slot2 = slots2[names2[n2.raw]]
            numerator = 0.0
            denominator = 0.0
            for slot, (_token_type, weight) in enumerate(weight_entries):
                row_bases = per_slot1[slot]
                cols = per_slot2[slot]
                count = (
                    (len(row_bases) if row_bases else 0)
                    + (len(cols) if cols else 0)
                )
                if count == 0 or weight == 0.0:
                    continue
                denominator += weight * count
                if row_bases and cols:
                    forward = 0.0
                    col_max: List[float] = []
                    first = True
                    for base in row_bases:
                        best: Optional[float] = None
                        for k, col in enumerate(cols):
                            value = sims[base + col]
                            if first:
                                col_max.append(value)
                            elif value > col_max[k]:
                                col_max[k] = value
                            if best is None or value > best:
                                best = value
                        first = False
                        forward += best
                    backward = 0.0
                    for value in col_max:
                        backward += value
                    per_type = (forward + backward) / count
                    numerator += weight * per_type * count
            value = 0.0 if denominator == 0.0 else numerator / denominator
            element[key] = value
            results[idx] = value
        return results

    def _slot_ids(
        self,
        name: NormalizedName,
        index: Dict[str, int],
        reps: List[Token],
    ) -> List[Optional[List[int]]]:
        """The name's per-slot token-id lists under ``index`` (interning
        unseen texts, with ``reps`` keeping one representative token per
        text for similarity computation). Slot-aligned with
        :attr:`_weight_entries`; ``None`` marks an empty bucket."""
        out: List[Optional[List[int]]] = []
        for bucket in self._type_buckets(name):
            if not bucket:
                out.append(None)
                continue
            ids = []
            for token in bucket:
                tid = index.get(token.text)
                if tid is None:
                    tid = index[token.text] = len(reps)
                    reps.append(token)
                ids.append(tid)
            out.append(ids)
        return out

    def _token_matrix(
        self, reps1: List[Token], reps2: List[Token]
    ) -> Tuple[array, int]:
        """Flat row-major similarity matrix over the distinct token
        cross product, resolved through the token cache (each cell
        counted once as a hit or miss)."""
        width = len(reps2)
        sims = array("d", bytes(8 * len(reps1) * width))
        cache = self._token
        for i, a in enumerate(reps1):
            row = cache.get(a.text)
            if row is None:
                row = cache[a.text] = {}
            base = i * width
            for j, b in enumerate(reps2):
                value = row.get(b.text)
                if value is None:
                    self.token_misses += 1
                    value = token_similarity(
                        a, b, self.thesaurus, self.config
                    )
                    row[b.text] = value
                else:
                    self.token_hits += 1
                sims[base + j] = value
        return sims, width

    #: Gather-block budget for :meth:`_cross_ns_np` — chunk the
    #: ``(k1, k2, r, c)`` blocks so no temporary exceeds ~32 MB.
    _CROSS_BLOCK_CELLS = 1 << 22

    def _cross_ns_np(
        self,
        slots1: List[List[Optional[List[int]]]],
        slots2: List[List[Optional[List[int]]]],
        sims: array,
        width: int,
    ) -> List[List[float]]:
        """The full ``ns`` table over the distinct-name cross product.

        Per weight slot, names are grouped by token count so each group
        pair gathers a rectangular ``(k1, k2, r, c)`` block from the
        token matrix; row/col maxima are summed left to right with
        elementwise adds, and the weighted-mean accumulation adds exact
        zeros where the scalar slot loop skips — every rounding step
        matches :meth:`element_name_similarity`.
        """
        v1 = len(slots1)
        v2 = len(slots2)
        numerator = _np.zeros((v1, v2))
        denominator = _np.zeros((v1, v2))
        sims_np = None
        if len(sims):
            sims_np = _np.frombuffer(sims, dtype=_np.float64)
            sims_np = sims_np.reshape(-1, width)
        cnt1 = _np.empty(v1)
        cnt2 = _np.empty(v2)
        for slot, (_token_type, weight) in enumerate(self._weight_entries):
            if weight == 0.0:
                continue
            by_r: Dict[int, List[int]] = {}
            for nid, per_slot in enumerate(slots1):
                ids = per_slot[slot]
                cnt1[nid] = len(ids) if ids else 0
                if ids:
                    by_r.setdefault(len(ids), []).append(nid)
            by_c: Dict[int, List[int]] = {}
            for nid, per_slot in enumerate(slots2):
                ids = per_slot[slot]
                cnt2[nid] = len(ids) if ids else 0
                if ids:
                    by_c.setdefault(len(ids), []).append(nid)
            count = cnt1[:, None] + cnt2[None, :]
            if not count.any():
                continue
            ns = _np.zeros((v1, v2))
            for r, nids1 in by_r.items():
                a1 = _np.asarray(
                    [slots1[n][slot] for n in nids1], dtype=_np.intp
                )
                rows = _np.asarray(nids1, dtype=_np.intp)[:, None]
                for c, nids2 in by_c.items():
                    a2 = _np.asarray(
                        [slots2[n][slot] for n in nids2], dtype=_np.intp
                    )
                    cols = _np.asarray(nids2, dtype=_np.intp)[None, :]
                    step = max(
                        1,
                        self._CROSS_BLOCK_CELLS // max(1, len(nids2) * r * c),
                    )
                    for lo in range(0, len(nids1), step):
                        hi = lo + step
                        block = sims_np[
                            a1[lo:hi, None, :, None], a2[None, :, None, :]
                        ]
                        row_max = block.max(axis=3)
                        col_max = block.max(axis=2)
                        forward = row_max[..., 0].copy()
                        for k in range(1, r):
                            forward += row_max[..., k]
                        backward = col_max[..., 0].copy()
                        for k in range(1, c):
                            backward += col_max[..., k]
                        ns[rows[lo:hi], cols] = (
                            (forward + backward) / (r + c)
                        )
            # Elementwise replication of the scalar slot loop: slots the
            # scalar code skips contribute exact 0.0 terms here (count
            # is 0 there, and ns is 0 wherever a side has no tokens).
            denominator += weight * count
            numerator += weight * ns * count
        table = _np.zeros((v1, v2))
        _np.divide(
            numerator, denominator, out=table, where=denominator > 0.0
        )
        return table.tolist()

    # ------------------------------------------------------------------
    # Persistence (the repository's cross-process memo tier)
    # ------------------------------------------------------------------

    def export_cache(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """The memo's persistable tiers as a JSON-compatible dict.

        Exports the token-pair and element-name caches — the two tiers
        whose entries are expensive (thesaurus probes, substring scans,
        weighted means) and whose keys are plain strings. Both are pure
        in (thesaurus, config), so a
        :class:`~repro.repository.SchemaRepository` persists them keyed
        by those fingerprints and preloads a fresh session's memo: the
        cold-token cost of the category-class compatibility scan is
        paid once per deployment, not once per process. Values
        round-trip bit-exactly through JSON (repr-based floats).

        Safe while other threads fill the memo: search threads write
        it without a lock, so nothing here iterates a live dict. Each
        iteration runs over a snapshot taken by one C call (atomic under
        the GIL): ``dict.copy()`` for the small token tier, the key list
        for the large element tier (a full copy of it would double the
        export's peak memory). Element entries are only ever added, so
        every snapshotted key stays readable.
        """
        return {
            "token": {a: row.copy() for a, row in self._token.copy().items()},
            "element": self._nest(self._element),
        }

    def preload_cache(
        self, data: Dict[str, Dict[str, Dict[str, float]]]
    ) -> int:
        """Merge an :meth:`export_cache` dump into the live caches.

        Existing entries win (they were computed under this process's
        thesaurus/config, the dump merely claims to match). Returns the
        number of entries added. Callers are responsible for checking
        that the dump's thesaurus/config fingerprints match — a
        mismatched dump would poison bit-parity.
        """
        added = 0
        for a, row in data.get("token", {}).items():
            live = self._token.get(a)
            if live is None:
                live = self._token[a] = {}
            for b, value in row.items():
                if b not in live:
                    live[b] = value
                    added += 1
        for raw1, row in data.get("element", {}).items():
            for raw2, value in row.items():
                key = (raw1, raw2)
                if key not in self._element:
                    self._element[key] = value
                    added += 1
        return added

    @staticmethod
    def _nest(
        flat: Dict[Tuple[str, str], float]
    ) -> Dict[str, Dict[str, float]]:
        nested: Dict[str, Dict[str, float]] = {}
        for key in list(flat):
            nested.setdefault(key[0], {})[key[1]] = flat[key]
        return nested

    def stats(self) -> Dict[str, float]:
        """Hit/miss counters for ``--stats`` regression triage."""
        token_total = self.token_hits + self.token_misses
        element_total = self.element_hits + self.element_misses
        set_total = self.set_hits + self.set_misses
        return {
            "token_sim_hits": self.token_hits,
            "token_sim_misses": self.token_misses,
            "token_sim_hit_rate": (
                self.token_hits / token_total if token_total else 0.0
            ),
            "token_set_sim_hits": self.set_hits,
            "token_set_sim_misses": self.set_misses,
            "token_set_sim_hit_rate": (
                self.set_hits / set_total if set_total else 0.0
            ),
            "element_sim_hits": self.element_hits,
            "element_sim_misses": self.element_misses,
            "element_sim_hit_rate": (
                self.element_hits / element_total if element_total else 0.0
            ),
        }
