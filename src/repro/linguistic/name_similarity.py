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
from typing import Dict, Optional, Sequence

from repro.config import CupidConfig
from repro.linguistic.normalizer import NormalizedName
from repro.linguistic.thesaurus import Thesaurus
from repro.linguistic.tokens import Token


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
    return text_similarity(t1.text, t2.text, thesaurus, config)


def text_similarity(
    a: str,
    b: str,
    thesaurus: Thesaurus,
    config: Optional[CupidConfig] = None,
) -> float:
    """:func:`token_similarity` on two token texts (it reads nothing
    else of a token)."""
    ceiling = config.substring_sim_ceiling if config else 0.8
    floor = config.min_token_sim if config else 0.0
    if a == b:
        return 1.0
    related = thesaurus.relatedness(a, b)
    if related is not None:
        return max(related, floor)
    return max(substring_similarity(a, b, ceiling), floor)


def token_set_similarity(
    tokens1: Sequence[Token],
    tokens2: Sequence[Token],
    thesaurus: Thesaurus,
    config: Optional[CupidConfig] = None,
) -> float:
    """``ns(T1, T2)`` — the paper's bidirectional best-match average:

    ``(Σ_{t1∈T1} max_{t2∈T2} sim(t1,t2) + Σ_{t2∈T2} max_{t1∈T1}
    sim(t1,t2)) / (|T1| + |T2|)``

    Ignored (common-word) tokens are excluded by callers; if either set
    is empty the similarity is 0 (nothing to compare).
    """
    t1 = [t for t in tokens1 if not t.ignored]
    t2 = [t for t in tokens2 if not t.ignored]
    if not t1 or not t2:
        return 0.0

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
            per_type = token_set_similarity(t1, t2, thesaurus, config)
            numerator += weight * per_type * count
        # If only one side has tokens of this type, those tokens have no
        # counterpart: they contribute weight (penalty) but 0 similarity.
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


class NameSimilarityMemo:
    """Memoized token similarities (dense engine).

    Schemas repeat tokens across elements and across every schema pair
    a session matches; the all-pairs linguistic phase of Section 5 pays
    for each duplicate again. This cache keys ``sim(t1, t2)`` on the
    token *texts*, so each distinct comparison is computed exactly once
    per matcher. It is pure given a fixed thesaurus and config, so
    memoization cannot change any value — only skip recomputation.

    Its one reader is the distinct-name kernel
    (:mod:`repro.linguistic.kernel`), which resolves a whole match's
    token pairs at once through :meth:`token_matrix` and computes every
    ``ns`` from that matrix; nothing is cached per name pair.
    """

    __slots__ = (
        "thesaurus",
        "config",
        "_token",
        "token_hits",
        "token_misses",
    )

    def __init__(self, thesaurus: Thesaurus, config: CupidConfig) -> None:
        self.thesaurus = thesaurus
        self.config = config
        # text1 -> text2 -> sim — nested rather than tuple-keyed so the
        # inner loops probe with one dict get and no tuple allocation.
        self._token: Dict[str, Dict[str, float]] = {}
        self.token_hits = 0
        self.token_misses = 0

    def token_matrix(
        self, texts1: Sequence[str], texts2: Sequence[str]
    ) -> array:
        """``sim`` over ``texts1 × texts2`` as a flat row-major
        ``array('d')``, resolved through the token tier: one row dict
        fetch per ``texts1`` entry, each cell counted once as a hit or
        a miss (misses are computed and stored)."""
        cache = self._token
        width = len(texts2)
        sims = array("d")
        for a in texts1:
            row = cache.get(a)
            if row is None:
                row = cache[a] = {}
            values = list(map(row.get, texts2))
            misses = values.count(None)
            if misses:
                self.token_misses += misses
                for j, value in enumerate(values):
                    if value is None:
                        b = texts2[j]
                        value = values[j] = text_similarity(
                            a, b, self.thesaurus, self.config
                        )
                        row[b] = value
            self.token_hits += width - misses
            sims.extend(values)
        return sims

    def token_entries(self) -> int:
        """Entries held by the token tier, counted over a snapshot of
        its rows (one C call, atomic under the GIL), so the count is
        safe while a match fills the memo on another thread."""
        return sum(map(len, list(self._token.values())))

    def stats(self) -> Dict[str, float]:
        """Hit/miss counters for ``--stats`` regression triage.

        The ``token_set_sim_*`` and ``element_sim_*`` keys read 0: the
        token tier is the only one left, and the keys stay for readers
        that sum every tier.
        """
        token_total = self.token_hits + self.token_misses
        return {
            "token_sim_hits": self.token_hits,
            "token_sim_misses": self.token_misses,
            "token_sim_hit_rate": (
                self.token_hits / token_total if token_total else 0.0
            ),
            "token_set_sim_hits": 0,
            "token_set_sim_misses": 0,
            "token_set_sim_hit_rate": 0.0,
            "element_sim_hits": 0,
            "element_sim_misses": 0,
            "element_sim_hit_rate": 0.0,
            "memo_token_entries": self.token_entries(),
        }
