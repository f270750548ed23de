"""Cupid configuration — the control parameters of Table 1.

Every threshold and factor the paper names is a field here, with the
paper's "typical value" as the default. ``validate()`` enforces the
relationships Table 1 states (``thhigh`` > ``thaccept`` > ``thlow``),
and :class:`ConfigError` is raised on violation so misconfiguration
fails loudly before a match runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional

from repro.exceptions import ConfigError
from repro.linguistic.tokens import TokenType


def _default_token_weights() -> Dict["TokenType", float]:
    """Per-token-type weights for element name similarity (Section 5.3).

    "Content and concept tokens are assigned a greater weight, since
    these token types are more relevant than numbers and conjunctions,
    prepositions, etc."
    """
    return {
        TokenType.CONTENT: 0.40,
        TokenType.CONCEPT: 0.35,
        TokenType.NUMBER: 0.10,
        TokenType.SPECIAL: 0.05,
        TokenType.COMMON: 0.10,
    }


def _default_dense_backend() -> str:
    """``"auto"`` unless ``REPRO_FORCE_STDLIB`` is set in the
    environment, which forces the pure-stdlib fallback even when numpy
    is importable — the switch CI uses to exercise both array backends
    without maintaining two container images."""
    return "stdlib" if os.environ.get("REPRO_FORCE_STDLIB") else "auto"


@dataclass
class CupidConfig:
    """All tunable parameters of the Cupid pipeline.

    Defaults are the "typical values" of Table 1. Attributes whose
    names match the paper use its notation.
    """

    #: Name-similarity threshold for compatible categories (Table 1:
    #: 0.5 — "the choice of value is not critical, as it is used merely
    #: for pruning").
    thns: float = 0.5

    #: If ``wsim(s,t) >= thhigh``, increase leaf structural similarities
    #: in both subtrees. Must exceed ``thaccept`` (Table 1: 0.6).
    thhigh: float = 0.6

    #: If ``wsim(s,t) <= thlow``, decrease leaf structural similarities.
    #: Must be below ``thaccept`` (Table 1: 0.35).
    thlow: float = 0.35

    #: Multiplicative increase factor for leaf ssim (Table 1: 1.2).
    cinc: float = 1.2

    #: Multiplicative decrease factor, typically ~1/cinc (Table 1: 0.9).
    cdec: float = 0.9

    #: Strong-link / acceptable-mapping threshold (Table 1: 0.5).
    thaccept: float = 0.5

    #: Structural contribution to wsim for non-leaf pairs (Table 1:
    #: 0.5–0.6; we default to the middle of the stated range).
    wstruct: float = 0.6

    #: Structural contribution for leaf-leaf pairs ("typically ...
    #: lower for leaf-leaf pairs than for non-leaf pairs").
    wstruct_leaf: float = 0.5

    #: Subtree leaf-count ratio beyond which node pairs are skipped
    #: (Section 6: "only comparing elements that have a similar number
    #: of leaves in their subtrees (say within a factor of 2)").
    leaf_count_ratio: float = 2.0

    #: Enable the leaf-count pruning above. Roots are always compared.
    prune_by_leaf_count: bool = True

    #: Depth-k leaf pruning (Section 8.4 "Pruning leaves"): when > 0,
    #: the leaf set of a node is cut off at this depth below it.
    leaf_prune_depth: int = 0

    #: lsim assigned to pairs the user marks in an initial mapping
    #: (Section 8.4: "initialized to a predefined maximum value").
    initial_mapping_lsim: float = 1.0

    #: Reify referential constraints as join-view nodes (Section 8.3).
    use_refint_joins: bool = True

    #: Use the lazy-expansion optimization for shared types (§8.4).
    lazy_expansion: bool = False

    #: Drop optional leaves without strong links from the ssim fraction
    #: (Section 8.4 "Optionality").
    discount_optional_leaves: bool = True

    #: Per-token-type weights w_i for name similarity; must sum to 1.
    token_type_weights: Dict[TokenType, float] = field(
        default_factory=_default_token_weights
    )

    #: Factor key-ness into leaf structural initialization ("it
    #: exploits keys", Section 4): two key elements start slightly more
    #: compatible, a key/non-key pair slightly less.
    use_key_affinity: bool = True

    #: Additive key-ness adjustment applied to the data-type
    #: compatibility (result clamped to the [0, 0.5] leaf-init range).
    key_affinity_bonus: float = 0.05

    #: Compare element descriptions (data-dictionary annotations) as an
    #: additional lsim signal — the Section 10 future-work item.
    use_descriptions: bool = False

    #: Weight of the description similarity when it wins over the
    #: name-based lsim: lsim = max(name lsim, weight × desc sim).
    description_weight: float = 0.9

    #: Similarity assigned to substring (prefix/suffix) token matches,
    #: scaled by overlap; kept below typical thesaurus synonym strength.
    substring_sim_ceiling: float = 0.8

    #: Minimum token similarity considered at all (noise floor).
    min_token_sim: float = 0.0

    #: Matching engine. ``"dense"`` (the default) routes the TreeMatch
    #: hot path through contiguous similarity matrices
    #: (:mod:`repro.structure.dense`) and memoizes the linguistic
    #: phase; ``"reference"`` keeps the straightforward dict-based
    #: implementation as the correctness oracle. Both produce identical
    #: similarities and mappings.
    engine: str = "dense"

    #: Array backend for the dense engine: ``"auto"`` uses numpy when
    #: importable and falls back to pure-stdlib ``array('d')``;
    #: ``"numpy"`` / ``"stdlib"`` force one (``"numpy"`` raises if
    #: numpy is unavailable). The default honors the
    #: ``REPRO_FORCE_STDLIB`` environment variable (set → "stdlib").
    dense_backend: str = field(default_factory=_default_dense_backend)

    #: Upper bound on the prepared schemas a
    #: :class:`~repro.pipeline.session.MatchSession` retains (0 =
    #: unbounded). When set, the least-recently-matched prepared schema
    #: (and its cached lsim tables) is evicted once the bound is
    #: exceeded. Eviction counts appear in
    #: ``MatchSession.cache_info()``. Searches and serving ``match``
    #: requests release the schemas they bring
    #: (``MatchSession.transient``), so a serving session holds at most
    #: one PreparedSchema per corpus schema even when unbounded; the
    #: bound caps that corpus share.
    max_prepared_schemas: int = 0

    #: Upper bound on requests admitted but not yet finished by a
    #: :class:`~repro.serving.MatchService` (running + queued). Beyond
    #: it the service raises
    #: :class:`~repro.exceptions.ServiceOverloadedError` immediately —
    #: backpressure instead of unbounded queueing.
    serving_queue_depth: int = 64

    #: Default per-request deadline, in seconds, for MatchService
    #: requests (0 = no deadline). Individual requests can override it;
    #: exceeding it raises
    #: :class:`~repro.exceptions.RequestTimeoutError`.
    serving_timeout_s: float = 30.0

    #: Base of the jittered ``Retry-After`` header the HTTP daemon
    #: attaches to 503 responses (overload / closed service): the
    #: advertised delay is uniform in [base, 2*base] seconds so a
    #: fleet of backing-off clients doesn't reconverge in lockstep.
    #: ``0`` omits the header.
    serving_retry_after_s: float = 1.0

    #: Seed of the Retry-After jitter stream. None (the default) draws
    #: from OS entropy — the right choice in production, where
    #: distinct daemons must desynchronize their clients. Pin an int
    #: to make the advertised delays reproducible (the fault-injection
    #: suite does, so chaos runs under pinned ``REPRO_FAULTS`` seeds
    #: replay byte-identical 503 responses).
    serving_retry_after_seed: Optional[int] = None

    #: Slow-request log threshold, in milliseconds: HTTP requests
    #: whose wall time exceeds it emit one structured JSON log line
    #: (request id, endpoint, status, elapsed) on stderr even when
    #: the daemon is not ``--verbose``. ``0`` (the default) disables
    #: the slow log.
    slow_request_ms: float = 0.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` if the parameters are inconsistent."""
        for name in ("thns", "thhigh", "thlow", "thaccept"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name}={value} outside [0, 1]")
        if not self.thhigh > self.thaccept:
            raise ConfigError(
                f"thhigh ({self.thhigh}) must exceed thaccept "
                f"({self.thaccept}) — Table 1"
            )
        if not self.thlow < self.thaccept:
            raise ConfigError(
                f"thlow ({self.thlow}) must be below thaccept "
                f"({self.thaccept}) — Table 1"
            )
        if self.cinc < 1.0:
            raise ConfigError(f"cinc ({self.cinc}) must be >= 1")
        if not 0.0 < self.cdec <= 1.0:
            raise ConfigError(f"cdec ({self.cdec}) must be in (0, 1]")
        for name in ("wstruct", "wstruct_leaf"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name}={value} outside [0, 1]")
        if self.leaf_count_ratio < 1.0:
            raise ConfigError(
                f"leaf_count_ratio ({self.leaf_count_ratio}) must be >= 1"
            )
        if self.leaf_prune_depth < 0:
            raise ConfigError("leaf_prune_depth must be >= 0")
        if not 0.0 <= self.initial_mapping_lsim <= 1.0:
            raise ConfigError(
                f"initial_mapping_lsim={self.initial_mapping_lsim} "
                "outside [0, 1]"
            )
        if not 0.0 <= self.description_weight <= 1.0:
            raise ConfigError(
                f"description_weight={self.description_weight} outside [0, 1]"
            )
        if not 0.0 <= self.key_affinity_bonus <= 0.25:
            raise ConfigError(
                f"key_affinity_bonus={self.key_affinity_bonus} "
                "outside [0, 0.25]"
            )
        if self.engine not in ("dense", "reference"):
            raise ConfigError(
                f"engine={self.engine!r} (expected 'dense' or 'reference')"
            )
        if self.dense_backend not in ("auto", "numpy", "stdlib"):
            raise ConfigError(
                f"dense_backend={self.dense_backend!r} "
                "(expected 'auto', 'numpy', or 'stdlib')"
            )
        if self.max_prepared_schemas < 0:
            raise ConfigError(
                f"max_prepared_schemas ({self.max_prepared_schemas}) "
                "must be >= 0 (0 = unbounded)"
            )
        if self.serving_queue_depth < 1:
            raise ConfigError(
                f"serving_queue_depth ({self.serving_queue_depth}) "
                "must be >= 1"
            )
        if self.serving_timeout_s < 0:
            raise ConfigError(
                f"serving_timeout_s ({self.serving_timeout_s}) must be "
                ">= 0 (0 = no deadline)"
            )
        if self.serving_retry_after_s < 0:
            raise ConfigError(
                f"serving_retry_after_s ({self.serving_retry_after_s}) "
                "must be >= 0 (0 = no Retry-After header)"
            )
        if self.serving_retry_after_seed is not None and not isinstance(
            self.serving_retry_after_seed, int
        ):
            raise ConfigError(
                f"serving_retry_after_seed "
                f"({self.serving_retry_after_seed!r}) must be an int or "
                "None (None = OS entropy)"
            )
        if self.slow_request_ms < 0:
            raise ConfigError(
                f"slow_request_ms ({self.slow_request_ms}) must be >= 0 "
                "(0 = slow-request log disabled)"
            )
        total = sum(self.token_type_weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(
                f"token_type_weights must sum to 1 (got {total:.6f})"
            )
        if any(w < 0 for w in self.token_type_weights.values()):
            raise ConfigError("token_type_weights must be non-negative")

    def replace(self, **changes) -> "CupidConfig":
        """Return a validated copy with ``changes`` applied."""
        updated = replace(self, **changes)
        updated.validate()
        return updated

    def as_table(self) -> Mapping[str, float]:
        """The Table 1 parameters as an ordered name→value mapping."""
        return {
            "thns": self.thns,
            "thhigh": self.thhigh,
            "thlow": self.thlow,
            "cinc": self.cinc,
            "cdec": self.cdec,
            "thaccept": self.thaccept,
            "wstruct": self.wstruct,
            "wstruct_leaf": self.wstruct_leaf,
        }


DEFAULT_CONFIG = CupidConfig()
DEFAULT_CONFIG.validate()
