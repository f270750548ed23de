"""Memory tripwire for the linguistic phase.

The distinct-name kernel computes ``ns`` for a whole match as arrays
over the vocabulary axes; nothing it allocates may grow per distinct
name pair beyond a few bytes of array cells. This wraps one
``LinguisticMatcher.compute_prepared`` on a generated pair (both
schemas prepared and factored beforehand) in ``tracemalloc`` and
bounds the bytes it retains and its peak, per distinct name pair.
Allocation sizes are deterministic, unlike RSS, so the bounds are
tight: a per-pair Python object, list cell or memo entry (~150–500
bytes a pair) trips them.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.config import CupidConfig
from repro.datasets.generator import SchemaGenerator
from repro.linguistic.lexicon import builtin_thesaurus
from repro.linguistic.matcher import LinguisticMatcher

pytestmark = pytest.mark.perf

#: Bytes per distinct name pair the kernel may keep after the match
#: (the profile value matrix and the memo's new token entries).
RETAINED_BYTES_PER_PAIR = 64

#: Bytes per distinct name pair the kernel may hold at its peak.
PEAK_BYTES_PER_PAIR = 300


def test_linguistic_phase_memory_per_name_pair():
    source = SchemaGenerator(seed=11).generate(
        name="mediated", n_leaves=320, max_depth=3
    )
    target = SchemaGenerator(seed=211).generate(
        name="candidate", n_leaves=320, max_depth=3
    )
    matcher = LinguisticMatcher(builtin_thesaurus(), CupidConfig())
    preps = [matcher.prepare(source), matcher.prepare(target)]
    for prep in preps:
        matcher.vocabulary(prep).token_tables()

    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        table = matcher.compute_prepared(*preps)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    pairs = table.kernel_stats["kernel_distinct_name_pairs"]
    assert pairs == 86856
    retained = (after - before) / pairs
    peak_growth = (peak - before) / pairs
    assert retained <= RETAINED_BYTES_PER_PAIR, (
        f"linguistic phase retained {retained:.0f} B per distinct name "
        f"pair (bound {RETAINED_BYTES_PER_PAIR})"
    )
    assert peak_growth <= PEAK_BYTES_PER_PAIR, (
        f"linguistic phase peaked at {peak_growth:.0f} B per distinct "
        f"name pair (bound {PEAK_BYTES_PER_PAIR})"
    )
