"""E14 — distinct-name ns kernel vs the reference engine's per-pair path.

Times the linguistic phase (normalization + the factored lsim kernel)
on the sparse independent-pair workload against the reference
engine's per-element-pair linguistic phase, asserts the two produce
identical lsim values, and records the floor file
(``results/BENCH_ns_kernel_floor.json``) that
``tests/test_perf_ns_kernel.py`` gates tier-1 against. The floor is
~20x the measured kernel time — a regression tripwire, not a
benchmark; the honest numbers live in the published table.
"""

from __future__ import annotations

import json
import os
import time

from repro.config import CupidConfig
from repro.datasets.generator import SchemaGenerator
from repro.eval.reporting import render_table
from repro.linguistic.lexicon import builtin_thesaurus
from repro.linguistic.matcher import LinguisticMatcher

SIZES = [160, 320]

#: The floor file records the smallest size (fast enough for tier-1).
FLOOR_SIZE = 160
FLOOR_HEADROOM = 20.0


def _workload(n_leaves):
    source = SchemaGenerator(seed=11).generate(
        name="mediated", n_leaves=n_leaves, max_depth=3
    )
    target = SchemaGenerator(seed=211).generate(
        name="candidate", n_leaves=n_leaves, max_depth=3
    )
    return source, target


def _timed_compute(config, source, target, repeats=3):
    best = None
    result = None
    for _ in range(repeats):
        matcher = LinguisticMatcher(builtin_thesaurus(), config)
        start = time.perf_counter()
        result = matcher.compute(source, target)
        elapsed = (time.perf_counter() - start) * 1000.0
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def test_ns_kernel_sweep(publish, results_dir):
    """Kernel-vs-reference sweep: publishes the table and rewrites
    BENCH_ns_kernel_floor.json from the measured kernel time."""
    rows = []
    floor_batched_ms = None
    for size in SIZES:
        source, target = _workload(size)
        batched_ms, batched = _timed_compute(
            CupidConfig(thlow=0.0), source, target,
        )
        scalar_ms, scalar = _timed_compute(
            CupidConfig(thlow=0.0, engine="reference"), source, target,
        )
        assert sorted(batched.items()) == sorted(scalar.items()), (
            f"{size} leaves/side: kernel ns diverged from the reference"
        )
        rows.append(
            [
                size,
                f"{batched_ms:.0f} ms",
                f"{scalar_ms:.0f} ms",
                f"{scalar_ms / batched_ms:.2f}x",
            ]
        )
        if size == FLOOR_SIZE:
            floor_batched_ms = batched_ms

    publish(
        "ns_kernel",
        render_table(
            ["Leaves/side", "Kernel", "Reference", "Speedup"],
            rows,
            title="Linguistic phase, kernel vs reference (sparse pair)",
        ),
    )

    assert floor_batched_ms is not None
    record = {
        "description": (
            "Floor for the distinct-name ns kernel's linguistic phase; "
            "gated by tests/test_perf_ns_kernel.py"
        ),
        "workload": {
            "seed_source": 11,
            "seed_target": 211,
            "n_leaves": FLOOR_SIZE,
            "max_depth": 3,
        },
        "floor_ms": round(floor_batched_ms * FLOOR_HEADROOM),
        "measured_batched_ms": round(floor_batched_ms, 1),
        "note": (
            f"floor is ~{FLOOR_HEADROOM:.0f}x the measured kernel "
            "linguistic-phase time — an order-of-magnitude tripwire, "
            "not a benchmark"
        ),
    }
    json_path = os.path.join(results_dir, "BENCH_ns_kernel_floor.json")
    with open(json_path, "w") as handle:
        json.dump(record, handle, indent=2)
    print(f"[written to {json_path}]")
