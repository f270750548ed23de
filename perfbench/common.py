"""Helpers shared by ``run.py`` and the program-side scripts.

Nothing here imports ``repro``: ``run.py`` must be able to fail cleanly
(non-zero exit, no result line) in a directory that holds only the
benchmark, and the statistics helpers are unit-tested on their own.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
OUT = os.path.join(HERE, "out")

#: Percentiles the tail may report, highest first. The tail is the
#: highest of these with at least TAIL_BEYOND samples above it. The
#: steps are wide on purpose: on the shared 2-vCPU VM the benchmark
#: was sized on, speed swings by up to 2.4x between minutes-long
#: phases, which moves a 30 s window's sample count by as much; p75
#: holds for 40-199 samples and p95 for 200-999, so runs on either
#: side of a swing still report the same percentile.
TAIL_LADDER = (99.9, 99.0, 95.0, 75.0, 50.0)
TAIL_BEYOND = 10


def program_env() -> Dict[str, str]:
    """Environment for every program process: the checkout's sources on
    the path, program defaults (no ``REPRO_*`` knob leaks in from the
    caller), and a pinned hash seed so set/dict orders repeat."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest ladder percentile with at least ``TAIL_BEYOND``
    samples beyond it: returns ``(percentile, value, beyond)``.

    With too few samples for even the median to have ten beyond it,
    the median is returned with its (short) count, so callers can see
    the tail is not resolved.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        beyond = n - max(1, math.ceil(pct / 100.0 * n))
        if beyond >= TAIL_BEYOND:
            return pct, nearest_rank(ordered, pct), beyond
    pct = TAIL_LADDER[-1]
    return pct, nearest_rank(ordered, pct), n - max(1, math.ceil(n / 2))


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def calibration_s() -> float:
    """Time a fixed pure-Python loop (about 0.3 s on a 2-core VM).

    Run at the start and end of every run: a slow reading marks a run
    taken while the host was slow, independently of the program."""
    start = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += (i * 7) % 13
    return time.perf_counter() - start


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def mapping_digest(leaf_mapping, nonleaf_mapping) -> str:
    """Order-independent digest of a match's mappings at full float
    precision (``repr``), so any bit difference shows."""
    lines: List[str] = []
    for kind, mapping in (
        ("leaf", leaf_mapping), ("nonleaf", nonleaf_mapping)
    ):
        for element in mapping:
            lines.append(
                f"{kind}|{'.'.join(element.source_path)}|"
                f"{'.'.join(element.target_path)}|{element.similarity!r}"
            )
    lines.sort()
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def dump_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
