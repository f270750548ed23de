"""Runs the one-shot match workloads (``match-context``, ``match-wide``).

Spawns :mod:`matchop` worker processes — one program process per
set-up sample, the last of which also runs the timed ops — then checks
every op's mappings against the reference engine and, where the
generator supplies one, the gold mapping.

Set-up samples start on alternating CPUs, and the timed ops alternate
too (see :mod:`matchop`): each CPU of a shared VM drifts on its own,
and an even number of samples puts both CPUs into every median.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Any, Dict, List

from common import HERE, ROOT, dump_json, load_json, program_env

MATCHOP = os.path.join(HERE, "matchop.py")
#: Set-up samples per run (spawn → imports → first op → ready).
SETUPS = 4
#: Peak RSS is read after this many timed ops, so both commits compare
#: the same work even when one completes more ops in the window.
RSS_AFTER_OPS = 16
#: Leaf-mapping recall floor against the generator's gold mapping.
RECALL_FLOOR = 0.98


def _spawn_worker(pairs_path: str, work: str, report: str, trace: bool,
                  cpu: int):
    command = [
        sys.executable, MATCHOP, "worker", "--pairs", pairs_path,
        "--out-dir", work, "--report", report,
    ]
    if trace:
        command.append("--trace")
    return subprocess.Popen(
        command, cwd=ROOT, env=program_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )


def _expect(proc, word: str) -> None:
    line = proc.stdout.readline().strip()
    if line != word:
        raise RuntimeError(
            f"match worker said {line!r} instead of {word!r} "
            f"(exit {proc.poll()})"
        )


def _send(proc, command: str) -> None:
    proc.stdin.write(command + "\n")
    proc.stdin.flush()


def _finish(proc, timeout: float = 60.0) -> None:
    """Close the worker's pipes and wait for it to exit."""
    try:
        proc.stdin.close()
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def recall(mapping_json: Dict[str, Any], gold: List[List[str]]) -> float:
    """Share of gold pairs some leaf element matches (path suffixes)."""
    elements = [
        (tuple(e["source_path"]), tuple(e["target_path"]))
        for e in mapping_json["leaf"]["elements"]
    ]

    def ends_with(path, suffix):
        return len(suffix) <= len(path) and path[-len(suffix):] == suffix

    found = 0
    for source, target in gold:
        s, t = tuple(source.split(".")), tuple(target.split("."))
        if any(ends_with(a, s) and ends_with(b, t) for a, b in elements):
            found += 1
    return found / len(gold)


def gate(ops: List[Dict[str, Any]], reference: List[str]) -> List[int]:
    """Indexes of ops whose mapping digest differs from the reference
    engine's digest for the same pair."""
    return [
        i for i, op in enumerate(ops)
        if op["digest"] != reference[op["pair"]]
    ]


def run_match(pairs: List[Dict[str, Any]], seconds: int, trace: bool,
              work: str) -> Dict[str, Any]:
    """One run: set-up samples, the timed window, then the gates."""
    pairs_path = os.path.join(work, "pairs.json")
    dump_json(pairs_path, pairs)
    report_path = os.path.join(work, "report.json")

    setups = []
    cpus = sorted(os.sched_getaffinity(0))
    for k in range(SETUPS):
        began = time.perf_counter()
        proc = _spawn_worker(
            pairs_path, work, report_path, trace, cpus[k % len(cpus)]
        )
        try:
            _expect(proc, "ready")
            setups.append(time.perf_counter() - began)
            if k == SETUPS - 1:
                _send(proc, f"go {seconds} {RSS_AFTER_OPS}")
                _expect(proc, "done")
            else:
                _send(proc, "quit")
        finally:
            _finish(proc, timeout=seconds + 120.0)
        if proc.returncode != 0:
            raise RuntimeError(f"match worker exited {proc.returncode}")
    report = load_json(report_path)

    oracle_path = os.path.join(work, "oracle.json")
    subprocess.run(
        [sys.executable, MATCHOP, "oracle", "--pairs", pairs_path,
         "--report", oracle_path],
        cwd=ROOT, env=program_env(), check=True, timeout=120,
    )
    ops = report["ops"]
    failed_ops = set(gate(ops, load_json(oracle_path)))
    problems = [
        f"op {i} (pair {ops[i]['pair']}): mappings differ from the "
        "reference engine's" for i in sorted(failed_ops)
    ]
    recalls = []
    for i, pair in enumerate(pairs):
        if pair["gold"] is None:
            continue
        value = recall(load_json(report["outputs"][i]), pair["gold"])
        recalls.append(value)
        if value < RECALL_FLOOR:
            problems.append(
                f"pair {i}: recall {value:.4f} below floor {RECALL_FLOOR}"
            )
            failed_ops.update(
                j for j, op in enumerate(ops) if op["pair"] == i
            )
    return {
        "setups_s": setups,
        "latencies_ms": [op["ms"] for op in ops],
        "traced": [op["traced"] for op in ops],
        "window_s": report["window_s"],
        "rss_mb": report["rss_mb"],
        "rss_after": report["rss_after_ops"],
        "attempted": len(ops),
        "failed": len(failed_ops),
        "problems": problems,
        "recall": min(recalls) if recalls else None,
        "trace": report.get("trace"),
    }
