"""Program-side script for the match workloads; runs in its own process.

``worker``: the measured program process. Each op does what one
``repro match --format json`` call does after start-up: read two JSON
schema files, build a fresh ``MatchPipeline.default()``, match, and
write the leaf and non-leaf mappings as JSON. The worker imports the
program, runs the first op untimed, prints ``ready``, and then waits on
stdin for ``quit`` or ``go <seconds> <rss_after_ops>``. It times ops for
the given seconds, cycling through the pairs in order, takes its peak
RSS after the given number of ops (so both commits compare equal work),
and writes per-op latencies and mapping digests to ``--report``.

Timed ops alternate between the CPUs the process may use. On a shared
VM each CPU's speed drifts on its own by up to ±30% over seconds; left
to the scheduler, one run would sample one CPU's drift for its whole
window, while alternating averages both into every run.

``oracle``: digests of the same ops under ``engine="reference"``, the
correctness oracle, computed after the timed window.

``repo-ids``: the schema ids a repository holds, as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from common import dump_json, load_json, mapping_digest, vm_hwm_mb
from repro.config import CupidConfig
from repro.io import json_io
from repro.pipeline import MatchPipeline
from repro.repository import SchemaRepository


def _read_schema(path: str):
    with open(path, encoding="utf-8") as handle:
        return json_io.schema_from_json(handle.read())


def one_op(pair, out_path: str, recorder=None):
    """One ``repro match``-style op; returns the ``CupidResult``."""
    span = recorder.span if recorder is not None else (
        lambda name: contextlib.nullcontext()
    )
    with span("op"):
        with span("io.parse"):
            source = _read_schema(pair["source"])
            target = _read_schema(pair["target"])
        result = MatchPipeline.default().run(source, target)
        with span("io.write"):
            payload = {
                "leaf": json_io.mapping_to_dict(result.leaf_mapping),
                "nonleaf": json_io.mapping_to_dict(result.nonleaf_mapping),
            }
            with open(out_path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
    return result


def _worker(args) -> int:
    pairs = load_json(args.pairs)
    recorder = None
    if args.trace:
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)
    outputs = [
        os.path.join(args.out_dir, f"mapping{i}.json")
        for i in range(len(pairs))
    ]
    one_op(pairs[0], outputs[0])
    print("ready", flush=True)
    command = sys.stdin.readline().split()
    if not command or command[0] != "go":
        return 0
    seconds, rss_after = float(command[1]), int(command[2])

    ops = []
    rss_mb = None
    cpus = sorted(os.sched_getaffinity(os.getppid()))
    start = time.perf_counter()
    while True:
        index = len(ops)
        pair = index % len(pairs)
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        traced = recorder is not None and (index // len(pairs)) % 2 == 1
        if recorder is not None:
            recorder.enabled = traced
            recorder.request_id = f"op{index:05d}"
        began = time.perf_counter()
        result = one_op(pairs[pair], outputs[pair], recorder)
        ended = time.perf_counter()
        if recorder is not None:
            recorder.enabled = False
        ops.append({
            "pair": pair,
            "ms": (ended - began) * 1000.0,
            "traced": traced,
            "digest": mapping_digest(
                result.leaf_mapping, result.nonleaf_mapping
            ),
        })
        del result
        if len(ops) == rss_after:
            rss_mb = vm_hwm_mb()
        if ended - start >= seconds:
            break
    report = {
        "ops": ops,
        "window_s": ended - start,
        "rss_mb": rss_mb if rss_mb is not None else vm_hwm_mb(),
        "rss_after_ops": min(rss_after, len(ops)),
        "outputs": outputs,
    }
    if recorder is not None:
        report["trace"] = {
            "spans": recorder.spans,
            "counts": dict(recorder.counts),
            "epoch_ns": recorder.epoch_ns,
            "pid": os.getpid(),
        }
    dump_json(args.report, report)
    print("done", flush=True)
    return 0


def _oracle(args) -> int:
    config = CupidConfig(engine="reference")
    digests = []
    for pair in load_json(args.pairs):
        result = MatchPipeline.default(config=config).run(
            _read_schema(pair["source"]), _read_schema(pair["target"])
        )
        digests.append(
            mapping_digest(result.leaf_mapping, result.nonleaf_mapping)
        )
    dump_json(args.report, digests)
    return 0


def _repo_ids(args) -> int:
    print(json.dumps(SchemaRepository.open(args.repo).schema_ids()))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    modes = parser.add_subparsers(dest="mode", required=True)
    worker = modes.add_parser("worker")
    worker.add_argument("--pairs", required=True)
    worker.add_argument("--out-dir", required=True)
    worker.add_argument("--report", required=True)
    worker.add_argument("--trace", action="store_true")
    oracle = modes.add_parser("oracle")
    oracle.add_argument("--pairs", required=True)
    oracle.add_argument("--report", required=True)
    ids = modes.add_parser("repo-ids")
    ids.add_argument("--repo", required=True)
    args = parser.parse_args()
    return {"worker": _worker, "oracle": _oracle, "repo-ids": _repo_ids}[
        args.mode
    ](args)


if __name__ == "__main__":
    sys.exit(main())
