"""The benchmark's one command.

    python3 perfbench/run.py --workload match-context --seed 1 \
        --seconds 30 --trace 0

Runs one workload (``match-context``, ``match-wide`` or ``serve-mixed``;
see :mod:`workloads` for why each exists) against the program built
from this checkout's ``src/``, in fresh program processes with program
defaults. Prints every metric by name with its unit, a per-run drift
record, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (:mod:`layers`) with ``--trace 1``.
Exits non-zero on any correctness failure. Per-run records, traces and
per-layer tables go to ``perfbench/out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

import layers
import match
import serve
from common import OUT, SRC, calibration_s, dump_json, iqr, tail
from spans import chrome_trace

WORKLOADS = ("match-context", "match-wide", "serve-mixed")
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _execute(args, work: str):
    # Imported late: it imports the program, whose absence must end the
    # run with a plain error rather than a traceback.
    import workloads

    if args.workload == "serve-mixed":
        inputs = workloads.serve_mixed(args.seed, work)
        return serve.run_serve(inputs, args.seconds, bool(args.trace), work)
    build = (
        workloads.match_context
        if args.workload == "match-context"
        else workloads.match_wide
    )
    pairs = build(args.seed, work)
    return match.run_match(pairs, args.seconds, bool(args.trace), work)


def _latencies(args, result):
    """Untraced latencies of the workload's ops (searches on serve)."""
    if args.workload == "serve-mixed":
        return [
            r["ms"] for r in result["results"]
            if r["path"] == "/search" and not r["rid"].startswith("t")
        ]
    return [
        ms for ms, traced in zip(result["latencies_ms"], result["traced"])
        if not traced
    ]


def _end_to_end(args, result, latencies):
    pct, tail_ms, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(result["setups_s"]),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "ops_per_s": result["attempted"] / result["window_s"],
        "peak_rss_mb": result["rss_mb"],
    }
    notes = {
        "setup_s": "median of " + ", ".join(
            f"{s:.3f}" for s in result["setups_s"]),
        "latency_p50_ms": f"n={len(latencies)}",
        "latency_tail_ms": f"p{pct:g}, n={len(latencies)}, {beyond} beyond",
        "ops_per_s": (
            f"{result['attempted']} ops in {result['window_s']:.2f} s"
        ),
        "peak_rss_mb": f"VmHWM after {result['rss_after']} ops",
    }
    return metrics, notes


def _per_layer(args, result, run_dir):
    trace = result["trace"]
    if args.workload == "serve-mixed":
        traced = [r for r in result["results"] if r["rid"].startswith("t")]
        traced_ms = [r["ms"] for r in traced if r["path"] == "/search"]
        units, client_ms = len(traced), sum(r["ms"] for r in traced)
    else:
        pairs = list(zip(result["latencies_ms"], result["traced"]))
        traced_ms = [ms for ms, t in pairs if t]
        units, client_ms = len(traced_ms), sum(traced_ms)
    metrics, table = layers.layer_metrics(
        trace, units, traced_ms, _latencies(args, result), client_ms
    )
    if args.workload == "serve-mixed":
        layers.serving_metrics(
            trace, result["results"], result["stats"], metrics
        )
    dump_json(os.path.join(run_dir, "trace.json"),
              chrome_trace(trace["spans"], trace["epoch_ns"], trace["pid"]))
    lines = [f"# per-layer self time, ms per traced "
             f"{'request' if args.workload == 'serve-mixed' else 'op'} "
             f"({units} traced, {client_ms / max(units, 1):.2f} ms each)"]
    lines += [f"layer {name:<14} {ms:10.3f} ms" for name, ms in table.items()]
    lines += [
        f"{name:<36} {value:14.4f} {layers.unit_of(name):<6} "
        f"moves {layers.MOVES[name][0]} on {layers.MOVES[name][1]}"
        for name, value in metrics.items()
    ]
    with open(os.path.join(run_dir, "layers.txt"), "w") as handle:
        handle.write("\n".join(lines) + "\n")
    reported = {
        name: (value, layers.unit_of(name)) for name, value in metrics.items()
    }
    return reported, lines


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run_dir = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    work = os.path.join(run_dir, "work")
    os.makedirs(work)

    calibration_start = calibration_s()
    result = _execute(args, work)
    calibration_end = calibration_s()

    latencies = _latencies(args, result)
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops, {failed} failed")
    if args.trace:
        reported, lines = _per_layer(args, result, run_dir)
        for line in lines:
            print(line)
    else:
        metrics, notes = _end_to_end(args, result, latencies)
        reported = {}
        for name, unit in END_TO_END:
            reported[name] = (metrics[name], unit)
            print(f"{name:<16} {metrics[name]:12.4f} {unit:<4} "
                  f"({notes[name]})")
        if args.workload == "serve-mixed":
            ingest = [
                r["ms"] for r in result["results"] if r["path"] == "/ingest"
            ]
            if ingest:
                print(f"{'ingest_p50_ms':<16} "
                      f"{statistics.median(ingest):12.4f} ms   "
                      f"(n={len(ingest)})")
        print(f"{'error_rate':<16} {failed / max(attempted, 1):12.4f} ratio "
              f"({failed} of {attempted})")
    spread = iqr(latencies)
    median = statistics.median(latencies) if latencies else 0.0
    print(f"# drift: calibration {calibration_start:.3f} s at start, "
          f"{calibration_end:.3f} s at end; latency IQR {spread:.2f} ms "
          f"({spread / median if median else 0.0:.1%} of median)")
    for problem in result["problems"][:20]:
        print(f"# FAIL {problem}")
    correct = not result["problems"]
    dump_json(os.path.join(run_dir, "record.json"), {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "calibration_s": [calibration_start, calibration_end],
        "latency_iqr_ms": spread, "setups_s": result["setups_s"],
        "problems": result["problems"],
        "metrics": {k: v for k, (v, _) in reported.items()},
    })
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in reported.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
