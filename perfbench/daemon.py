"""Traced ``repro serve`` launcher; runs in the daemon's own process.

Installs the benchmark's span wrappers (:mod:`spans`) into the program
and then hands over to the program's own entry point,
``repro.cli.main(["serve", ...])``. Spans stay in memory until the
daemon shuts down, then go to the file named by the first argument.

Usage: ``python perfbench/daemon.py SPANS.json serve --repo DIR --port 0``
"""

from __future__ import annotations

import os
import sys

from common import dump_json
from repro import cli
from spans import Recorder, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    try:
        return cli.main(argv)
    finally:
        dump_json(spans_path, {
            "spans": recorder.spans,
            "counts": dict(recorder.counts),
            "epoch_ns": recorder.epoch_ns,
            "pid": os.getpid(),
        })


if __name__ == "__main__":
    sys.exit(main())
