"""Crash-safe file writes — the one atomic-write implementation every
repository file goes through.

Before this module each writer open-coded ``tmp + os.replace``, which
is atomic against *readers* but not durable against *power loss*: the
rename can be on disk before the data blocks, leaving a zero-length or
half-written file under the final name after a crash. The sequence
here is the standard journaling discipline:

1. write the full payload to ``<path>.tmp``,
2. ``fsync`` the temp file (data blocks durable before any rename),
3. ``os.replace`` onto the final name (atomic visibility),
4. ``fsync`` the containing directory (the rename itself durable).

Fault-injection sites (:mod:`repro.faults`) thread through the middle
of the sequence, which is what lets ``tests/test_faults.py`` kill the
process between any two steps and assert the repository's recovery
story instead of trusting it: ``torn`` publishes half the bytes then
kills (the reader must reject the file: a torn artifact no longer
hashes back to its id), ``kill_after`` dies right after the rename
(the next writes never happened), and ``corrupt`` flips one published
byte (bit rot).
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional

from repro import faults


def fsync_directory(directory: str) -> None:
    """Make a rename in ``directory`` durable; best-effort on
    filesystems that reject directory fds."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic fs
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - exotic fs
        pass
    finally:
        os.close(fd)


def _flip_byte(path: str, blob_length: int) -> None:
    """The ``corrupt`` action: invert one byte of the published file."""
    offset = faults.corrupt_offset(blob_length)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]) if byte else b"\xff")


def atomic_write_bytes(
    path: str, blob: bytes, site: Optional[str] = None
) -> None:
    """Write ``blob`` to ``path`` atomically and durably.

    ``site`` names the fault-injection point; ``None`` writes without
    consulting the fault plan (still atomic + fsynced).
    """
    shaping = faults.action(site) if site is not None else None
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as handle:
        if shaping == "torn":
            # Simulate the failure atomic rename alone cannot rule
            # out (a misordering disk publishing half the data):
            # expose the truncated payload under the final name, then
            # die. Only checksums catch this downstream.
            handle.write(blob[: len(blob) // 2])
            handle.flush()
            os.fsync(handle.fileno())
            os.replace(tmp_path, path)
            faults.hard_kill()
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    if shaping == "corrupt":
        _flip_byte(path, len(blob))
    fsync_directory(directory)
    if shaping == "kill_after":
        faults.hard_kill()


def atomic_write_json(
    path: str,
    payload: Any,
    site: Optional[str] = None,
    indent: Optional[int] = 1,
) -> None:
    """Serialize ``payload`` (sorted keys, trailing newline; indented
    unless ``indent`` is None, which writes one line) and write it
    atomically."""
    blob = (
        json.dumps(payload, indent=indent, sort_keys=True) + "\n"
    ).encode("utf-8")
    atomic_write_bytes(path, blob, site=site)
