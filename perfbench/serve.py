"""Runs ``serve-mixed``: ``repro serve`` under keep-alive load.

The corpus is indexed with the program's own ``repro index`` before
anything is timed. Each set-up sample starts a daemon on a fresh copy
of that repository — ``repro serve`` with only ``--repo`` and
``--port 0`` — and times spawn → listening → first search answered.
The last daemon then serves the timed window: one load process (this
one) holds ``CONNECTIONS`` keep-alive HTTP/1.1 connections in a closed
loop, because callers wait for replies, and sends a prefix of the
workload's fixed request sequence. Responses are validated after the
window; after shutdown the repository must pass ``repro verify`` and
hold every acknowledged ingest.

Ingests never overlap searches: the load process holds an ingest until
in-flight searches finish, and starts no search while it runs. An
ingest's repository save exports the linguistic memo, which searches
mutate without a lock; overlapping them fails about one ingest in a
hundred with HTTP 500 ("dictionary changed size during iteration").
Until the program fixes that race, the write traffic is interleaved
with the reads rather than concurrent with them.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import HERE, ROOT, load_json, program_env, vm_hwm_mb

DAEMON = os.path.join(HERE, "daemon.py")
MATCHOP = os.path.join(HERE, "matchop.py")
SETUPS = 3
#: Closed-loop clients; matches the 2 cores the benchmark was sized on.
CONNECTIONS = 2
#: The daemon's peak RSS is read once this many requests completed: it
#: grows with every search, so both commits must compare equal work.
RSS_AFTER_REQUESTS = 200
HOST = "127.0.0.1"


class Daemon:
    """One ``repro serve`` process and its stderr drain."""

    def __init__(self, repo: str, spans_path: Optional[str]) -> None:
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, DAEMON, spans_path, "serve"]
        command += ["--repo", repo, "--port", "0"]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=program_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.stderr: List[str] = []
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)
            self._lines.put(line)
        self._lines.put("")

    def wait_listening(self, timeout: float = 90.0) -> int:
        """Block until the daemon announces its port; return it."""
        deadline = time.monotonic() + timeout
        while True:
            line = self._lines.get(
                timeout=max(0.1, deadline - time.monotonic())
            )
            if not line:
                raise RuntimeError(
                    "daemon exited before listening: "
                    + "".join(self.stderr[-20:])
                )
            if line.startswith("serving ") and " on http://" in line:
                address = line.split(" on http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])

    def stop(self, timeout: float = 60.0) -> int:
        """Graceful shutdown (SIGTERM drains and flushes); returns the
        exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._drain.join(timeout=10.0)
            self.proc.stderr.close()
        return self.proc.returncode


def _post(conn, path: str, body: bytes, rid: Optional[str] = None):
    headers = {"Content-Type": "application/json"}
    if rid is not None:
        headers["X-Request-Id"] = rid
    conn.request("POST", path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def index_corpus(corpus_dir: str, repo: str) -> Dict[str, str]:
    """``repro index`` the corpus; returns corpus file name -> id."""
    out = subprocess.run(
        [sys.executable, "-m", "repro", "index", corpus_dir, "--repo", repo],
        cwd=ROOT, env=program_env(), check=True, capture_output=True,
        text=True, timeout=170,
    ).stdout
    ids = {}
    for line in out.splitlines():
        if "  <-  " in line:
            schema_id, path = line.split("  <-  ")
            ids[os.path.basename(path.strip())] = schema_id.strip()
    return ids


def start_daemon(pristine: str, repo: str, first_body: bytes,
                 spans_path: Optional[str]) -> Tuple[Daemon, int, float]:
    """Set-up sample: spawn → listening → first search answered."""
    shutil.copytree(pristine, repo)
    began = time.perf_counter()
    daemon = Daemon(repo, spans_path)
    try:
        port = daemon.wait_listening()
        conn = http.client.HTTPConnection(HOST, port, timeout=120)
        try:
            status, _ = _post(conn, "/search", first_body)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"first search answered {status}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, port, time.perf_counter() - began


class _IngestExclusion:
    """Readers-writer gate: searches share, an ingest runs alone, and a
    waiting ingest holds back new searches so it cannot starve."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._searches = 0
        self._ingesting = False
        self._waiting = 0

    def acquire(self, ingest: bool) -> None:
        with self._cond:
            if ingest:
                self._waiting += 1
                self._cond.wait_for(
                    lambda: not self._ingesting and not self._searches
                )
                self._waiting -= 1
                self._ingesting = True
            else:
                self._cond.wait_for(
                    lambda: not self._ingesting and not self._waiting
                )
                self._searches += 1

    def release(self, ingest: bool) -> None:
        with self._cond:
            if ingest:
                self._ingesting = False
            else:
                self._searches -= 1
            self._cond.notify_all()


def drive(port: int, pid: int, requests: List[Tuple], seconds: float,
          trace: bool) -> Dict[str, Any]:
    """Closed-loop load over keep-alive connections for ``seconds``."""
    counter = itertools.count()
    lock = threading.Lock()
    records: List[Tuple] = []
    rss: Dict[str, float] = {}
    exclusive = _IngestExclusion()
    start = time.perf_counter()

    def client() -> None:
        conn = http.client.HTTPConnection(HOST, port, timeout=120)
        try:
            while time.perf_counter() - start < seconds:
                i = next(counter)
                if i >= len(requests):
                    break
                path, body, _ = requests[i]
                traced = trace and i % 2 == 1
                rid = f"{'t' if traced else 'u'}{i:06d}"
                ingest = path == "/ingest"
                exclusive.acquire(ingest)
                began = time.perf_counter()
                try:
                    status, data = _post(conn, path, body, rid)
                except (OSError, http.client.HTTPException) as exc:
                    status, data = 0, repr(exc).encode()
                    conn.close()
                    conn = http.client.HTTPConnection(HOST, port, timeout=120)
                finally:
                    ended = time.perf_counter()
                    exclusive.release(ingest)
                with lock:
                    records.append((i, rid, began, ended, status, data))
                    if len(records) == RSS_AFTER_REQUESTS:
                        rss["mb"] = vm_hwm_mb(pid)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window = max(ended for _, _, _, ended, _, _ in records) - start
    if "mb" not in rss:
        rss["mb"] = vm_hwm_mb(pid)
    return {
        "records": sorted(records),
        "window_s": window,
        "rss_mb": rss["mb"],
        "rss_after": min(RSS_AFTER_REQUESTS, len(records)),
    }


def check(requests: List[Tuple], records: List[Tuple],
          ids_by_file: Dict[str, str]) -> Tuple[List, List, List]:
    """Validate responses after the window.

    Returns per-request results, the problems found, and the ingest ids
    the daemon acknowledged. A non-2xx status, a transport error, or a
    search whose top-1 is not the corpus schema its query was perturbed
    from each fail that request.
    """
    results, problems, acknowledged = [], [], []
    for i, rid, began, ended, status, data in records:
        path, _, expected = requests[i]
        entry = {"i": i, "rid": rid, "path": path,
                 "ms": (ended - began) * 1000.0, "ok": False}
        results.append(entry)
        if not 200 <= status < 300:
            problems.append(
                f"request {rid} {path}: status {status}: {data[:300]!r}"
            )
            continue
        try:
            payload = json.loads(data)
        except ValueError:
            problems.append(f"request {rid} {path}: response is not JSON")
            continue
        if path == "/ingest":
            acknowledged.extend(payload.get("ids", []))
            entry["ok"] = bool(payload.get("ids"))
        else:
            matches = payload.get("matches") or [{}]
            top = matches[0].get("schema_id")
            entry["ok"] = top == ids_by_file[expected]
            entry["stats"] = payload.get("stats", {})
        if not entry["ok"]:
            problems.append(f"request {rid} {path}: wrong answer")
    return results, problems, acknowledged


def run_serve(inputs: Dict[str, Any], seconds: int, trace: bool,
              work: str) -> Dict[str, Any]:
    requests = inputs["requests"]
    pristine = os.path.join(work, "pristine")
    ids_by_file = index_corpus(inputs["corpus_dir"], pristine)
    spans_path = os.path.join(work, "daemon-spans.json") if trace else None

    setups = []
    for k in range(SETUPS - 1):
        daemon, _, setup = start_daemon(
            pristine, os.path.join(work, f"repo{k}"), requests[0][1], None
        )
        setups.append(setup)
        daemon.stop()
    repo = os.path.join(work, "repo")
    daemon, port, setup = start_daemon(
        pristine, repo, requests[0][1], spans_path
    )
    setups.append(setup)
    try:
        load = drive(port, daemon.proc.pid, requests, seconds, trace)
        stats = None
        if trace:
            conn = http.client.HTTPConnection(HOST, port, timeout=60)
            try:
                conn.request("GET", "/stats")
                stats = json.loads(conn.getresponse().read())
            finally:
                conn.close()
    finally:
        exit_code = daemon.stop()

    results, problems, acknowledged = check(
        requests, load["records"], ids_by_file
    )
    failed = sum(1 for entry in results if not entry["ok"])
    if exit_code != 0:
        problems.append(f"daemon exited {exit_code} after SIGTERM")
        failed += 1
    verify = subprocess.run(
        [sys.executable, "-m", "repro", "verify", "--repo", repo],
        cwd=ROOT, env=program_env(), capture_output=True, text=True,
        timeout=170,
    )
    if verify.returncode != 0:
        problems.append(
            f"repro verify exited {verify.returncode}: {verify.stderr[-500:]}"
        )
        failed += 1
    present = set(json.loads(subprocess.run(
        [sys.executable, MATCHOP, "repo-ids", "--repo", repo],
        cwd=ROOT, env=program_env(), check=True, capture_output=True,
        text=True, timeout=120,
    ).stdout))
    missing = sorted(set(acknowledged) - present)
    if missing:
        problems.append(f"acknowledged ingests missing: {missing[:5]}")
        failed += 1
    return {
        "setups_s": setups,
        "results": results,
        "window_s": load["window_s"],
        "rss_mb": load["rss_mb"],
        "rss_after": load["rss_after"],
        "attempted": len(results),
        "failed": failed,
        "problems": problems,
        "stats": stats,
        "trace": load_json(spans_path) if trace else None,
    }
