"""Serving throughput: sustained QPS and tail latency under mixed load.

The serving subsystem's bet is that one compute thread behind
admission control can sustain concurrent search traffic *while the
corpus is being ingested* without torn reads or tail-latency
collapse. This benchmark prices that bet:

* **search clients** — ``N_CLIENTS`` threads each issuing
  ``SEARCHES_PER_CLIENT`` top-k searches through the
  :class:`~repro.serving.MatchService`;
* **ingest writer** — one thread feeding the remaining corpus through
  ``service.ingest`` (one artifact and one manifest write per batch)
  while the searches run.

Reported: sustained search QPS, client-observed p50/p95/p99, the
service's own latency and queue-wait histograms (what ``/stats``
serves), and a
post-run parity check — after the dust settles, a search through the
index the manifest's catalog profiles rebuild must be bit-identical to
one over profiles re-derived from the artifact files. Results go to
``benchmarks/results/BENCH_serving.json``.

The service runs one request at a time, so the interesting numbers
here are *tail latency under contention* (how long a request waits
for the compute thread) and *consistency under concurrent mutation*,
not a QPS scale-up with clients. ``cpu_count`` is recorded alongside
every figure.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile
import threading
import time

from repro import SchemaRepository
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.eval.reporting import render_table
from repro.repository.store import MANIFEST_FILE
from repro.serving import MatchService

#: Corpus: PRELOADED schemas ingested before traffic starts, INGESTED
#: more fed concurrently with the search load.
PRELOADED = 16
INGESTED = 8

N_CLIENTS = 4
SEARCHES_PER_CLIENT = 25
K = 3
CANDIDATES = 6


def _corpus():
    generator = SchemaGenerator(seed=900)
    return [
        generator.generate(
            name=f"serve{i:02d}",
            n_leaves=10 + (i % 3) * 4,
            max_depth=3,
            name_repetition=0.4,
        )
        for i in range(PRELOADED + INGESTED)
    ]


def _queries(corpus, n=4):
    queries = []
    for i in range(n):
        perturber = SchemaGenerator(seed=7000 + i)
        query, _ = perturber.perturb(
            corpus[i],
            PerturbationConfig(abbreviate=0.3, synonym=0.25),
        )
        query.name = f"query{i}"
        queries.append(query)
    return queries


def _search_signature(search):
    return [
        (
            m.schema_id,
            m.score,
            sorted(
                (e.source_path, e.target_path, e.similarity)
                for e in m.result.leaf_mapping
            ),
        )
        for m in search
    ]


def _pct(latencies, fraction):
    ordered = sorted(latencies)
    rank = max(0, min(len(ordered) - 1,
                      round(fraction * len(ordered)) - 1))
    return ordered[rank]


def test_serving_throughput(publish, results_dir):
    corpus = _corpus()
    queries = _queries(corpus)
    root = tempfile.mkdtemp(prefix="bench_serving_")
    try:
        repository = SchemaRepository(root)
        for schema in corpus[:PRELOADED]:
            repository.ingest(schema)
        repository.save()

        latencies = []
        latency_lock = threading.Lock()
        errors = []
        with MatchService(repository, queue_depth=256) as service:

            def search_client(client):
                mine = []
                try:
                    for i in range(SEARCHES_PER_CLIENT):
                        query = queries[(client + i) % len(queries)]
                        start = time.perf_counter()
                        service.search(query, k=K, candidates=CANDIDATES)
                        mine.append(time.perf_counter() - start)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                with latency_lock:
                    latencies.extend(mine)

            def ingest_writer():
                try:
                    for schema in corpus[PRELOADED:]:
                        service.ingest(schema)
                        time.sleep(0.01)  # spread across the window
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=search_client, args=(c,))
                for c in range(N_CLIENTS)
            ] + [threading.Thread(target=ingest_writer)]
            window_start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            window = time.perf_counter() - window_start
            service_stats = service.stats()
        assert not errors, errors

        total_searches = N_CLIENTS * SEARCHES_PER_CLIENT
        assert len(latencies) == total_searches
        qps = total_searches / window

        # Post-run parity: the index the manifest's catalog profiles
        # rebuild must answer searches bit-identically to one whose
        # profiles were re-derived from the artifact files.
        settled = SchemaRepository.open(root)
        assert len(settled) == PRELOADED + INGESTED
        manifest_path = os.path.join(root, MANIFEST_FILE)
        manifest_bytes = os.path.getsize(manifest_path)
        settled_sigs = [
            _search_signature(settled.search(q, k=K, candidates=CANDIDATES))
            for q in queries
        ]
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        for entry in manifest["schemas"].values():
            del entry["profile"]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        rebuilt = SchemaRepository.open(root)
        assert rebuilt.cache_info()["index_rebuilds"] == 1
        parity = settled_sigs == [
            _search_signature(rebuilt.search(q, k=K, candidates=CANDIDATES))
            for q in queries
        ]
        assert parity, "catalog index diverged from re-derived profiles"
    finally:
        shutil.rmtree(root, ignore_errors=True)

    client_p50 = _pct(latencies, 0.50) * 1000.0
    client_p95 = _pct(latencies, 0.95) * 1000.0
    client_p99 = _pct(latencies, 0.99) * 1000.0
    mean_ms = statistics.fmean(latencies) * 1000.0
    search_hist = service_stats["endpoints"]["search"]
    ingest_hist = service_stats["endpoints"]["ingest"]

    rows = [
        ["search", str(total_searches), f"{mean_ms:.1f} ms",
         f"{client_p50:.1f} ms", f"{client_p99:.1f} ms"],
        ["ingest (concurrent)", str(ingest_hist["count"]),
         f"{ingest_hist['mean_ms']:.1f} ms",
         f"{ingest_hist['p50_ms']:.1f} ms",
         f"{ingest_hist['p99_ms']:.1f} ms"],
    ]
    publish(
        "serving_throughput",
        render_table(
            ["Endpoint", "Requests", "Mean", "p50", "p99"],
            rows,
            title=(
                f"Mixed serving load: {qps:.1f} search QPS over "
                f"{N_CLIENTS} clients + concurrent ingest "
                f"(search queue wait p50 "
                f"{search_hist['queue']['p50_ms']:.1f} ms, "
                f"cpu_count={os.cpu_count()})"
            ),
        ),
    )

    record = {
        "corpus_preloaded": PRELOADED,
        "corpus_ingested_concurrently": INGESTED,
        "n_clients": N_CLIENTS,
        "searches_per_client": SEARCHES_PER_CLIENT,
        "k": K,
        "candidates": CANDIDATES,
        "cpu_count": os.cpu_count(),
        "window_s": round(window, 3),
        "search_qps": round(qps, 2),
        "client_latency_ms": {
            "mean": round(mean_ms, 3),
            "p50": round(client_p50, 3),
            "p95": round(client_p95, 3),
            "p99": round(client_p99, 3),
        },
        "service_histogram_search": search_hist,
        "service_histogram_ingest": ingest_hist,
        "manifest_bytes_after_run": manifest_bytes,
        "rebuild_parity": parity,
    }
    with open(
        os.path.join(results_dir, "BENCH_serving.json"), "w"
    ) as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
