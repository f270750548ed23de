"""Match-as-a-service: drive the HTTP daemon end to end.

The paper positions Match as "an independent component" other tools
call into; the serving subsystem makes that literal — a daemon other
processes reach over HTTP/JSON. This walkthrough:

1. starts the daemon in-process on an ephemeral port (the same stack
   ``python -m repro serve --repo DIR --port N`` runs standalone) and
   opens one keep-alive connection to it, as a long-lived client
   does — every request below reuses it;
2. ingests a small warehouse corpus over ``POST /ingest``;
3. searches it with a perturbed query over ``POST /search`` — note
   the ``latency_ms`` block, byte-compatible with ``repro search
   --format json``;
4. matches two corpus schemas by repository id over ``POST /match``;
5. reads the operational story from ``GET /stats``: per-endpoint
   p50/p95/p99 latency and queue-wait histograms, in-flight gauges,
   and the cache counters of the session every request runs on. The
   one cached lsim table is the by-id match's: the session caches
   corpus schemas, while a request's own schemas (the search query)
   leave it when the request ends.

Run:  python examples/serving_client.py
"""

import http.client
import json
import tempfile
import threading

from repro import SchemaRepository
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.io.json_io import schema_to_dict
from repro.serving import MatchHTTPServer, MatchService


def call(conn, path, body=None):
    """One request on the open keep-alive connection: GET without a
    body, POST with one."""
    if body is None:
        conn.request("GET", path)
    else:
        conn.request(
            "POST", path, body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
    response = conn.getresponse()
    payload = json.loads(response.read())
    if response.status != 200:
        raise RuntimeError(f"{path}: HTTP {response.status}: {payload}")
    return payload


def main():
    generator = SchemaGenerator(seed=42)
    corpus = [
        generator.generate(name=f"feed{i}", n_leaves=10, max_depth=3)
        for i in range(6)
    ]
    query, _ = SchemaGenerator(seed=7).perturb(
        corpus[2], PerturbationConfig(abbreviate=0.3, synonym=0.2)
    )
    query.name = "incoming-feed"

    # 1. Boot the daemon (port 0 = ephemeral). Standalone equivalent:
    #    python -m repro serve --repo corpus.repo --port 8765
    repo_dir = tempfile.mkdtemp(prefix="serving_example_")
    service = MatchService(SchemaRepository(repo_dir))
    server = MatchHTTPServer(("127.0.0.1", 0), service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    port = server.port
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    print(f"daemon up on http://127.0.0.1:{port}")
    print("health:", call(conn, "/health"))

    # 2. Ingest the corpus in one batch (one manifest write publishes it).
    ingested = call(conn, "/ingest", {
        "schemas": [{"schema": schema_to_dict(s)} for s in corpus],
    })
    print(f"\ningested {len(ingested['ids'])} schemas "
          f"in {ingested['latency_ms']['total_ms']:.1f} ms")

    # 3. Search: serialized-schema body; "text"+"format" (sql/xml/
    #    dtd/oo) works too for raw schema sources.
    found = call(conn, "/search", {
        "schema": schema_to_dict(query), "k": 3, "candidates": 4,
    })
    print(f"\ntop matches for {found['query_schema']!r} "
          f"(latency {found['latency_ms']['total_ms']:.1f} ms, "
          f"match phase {found['latency_ms']['match_ms']:.1f} ms):")
    for rank, match in enumerate(found["matches"], start=1):
        print(f"  {rank}. {match['target_schema']} "
              f"[{match['schema_id']}] score {match['score']:.4f} "
              f"({len(match['elements'])} correspondences)")

    # 4. Match two corpus members by repository id — no schema bytes
    #    cross the wire; the daemon loads its own artifacts.
    pair = call(conn, "/match", {
        "source": {"id": ingested["ids"][0]},
        "target": {"id": ingested["ids"][1]},
    })
    print(f"\nmatch {pair['source_schema']} vs {pair['target_schema']}: "
          f"score {pair['score']:.4f}")

    # 5. Operational readout.
    stats = call(conn, "/stats")
    print("\nper-endpoint latency (ms):")
    for endpoint, snap in stats["endpoints"].items():
        print(f"  {endpoint:8s} count={snap['count']:<3d} "
              f"p50={snap['p50_ms']:<8g} p95={snap['p95_ms']:<8g} "
              f"p99={snap['p99_ms']:<8g} "
              f"queued p50={snap['queue']['p50_ms']:g}")
    session = stats["session_pool"]
    print(f"session: {session['prepare_hits']} prepare hits / "
          f"{session['prepare_misses']} misses; "
          f"{stats['health']['schemas']} schemas in the catalog; "
          f"{session['cached_lsim_pairs']} cached lsim table(s)")

    conn.close()
    server.shutdown()
    server.server_close()
    service.close()
    print("\ndaemon drained and repository flushed")


if __name__ == "__main__":
    main()
