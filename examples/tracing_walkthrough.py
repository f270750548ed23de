"""Observability walkthrough: spans, request ids, metrics, export.

Cupid's pipeline crosses a lot of machinery on one request — HTTP
edge, service session pool, repository index, and match pipeline.
The tracer in :mod:`repro.obs.trace` stitches all of it into one span
tree per request. This walkthrough:

1. arms the tracer (disarmed it costs one ``None``-check per site —
   the same discipline as the fault-injection layer) and runs a
   match, printing the span tree: pipeline stages and TreeMatch
   passes with their compared/pruned/scaled counters;
2. exports the same tree as Chrome trace-event JSON — load it in
   chrome://tracing or https://ui.perfetto.dev;
3. starts the HTTP daemon and sends a ``"trace": true`` search:
   the response carries the request's tree inline, every span
   stamped with the request id from the ``X-Request-Id`` header;
4. scrapes ``GET /metrics`` and shows the Prometheus exposition
   agreeing with ``GET /stats`` — same instruments, one bookkeeping.

Run:  python examples/tracing_walkthrough.py
"""

import json
import tempfile
import threading
import urllib.request

from repro import CupidMatcher, SchemaRepository
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.io.json_io import schema_to_dict
from repro.obs import trace
from repro.serving import MatchHTTPServer, MatchService


def show(node, depth=0, fanout=4):
    counters = ""
    if node.get("counters"):
        counters = "  " + ", ".join(
            f"{k}={v}" for k, v in sorted(node["counters"].items())
        )
    print(
        f"{'  ' * depth}{node['name']:<28} "
        f"{node['wall_ms']:>9.3f} ms{counters}"
    )
    children = node.get("children", ())
    for child in children[:fanout]:
        show(child, depth + 1, fanout)
    if len(children) > fanout:
        print(
            f"{'  ' * (depth + 1)}... (+{len(children) - fanout} more "
            "sibling spans)"
        )


def call(port, path, body=None, headers=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        raw = response.read()
        if response.headers.get_content_type() == "application/json":
            return json.loads(raw)
        return raw.decode()


def main():
    generator = SchemaGenerator(seed=23)
    schema = generator.generate(n_leaves=48, max_depth=3)
    other, _ = generator.perturb(
        schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
    )

    # -- 1. a traced match ------------------------------------------
    trace.arm()
    CupidMatcher().match(schema, other)
    (root,) = trace.take_roots()
    print("== span tree of one match ==")
    show(trace.span_tree(root))

    # -- 2. Chrome trace export --------------------------------------
    with tempfile.NamedTemporaryFile(
        suffix=".json", delete=False
    ) as handle:
        events = trace.write_chrome_trace(handle.name, [root])
    print(
        f"\n== chrome trace ==\n{events} events -> {handle.name}\n"
        "(open in chrome://tracing or ui.perfetto.dev)"
    )

    # -- 3. a traced request through the daemon ----------------------
    with tempfile.TemporaryDirectory() as tmp:
        repository = SchemaRepository(tmp)
        repository.ingest(schema)
        repository.save()
        service = MatchService(repository)
        httpd = MatchHTTPServer(("127.0.0.1", 0), service)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        try:
            response = call(
                httpd.port,
                "/search",
                {
                    "schema": schema_to_dict(other),
                    "k": 1,
                    "trace": True,
                },
                headers={"X-Request-Id": "walkthrough-1"},
            )
            print("\n== traced /search (request id on every span) ==")
            print("request_id:", response["trace"]["request_id"])
            for span in response["trace"]["spans"]:
                show(span)

            stats = call(httpd.port, "/stats")
            exposition = call(httpd.port, "/metrics")
            search_lines = [
                line
                for line in exposition.splitlines()
                if line.startswith("repro_request_latency_seconds_count")
            ]
            print("\n== /metrics vs /stats (same instruments) ==")
            print("\n".join(search_lines))
            print(
                "stats search count:",
                stats["endpoints"]["search"]["count"],
            )
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.close()


if __name__ == "__main__":
    main()
