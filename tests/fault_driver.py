"""Subprocess driver for the crash sweep in ``tests/test_faults.py``.

Runs a deterministic ingest workload against a repository while the
fault plan inherited through ``REPRO_FAULTS`` decides where to crash.
The protocol is one line per step on stdout, flushed before the next
fallible call, so the parent can reconstruct how far the driver got
no matter where it died::

    ready                       baseline manifest durable
    intent <id>                 about to ingest <id>
    ingested <id>               ingest returned (artifact durable)
    committed <id>              save returned (<id> manifest-published)
    searched                    a search over the corpus returned
    done                        workload complete

Ids are computed *before* ingesting (they are content-addressed, so
the parent and the driver derive the same id from the same generated
schema), which is what lets the parent bound the reopened corpus:
``committed`` ids must all be visible, and nothing outside the
``intent`` ids may be.

The corpus is a pure function of the seed argument — the parent
regenerates it to build the expected-results scratch repository.
"""

from __future__ import annotations

import sys

from repro.datasets.generator import SchemaGenerator
from repro.repository.artifacts import (
    canonical_schema_dict,
    schema_fingerprint,
)
from repro.repository.store import SchemaRepository, _slug

#: Schemas per driver run; fault hit numbers in the sweep specs are
#: chosen against this timeline (see test_faults.py).
CORPUS_SIZE = 5


def expected_id(schema) -> str:
    fingerprint = schema_fingerprint(canonical_schema_dict(schema))
    return f"{_slug(schema.name)}-{fingerprint[:12]}"


def corpus(seed: int):
    generator = SchemaGenerator(seed=seed)
    return [
        generator.generate(
            name=f"crash{i}", n_leaves=12, name_repetition=0.5
        )
        for i in range(CORPUS_SIZE)
    ]


def main() -> int:
    root, corpus_seed = sys.argv[1], int(sys.argv[2])
    repo = SchemaRepository(root)
    # Baseline manifest (repo.manifest hit 1) so even a kill during
    # the very first ingest leaves an openable repository behind.
    repo.save()
    print("ready", flush=True)
    schemas = corpus(corpus_seed)
    for schema in schemas:
        schema_id = expected_id(schema)
        print(f"intent {schema_id}", flush=True)
        repo.ingest(schema)
        print(f"ingested {schema_id}", flush=True)
        repo.save()
        print(f"committed {schema_id}", flush=True)
    # The search matches the schemas ingest cached in memory and
    # writes nothing, so every crash point the sweep specs name lies
    # in an ingest or a save.
    repo.search(schemas[0], k=2)
    print("searched", flush=True)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
