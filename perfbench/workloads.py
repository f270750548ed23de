"""Seeded inputs for the three workloads.

Everything a run feeds the program is generated here from ``--seed``
and written as files or serialized request bodies before any timing
starts; the program only ever sees those generated inputs.

* ``match-context`` — a 192-leaf schema against its perturbed copy
  (abbreviations and synonyms). Related pairs cross ``thhigh``, so
  cinc/cdec scaling writes most of the similarity plane and TreeMatch
  dominates; the store is flat (both sides below 512 leaves).
* ``match-wide`` — unrelated, asymmetric pairs: one 768-leaf depth-4
  mediated schema against 40-leaf sources. The large side crosses the
  512-leaf ``store=auto`` threshold, so the blocked store runs, and
  leaf-count pruning engages.
* ``serve-mixed`` — a 64-schema corpus (8–23 leaves each), searches
  whose queries are perturbed corpus members, and about one ingest of
  a new schema in ten requests.

The match workloads' schemas have a fixed shape (fan-out per level)
and seeded names, types and optional flags. Random shapes made one
pair's op cost vary ±20% between seeds, which swamped run-to-run
comparisons; with the shape fixed, the seed still changes every name
the linguistic and structural phases see.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Dict, List, Sequence

from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.io.json_io import schema_to_dict, schema_to_json
from repro.model.builder import SchemaBuilder
from repro.model.datatypes import DataType

#: Fan-out per level below the root; the last entry is leaves per
#: innermost element.
CONTEXT_SHAPE = (4, 6, 8)
CONTEXT_PAIRS = 3
WIDE_MEDIATED_SHAPE = (4, 4, 6, 8)
WIDE_SOURCE_SHAPE = (5, 8)
WIDE_SOURCES = 3

CORPUS_SIZE = 64
QUERY_COUNT = 48
#: Requests in the fixed sequence; far more than a run can send, so
#: every run issues a prefix of the same sequence.
REQUESTS = 4000
INGEST_SHARE = 0.1
SEARCH_K = 3
SEARCH_CANDIDATES = 4

#: Business words the bundled thesaurus knows, plus neutral filler.
WORDS = (
    "order", "customer", "product", "invoice", "payment", "address",
    "street", "city", "state", "country", "phone", "email", "name",
    "date", "quantity", "price", "amount", "discount", "region",
    "territory", "employee", "brand", "category", "supplier", "unit",
    "code", "status", "type", "line", "detail", "total", "tax",
    "shipment", "account", "contact", "number", "description",
)
LEAF_TYPES = (
    DataType.STRING, DataType.INTEGER, DataType.DECIMAL, DataType.DATE,
    DataType.BOOLEAN, DataType.MONEY, DataType.IDENTIFIER,
)


def _seeds(seed: int, salt: str, n: int) -> List[int]:
    rng = random.Random(f"{salt}:{seed}")
    return [rng.randrange(1 << 30) for _ in range(n)]


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def shaped_schema(seed: int, name: str, shape: Sequence[int]):
    """A schema with the given fan-out per level and seeded content.

    Names are one to three words, unique as word multisets across the
    schema (so a perturbed copy's gold mapping is unambiguous); leaves
    get a seeded type and are optional one time in five.
    """
    rng = random.Random(seed)
    builder = SchemaBuilder(name)
    used = set()

    def fresh() -> str:
        while True:
            count = rng.choice((1, 2, 2, 3))
            words = [rng.choice(WORDS) for _ in range(count)]
            key = tuple(sorted(words))
            if key not in used:
                used.add(key)
                return "".join(word.capitalize() for word in words)

    def fill(parent, depth: int) -> None:
        for _ in range(shape[depth]):
            if depth == len(shape) - 1:
                builder.add_leaf(
                    parent, fresh(), rng.choice(LEAF_TYPES),
                    optional=rng.random() < 0.2,
                )
            else:
                fill(builder.add_child(parent, fresh()), depth + 1)

    fill(builder.root, 0)
    return builder.schema


def match_context(seed: int, directory: str) -> List[Dict[str, Any]]:
    """Related pairs with the generator's gold mapping."""
    pairs = []
    perturbation = PerturbationConfig(
        abbreviate=0.3, synonym=0.3, prefix_suffix=0.0, retype=0.0
    )
    for i, s in enumerate(_seeds(seed, "context", CONTEXT_PAIRS)):
        base = shaped_schema(s, f"context{i}", CONTEXT_SHAPE)
        copy, gold = SchemaGenerator(s + 1).perturb(base, perturbation)
        pairs.append({
            "source": _write(
                os.path.join(directory, f"context{i}.json"),
                schema_to_json(base),
            ),
            "target": _write(
                os.path.join(directory, f"context{i}_copy.json"),
                schema_to_json(copy),
            ),
            "gold": [[".".join(a), ".".join(b)] for a, b in gold],
        })
    return pairs


def match_wide(seed: int, directory: str) -> List[Dict[str, Any]]:
    """One large mediated schema against several small unrelated ones."""
    seeds = _seeds(seed, "wide", WIDE_SOURCES + 1)
    mediated = _write(
        os.path.join(directory, "mediated.json"),
        schema_to_json(
            shaped_schema(seeds[0], "mediated", WIDE_MEDIATED_SHAPE)
        ),
    )
    pairs = []
    for i, s in enumerate(seeds[1:]):
        pairs.append({
            "source": mediated,
            "target": _write(
                os.path.join(directory, f"source{i}.json"),
                schema_to_json(
                    shaped_schema(s, f"source{i}", WIDE_SOURCE_SHAPE)
                ),
            ),
            "gold": None,
        })
    return pairs


def _small_schema(seed: int, name: str):
    rng = random.Random(seed)
    return SchemaGenerator(seed).generate(
        name=name, n_leaves=rng.randint(8, 23), max_depth=3
    )


def serve_mixed(seed: int, directory: str) -> Dict[str, Any]:
    """Corpus files plus the fixed request sequence.

    Each search body is a perturbed corpus member; its expected top-1
    is that member's file (mapped to a repository id once the corpus
    is indexed). Each ingest body carries one schema no earlier
    request has sent.
    """
    corpus_dir = os.path.join(directory, "corpus")
    os.makedirs(corpus_dir, exist_ok=True)
    corpus = []
    for i, s in enumerate(_seeds(seed, "corpus", CORPUS_SIZE)):
        schema = _small_schema(s, f"corpus{i:02d}")
        corpus.append(schema)
        _write(
            os.path.join(corpus_dir, f"corpus{i:02d}.json"),
            schema_to_json(schema),
        )
    perturbation = PerturbationConfig(abbreviate=0.3, synonym=0.25)
    queries = []
    for i, s in enumerate(_seeds(seed, "query", QUERY_COUNT)):
        member = (i * CORPUS_SIZE) // QUERY_COUNT
        query, _ = SchemaGenerator(s).perturb(corpus[member], perturbation)
        query.name = f"query{i:02d}"
        queries.append((member, json.dumps({
            "schema": schema_to_dict(query),
            "k": SEARCH_K,
            "candidates": SEARCH_CANDIDATES,
        }).encode("utf-8")))
    rng = random.Random(f"sequence:{seed}")
    ingest_seeds = _seeds(seed, "ingest", REQUESTS)
    requests = []
    for i in range(REQUESTS):
        if i and rng.random() < INGEST_SHARE:
            schema = _small_schema(ingest_seeds[i], f"ingest{i:04d}")
            body = json.dumps(
                {"schemas": [{"schema": schema_to_dict(schema)}]}
            ).encode("utf-8")
            requests.append(("/ingest", body, None))
        else:
            member, body = queries[rng.randrange(QUERY_COUNT)]
            requests.append(("/search", body, f"corpus{member:02d}.json"))
    return {"corpus_dir": corpus_dir, "requests": requests}
