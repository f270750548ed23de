"""Repository top-k search: candidate pruning recall vs brute force.

The repository subsystem's bet is that an inverted vocabulary index
can dismiss most of a corpus before TreeMatch ever runs. This
benchmark prices that bet on a generated corpus of schema *families*
(a base schema plus perturbed siblings — the shape of real catalogs,
where feeds and revisions of the same source accumulate):

* **brute force** — ``search(query, k)`` over every corpus schema
  (the ground truth, equivalent to ``match_many`` over the corpus);
* **pruned** — ``search(query, k, candidates=C)`` with C = 25% of the
  corpus: the index ranks all schemas, the pipeline matches only the
  top C.

Acceptance (ISSUE 5): recall@k >= 0.95 against brute force while
matching <= 25% of the corpus, on a >= 64-schema corpus — and a
reopened (persisted) repository must return bit-identical results to
the in-memory pass. Results go to
``benchmarks/results/BENCH_repository.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

from repro import SchemaRepository
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.eval.reporting import render_table

#: Corpus shape: FAMILIES base schemas, each with VARIANTS perturbed
#: siblings ingested alongside it.
FAMILIES = 16
VARIANTS = 3
CORPUS_SIZE = FAMILIES * (1 + VARIANTS)  # 64

#: Queries: fresh perturbations of the first N_QUERIES family bases.
N_QUERIES = 6

#: Search depth and candidate budget (25% of the corpus).
K = 4
CANDIDATES = CORPUS_SIZE // 4

#: Acceptance floors.
REQUIRED_RECALL = 0.95
MAX_MATCHED_FRACTION = 0.25


def _perturbation() -> PerturbationConfig:
    return PerturbationConfig(
        abbreviate=0.3, synonym=0.25, prefix_suffix=0.1, retype=0.05
    )


def _build_corpus():
    """FAMILIES × (base + VARIANTS perturbed siblings), varied sizes."""
    corpus = []
    for family in range(FAMILIES):
        generator = SchemaGenerator(seed=1000 + family)
        base = generator.generate(
            name=f"family{family:02d}",
            n_leaves=16 + (family % 4) * 6,
            max_depth=3,
            name_repetition=0.4,
        )
        corpus.append(base)
        for variant in range(VARIANTS):
            perturber = SchemaGenerator(seed=2000 + family * 10 + variant)
            sibling, _ = perturber.perturb(base, _perturbation())
            sibling.name = f"family{family:02d}v{variant}"
            corpus.append(sibling)
    return corpus


def _build_queries(corpus):
    queries = []
    for i in range(N_QUERIES):
        base = corpus[i * (1 + VARIANTS)]
        perturber = SchemaGenerator(seed=5000 + i)
        query, _ = perturber.perturb(base, _perturbation())
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


def test_repository_search_recall(publish, results_dir):
    corpus = _build_corpus()
    queries = _build_queries(corpus)
    root = tempfile.mkdtemp(prefix="bench_repository_")
    try:
        ingest_start = time.perf_counter()
        with SchemaRepository(root) as repo:
            for schema in corpus:
                repo.ingest(schema)
        ingest_time = time.perf_counter() - ingest_start
        assert len(SchemaRepository.open(root)) == CORPUS_SIZE

        repo = SchemaRepository.open(root)
        per_query = []
        brute_total = 0.0
        pruned_total = 0.0
        recall_sum = 0.0
        pruned_signatures = []
        for query in queries:
            start = time.perf_counter()
            brute = repo.search(query, k=K)
            brute_total += time.perf_counter() - start

            start = time.perf_counter()
            pruned = repo.search(query, k=K, candidates=CANDIDATES)
            pruned_total += time.perf_counter() - start
            pruned_signatures.append(_search_signature(pruned))

            truth = {m.schema_id for m in brute}
            found = {m.schema_id for m in pruned}
            recall = len(truth & found) / K
            recall_sum += recall
            per_query.append({
                "query": query.name,
                "recall_at_k": recall,
                "top_brute": [m.schema_id for m in brute],
                "top_pruned": [m.schema_id for m in pruned],
                "pruned_stats": pruned.stats,
            })
        repo.save()
        recall_at_k = recall_sum / len(queries)
        matched_fraction = CANDIDATES / CORPUS_SIZE

        # Persistence parity: a brand-new repository object over the
        # same directory (simulating a fresh process: every candidate
        # is loaded from its artifact and prepared again) must
        # reproduce the pruned searches bit-identically.
        reopened = SchemaRepository.open(root)
        reopen_start = time.perf_counter()
        reopen_identical = all(
            _search_signature(
                reopened.search(query, k=K, candidates=CANDIDATES)
            ) == signature
            for query, signature in zip(queries, pruned_signatures)
        )
        reopen_time = time.perf_counter() - reopen_start
    finally:
        shutil.rmtree(root, ignore_errors=True)

    brute_ms = brute_total / len(queries) * 1000.0
    pruned_ms = pruned_total / len(queries) * 1000.0
    reopen_ms = reopen_time / len(queries) * 1000.0
    rows = [
        ["brute force (match all)", CORPUS_SIZE, f"{brute_ms:.1f} ms",
         "1.000"],
        [f"index-pruned (top {CANDIDATES})", CANDIDATES,
         f"{pruned_ms:.1f} ms", f"{recall_at_k:.3f}"],
        ["index-pruned, reopened repo", CANDIDATES,
         f"{reopen_ms:.1f} ms",
         "bit-identical" if reopen_identical else "DIFFERS"],
    ]
    publish(
        "repository_search",
        render_table(
            ["Search strategy", "Schemas matched", "Per query",
             "Recall@k"],
            rows,
            title=(
                f"Top-{K} repository search over {CORPUS_SIZE} schemas "
                f"({len(queries)} queries, candidates={CANDIDATES})"
            ),
        ),
    )

    record = {
        "corpus_size": CORPUS_SIZE,
        "families": FAMILIES,
        "variants_per_family": VARIANTS,
        "n_queries": len(queries),
        "k": K,
        "candidates": CANDIDATES,
        "matched_fraction": matched_fraction,
        "recall_at_k": round(recall_at_k, 4),
        "required_recall": REQUIRED_RECALL,
        "max_matched_fraction": MAX_MATCHED_FRACTION,
        "ingest_s": round(ingest_time, 3),
        "brute_force_ms_per_query": round(brute_ms, 2),
        "pruned_ms_per_query": round(pruned_ms, 2),
        "reopened_ms_per_query": round(reopen_ms, 2),
        "speedup_vs_brute": round(brute_ms / pruned_ms, 2),
        "reopen_bit_identical": reopen_identical,
        "per_query": per_query,
    }
    json_path = os.path.join(results_dir, "BENCH_repository.json")
    with open(json_path, "w") as handle:
        json.dump(record, handle, indent=2)
    print(f"[written to {json_path}]")

    assert matched_fraction <= MAX_MATCHED_FRACTION
    assert recall_at_k >= REQUIRED_RECALL, (
        f"pruned search recall@{K} {recall_at_k:.3f} below the "
        f"{REQUIRED_RECALL} floor while matching "
        f"{matched_fraction:.0%} of the corpus"
    )
    assert reopen_identical, (
        "reopened repository search differs from the in-memory pass"
    )
