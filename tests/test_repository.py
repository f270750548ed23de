"""Schema repository: artifact round-trips, search parity, corruption.

The repository's contract is bit-parity: a schema ingested, persisted,
and restored in a (simulated) new process must drive the pipeline to
exactly the results a freshly-prepared schema produces — same lsim,
same wsim, same mappings, same search ranking. The corruption tests
hold the other half of the contract: anything structurally wrong on
disk surfaces as :class:`RepositoryError` with a readable message,
never as pickle/JSON shrapnel or silently different results.
"""

from __future__ import annotations

import json
import os
import random
import shutil

import pytest

from repro import CupidConfig, MatchSession, SchemaRepository
from repro.cli import load_schema
from repro.datasets.figure2 import figure2_po, figure2_purchase_order
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.datasets.rdb_star import rdb_schema, star_schema
from repro.exceptions import ArtifactError, RepositoryError
from repro.repository import (
    FORMAT_VERSION,
    VocabularyIndex,
    prepared_from_dict,
    prepared_to_dict,
    token_profile,
)
from repro.repository.store import MANIFEST_FILE, SCHEMAS_DIR, match_score

#: A repository written by a build that stored every prepared tier in
#: its artifacts and the memo's token tier in ``simcache.json``
#: (see TestTieredRepository).
TIERED_FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "tiered_repo"
)


def _mapping_signature(result):
    leaf = sorted(
        (e.source_path, e.target_path, e.similarity)
        for e in result.leaf_mapping
    )
    nonleaf = sorted(
        (e.source_path, e.target_path, e.similarity)
        for e in result.nonleaf_mapping
    )
    return leaf, nonleaf


def _search_signature(search):
    return [
        (m.schema_id, m.score, _mapping_signature(m.result))
        for m in search
    ]


def _corpus(n=6, size=18, seed=3):
    generator = SchemaGenerator(seed=seed)
    return [
        generator.generate(
            name=f"corpus{i}", n_leaves=size, name_repetition=0.5
        )
        for i in range(n)
    ]


def _query_for(schema, seed=97):
    perturbed, _ = SchemaGenerator(seed=seed).perturb(
        schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
    )
    return perturbed


_DESCRIPTION_WORDS = (
    "customer", "order", "amount", "date", "shipping", "price",
    "quantity", "identifier", "invoice", "address",
)


def _described(schemas, seed=5):
    """``schemas``, with a random three-word description on about two
    elements in five."""
    rng = random.Random(seed)
    for schema in schemas:
        for element in schema.elements:
            if rng.random() < 0.4:
                element.description = " ".join(
                    rng.sample(_DESCRIPTION_WORDS, 3)
                )
    return schemas


class TestIngestAndLoad:
    def test_ingest_is_content_addressed_and_idempotent(self, tmp_path):
        repo = SchemaRepository(str(tmp_path / "repo"))
        schema = figure2_po()
        first = repo.ingest(schema)
        again = repo.ingest(schema)
        assert first == again
        assert len(repo) == 1
        assert repo.cache_info()["ingest_duplicates"] == 1

    def test_duplicate_ingest_skips_preparation(self, tmp_path):
        """The duplicate check must run before any expensive work: a
        second ingest of an equal (but distinct) schema object costs a
        canonical-dict hash, not a full preparation."""
        repo = SchemaRepository(str(tmp_path / "repo"))
        repo.ingest(figure2_po())
        misses_before = repo.cache_info()["prepare_misses"]
        assert repo.ingest(figure2_po()) in repo
        assert repo.cache_info()["prepare_misses"] == misses_before

    def test_foreign_prepared_schema_is_reprepared(self, tmp_path):
        """A PreparedSchema built under a different thesaurus must not
        smuggle a foreign index profile past the fingerprint guards —
        ingest re-prepares it under the repository's own components.
        The empty thesaurus profiles ``figure2_po`` differently, so an
        ingest that indexed the foreign tiers would fail verify."""
        from repro import empty_thesaurus

        repo = SchemaRepository(str(tmp_path / "repo"))
        foreign = MatchSession(thesaurus=empty_thesaurus()).prepare(
            figure2_po()
        )
        native = MatchSession(config=repo.config).prepare(figure2_po())
        assert token_profile(foreign.linguistic) != token_profile(
            native.linguistic
        )
        schema_id = repo.ingest(foreign)
        repo.verify(schema_id)  # raises on a foreign index profile

    def test_foreign_prepared_query_is_reprepared(self, tmp_path):
        """search() applies the same foreign-PreparedSchema guard as
        ingest: a query prepared under another thesaurus would build a
        token profile missing the corpus's expansions and silently
        prune the true matches."""
        from repro import empty_thesaurus

        corpus = _corpus(4)
        query = _query_for(corpus[2], seed=53)
        repo = SchemaRepository(str(tmp_path / "repo"))
        for schema in corpus:
            repo.ingest(schema)
        native = repo.search(query, k=2, candidates=2)
        foreign_prep = MatchSession(thesaurus=empty_thesaurus()).prepare(
            query
        )
        via_foreign = repo.search(foreign_prep, k=2, candidates=2)
        assert _search_signature(via_foreign) == _search_signature(native)

    def test_reopen_does_not_pin_runtime_knobs(self, tmp_path):
        """Runtime fields (backend, engine, cache bounds) must come from
        the opening process, not the manifest — a repository created
        under REPRO_FORCE_STDLIB would otherwise pin every later
        numpy-capable open to the scalar fallback. Result-affecting
        fields ARE restored."""
        path = str(tmp_path / "repo")
        created = SchemaRepository(
            path,
            config=CupidConfig().replace(
                dense_backend="stdlib", max_prepared_schemas=3, thns=0.6
            ),
        )
        created.ingest(figure2_po())
        created.save()
        reopened = SchemaRepository.open(path)
        defaults = CupidConfig()
        assert reopened.config.dense_backend == defaults.dense_backend
        assert reopened.config.max_prepared_schemas == (
            defaults.max_prepared_schemas
        )
        assert reopened.config.thns == 0.6  # semantic field restored

    def test_catalog_metadata(self, tmp_path):
        repo = SchemaRepository(str(tmp_path / "repo"))
        schema_id = repo.ingest(figure2_po())
        meta = repo.describe(schema_id)
        assert meta["name"] == figure2_po().name
        assert meta["elements"] > 0 and meta["leaves"] > 0
        with pytest.raises(RepositoryError, match="no schema"):
            repo.describe("nope")
        with pytest.raises(RepositoryError, match="no schema"):
            repo.load("nope")

    def test_repository_stores_only_schemas(self, tmp_path):
        """An artifact holds the format version and the canonical
        schema, nothing derived; ingesting, searching and saving add no
        file beside the manifest and the artifacts, and the manifest's
        catalog entry carries the index profile."""
        path = str(tmp_path / "repo")
        with SchemaRepository(path) as repo:
            schema_id = repo.ingest(figure2_po())
            repo.search(figure2_purchase_order(), k=1)
        with SchemaRepository.open(path) as reopened:
            reopened.search(figure2_purchase_order(), k=1)
        assert sorted(os.listdir(path)) == [MANIFEST_FILE, SCHEMAS_DIR]
        artifact = os.path.join(path, SCHEMAS_DIR, f"{schema_id}.json")
        with open(artifact) as handle:
            assert sorted(json.load(handle)) == ["format_version", "schema"]
        with open(os.path.join(path, MANIFEST_FILE)) as handle:
            entry = json.load(handle)["schemas"][schema_id]
        assert entry["profile"] == token_profile(
            MatchSession().prepare(figure2_po()).linguistic
        )

    def test_first_match_builds_the_vocabulary(self, tmp_path):
        """Ingest prepares what the repository derives (index profile,
        leaf count); the kernel vocabulary waits for the first match,
        as it does for any schema."""
        repo = SchemaRepository(str(tmp_path / "repo"))
        schema_id = repo.ingest(figure2_po())
        prepared = repo.load(schema_id)
        assert prepared.cache_info()["leaf_layout_built"]
        assert prepared.vocabulary is None
        repo.search(figure2_purchase_order(), k=1)
        assert prepared.vocabulary is not None

    def test_reopen_is_lazy(self, tmp_path):
        path = str(tmp_path / "repo")
        with SchemaRepository(path) as repo:
            ids = [repo.ingest(s) for s in _corpus(3)]
        reopened = SchemaRepository.open(path)
        assert reopened.cache_info()["artifact_loads"] == 0
        reopened.load(ids[0])
        assert reopened.cache_info()["artifact_loads"] == 1

    def test_verify_restored_artifacts(self, tmp_path):
        """Every catalog entry and index profile must match a
        from-scratch preparation — including on the DAG-shaped rdb/star
        schemas (join views, shared types) and the duplicate-heavy
        generated ones."""
        path = str(tmp_path / "repo")
        with SchemaRepository(path) as repo:
            ids = [
                repo.ingest(s)
                for s in [
                    figure2_po(),
                    figure2_purchase_order(),
                    rdb_schema(),
                    star_schema(),
                    *_corpus(2),
                ]
            ]
        reopened = SchemaRepository.open(path)
        for schema_id in ids:
            reopened.verify(schema_id)

    @pytest.mark.parametrize(
        "removed_keys",
        [
            {"workers": 2, "parallel_leaf_threshold": 256},
            {"store": "blocked", "block_size": 8,
             "auto_store_leaf_threshold": 1},
            {"linguistic_kernel": False, "linguistic_batch_ns": False},
            {"serving_sessions": 4},
            {"segment_compaction_threshold": 8,
             "serving_compaction_backoff_s": 0.5},
        ],
        ids=[
            "parallel-knobs", "store-knobs", "linguistic-knobs",
            "serving-knobs", "compaction-knobs",
        ],
    )
    def test_manifest_with_removed_config_keys_opens(
        self, tmp_path, removed_keys
    ):
        """Manifests written by older builds record config fields that
        no longer exist (the removed parallel-layer, similarity-store,
        linguistic-path, session-pool and segment-compaction knobs).
        They must still open, verify, and search bit-identically."""
        path = str(tmp_path / "repo")
        schemas = _corpus(3)
        with SchemaRepository(path) as repo:
            ids = [repo.ingest(s) for s in schemas]
        query = _query_for(schemas[1])
        baseline = _search_signature(
            SchemaRepository.open(path).search(query, k=2)
        )
        manifest_path = os.path.join(path, "repository.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["config"].update(removed_keys)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        reopened = SchemaRepository.open(path)
        for schema_id in ids:
            reopened.verify(schema_id)
        assert _search_signature(reopened.search(query, k=2)) == baseline



class TestRoundTripParity:
    def test_restored_matching_is_bit_identical(self, tmp_path):
        """ingest → close → reopen → search == in-memory matching."""
        corpus = _corpus()
        query = _query_for(corpus[2])
        path = str(tmp_path / "repo")
        with SchemaRepository(path) as repo:
            for schema in corpus:
                repo.ingest(schema)
            live = repo.search(query, k=4)

        # A fresh process: nothing in memory but the artifact files.
        reopened = SchemaRepository.open(path)
        restored = reopened.search(query, k=4)
        assert _search_signature(restored) == _search_signature(live)

        # And the in-memory oracle: a plain session over the original
        # schema objects, same config, no persistence anywhere.
        session = MatchSession(config=reopened.config)
        by_name = {}
        for schema in corpus:
            result = session.match(query, schema)
            by_name[schema.name] = (
                match_score(result), _mapping_signature(result)
            )
        for match in restored:
            score, signature = by_name[match.schema_name]
            assert match.score == score
            assert _mapping_signature(match.result) == signature

    def test_descriptions_reopen_matches_reference_engine(self, tmp_path):
        """Under ``use_descriptions=True`` a reopened repository must
        verify, search bit-identically to the ingesting process, and
        agree with the reference engine. Descriptions are overrides on
        the kernel's table, whose vocabulary the first match builds."""
        config = CupidConfig(use_descriptions=True)
        schemas = _described(_corpus(3))
        query = _described([_query_for(schemas[1])], seed=6)[0]
        path = str(tmp_path / "repo")
        with SchemaRepository(path, config=config) as repo:
            ids = [repo.ingest(s) for s in schemas]
            live = repo.search(query, k=2)
        reopened = SchemaRepository.open(path)
        for schema_id in ids:
            reopened.verify(schema_id)
        search = reopened.search(query, k=2)
        assert _search_signature(search) == _search_signature(live)
        oracle = MatchSession(
            config=config.replace(engine="reference")
        )
        by_name = {schema.name: schema for schema in schemas}
        for match in search:
            result = oracle.match(query, by_name[match.schema_name])
            assert match.score == match_score(result)
            assert _mapping_signature(match.result) == (
                _mapping_signature(result)
            )

    def test_prepared_round_trip_direct(self):
        """dict → PreparedSchema → dict is a fixed point."""
        session = MatchSession()
        prepared = session.prepare(figure2_purchase_order())
        payload = prepared_to_dict(prepared)
        restored = prepared_from_dict(
            payload, session.pipeline.linguistic, session.pipeline.config
        )
        assert prepared_to_dict(restored) == payload

    def test_pruned_search_subset_of_brute_force(self, tmp_path):
        corpus = _corpus(8)
        query = _query_for(corpus[5], seed=41)
        with SchemaRepository(str(tmp_path / "repo")) as repo:
            for schema in corpus:
                repo.ingest(schema)
            brute = repo.search(query, k=3)
            pruned = repo.search(query, k=3, candidates=4)
        assert brute.stats["candidates_pruned"] == 0
        assert pruned.stats["candidates_considered"] == 4
        assert pruned.stats["candidates_pruned"] == len(corpus) - 4
        # The true best match survives pruning and scores identically.
        assert pruned.matches[0].schema_id == brute.matches[0].schema_id
        assert pruned.matches[0].score == brute.matches[0].score


class TestCorruption:
    def _repo_with_one(self, tmp_path):
        path = str(tmp_path / "repo")
        with SchemaRepository(path) as repo:
            schema_id = repo.ingest(figure2_po())
        return path, schema_id

    def test_truncated_artifact(self, tmp_path):
        path, schema_id = self._repo_with_one(tmp_path)
        artifact = os.path.join(path, "schemas", f"{schema_id}.json")
        with open(artifact, "w") as handle:
            handle.write('{"format_version": 1, "schema"')
        repo = SchemaRepository.open(path)
        with pytest.raises(RepositoryError, match="corrupt"):
            repo.load(schema_id)

    def test_artifact_version_mismatch(self, tmp_path):
        path, schema_id = self._repo_with_one(tmp_path)
        artifact = os.path.join(path, "schemas", f"{schema_id}.json")
        with open(artifact) as handle:
            payload = json.load(handle)
        payload["format_version"] = FORMAT_VERSION + 1
        with open(artifact, "w") as handle:
            json.dump(payload, handle)
        repo = SchemaRepository.open(path)
        with pytest.raises(RepositoryError, match="version"):
            repo.load(schema_id)

    def test_structurally_broken_artifact(self, tmp_path):
        path, schema_id = self._repo_with_one(tmp_path)
        artifact = os.path.join(path, "schemas", f"{schema_id}.json")
        with open(artifact) as handle:
            payload = json.load(handle)
        # A relationship whose target names no element.
        payload["schema"]["relationships"][0]["target"] = "n999"
        with open(artifact, "w") as handle:
            json.dump(payload, handle)
        repo = SchemaRepository.open(path)
        with pytest.raises(ArtifactError, match="corrupt"):
            repo.load(schema_id)

    def test_unknown_id_is_not_an_artifact_error(self, tmp_path):
        """Only a catalogued id's unreadable artifact is an
        ``ArtifactError`` (the daemon's 500); an id the catalog does
        not hold stays a plain ``RepositoryError`` (its 404)."""
        path, schema_id = self._repo_with_one(tmp_path)
        os.remove(os.path.join(path, SCHEMAS_DIR, f"{schema_id}.json"))
        repo = SchemaRepository.open(path)
        with pytest.raises(ArtifactError, match="missing"):
            repo.load(schema_id)
        with pytest.raises(RepositoryError, match="no schema") as raised:
            repo.load("unknown-000000000000")
        assert not isinstance(raised.value, ArtifactError)

    def test_missing_artifact_file(self, tmp_path):
        path, schema_id = self._repo_with_one(tmp_path)
        os.remove(os.path.join(path, "schemas", f"{schema_id}.json"))
        repo = SchemaRepository.open(path)
        with pytest.raises(RepositoryError, match="missing"):
            repo.load(schema_id)

    def test_corrupt_manifest(self, tmp_path):
        path, _ = self._repo_with_one(tmp_path)
        with open(os.path.join(path, "repository.json"), "w") as handle:
            handle.write("not json {")
        with pytest.raises(RepositoryError, match="corrupt"):
            SchemaRepository.open(path)

    def test_manifest_version_mismatch(self, tmp_path):
        path, _ = self._repo_with_one(tmp_path)
        manifest_path = os.path.join(path, "repository.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["format_version"] = FORMAT_VERSION + 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(RepositoryError, match="version"):
            SchemaRepository.open(path)

    def test_missing_repository(self, tmp_path):
        with pytest.raises(RepositoryError, match="no schema repository"):
            SchemaRepository.open(str(tmp_path / "nowhere"))

    def test_config_mismatch(self, tmp_path):
        path, _ = self._repo_with_one(tmp_path)
        other = CupidConfig().replace(thns=0.7)
        with pytest.raises(RepositoryError, match="config mismatch"):
            SchemaRepository.open(path, config=other)
        # Runtime-only differences are fine: engine/backend are
        # parity-guaranteed not to change results.
        runtime_only = SchemaRepository.open(
            path, config=CupidConfig().replace(dense_backend="stdlib")
        )
        assert runtime_only.config.dense_backend == "stdlib"

    def test_thesaurus_mismatch(self, tmp_path):
        from repro import empty_thesaurus

        path, _ = self._repo_with_one(tmp_path)
        with pytest.raises(RepositoryError, match="thesaurus mismatch"):
            SchemaRepository.open(path, thesaurus=empty_thesaurus())


class TestVocabularyIndex:
    def test_profile_counts_distinct_names(self):
        session = MatchSession()
        prepared = session.prepare(
            SchemaGenerator(seed=5).generate(
                n_leaves=20, name_repetition=0.8
            )
        )
        profile = token_profile(prepared.linguistic)
        distinct = {
            n.raw for n in prepared.linguistic.normalized.values()
        }
        assert profile
        # No token can be counted more often than there are distinct
        # names (multiplicity of repeated elements must not leak in).
        assert max(profile.values()) <= len(distinct)

    def test_family_ranks_first(self, tmp_path):
        corpus = _corpus(8)
        query = _query_for(corpus[4], seed=13)
        with SchemaRepository(str(tmp_path / "repo")) as repo:
            ids = {repo.ingest(s): s.name for s in corpus}
            search = repo.search(query, k=1, candidates=2)
        ranking = search.candidate_scores
        assert ids[ranking[0][0]] == corpus[4].name

    def test_synset_expansion_reaches_synonyms(self):
        from repro import builtin_thesaurus

        index = VocabularyIndex()
        index.add("inv", {"invoice": 1, "total": 1})
        index.add("other", {"shipment": 1, "city": 1})
        ranked = index.score({"bill": 1}, builtin_thesaurus())
        assert ranked[0][0] == "inv"
        assert ranked[0][1] > 0.0

    def test_index_round_trip(self, tmp_path):
        """The index persists as the catalog's profiles: a reopened
        repository indexes the same profiles and ranks a query as the
        repository that ingested did."""
        corpus = _corpus(5)
        query = _query_for(corpus[3], seed=17)
        path = str(tmp_path / "repo")
        with SchemaRepository(path) as repo:
            ids = [repo.ingest(schema) for schema in corpus]
            ranking = repo.search(query, k=1).candidate_scores
        reopened = SchemaRepository.open(path)
        assert reopened.cache_info()["artifact_loads"] == 0
        for schema_id in ids:
            assert reopened._index._profiles[schema_id] == (
                repo._index._profiles[schema_id]
            )
        restored = reopened.search(query, k=1).candidate_scores
        assert [sid for sid, _ in restored] == [sid for sid, _ in ranking]
        assert [score for _, score in restored] == pytest.approx(
            [score for _, score in ranking], rel=1e-12
        )


class TestVerify:
    """``verify`` audits what the repository derives from each stored
    schema: its catalog entry and its index profile."""

    def test_drifted_index_profile_fails_repro_verify(
        self, tmp_path, capsys
    ):
        """A catalog entry whose profile no longer matches a fresh
        preparation still opens (and ranks by the drifted profile), and
        makes ``repro verify`` exit non-zero naming exactly that id."""
        from repro.cli import main

        path = str(tmp_path / "repo")
        with SchemaRepository(path) as repo:
            ids = [repo.ingest(s) for s in _corpus(3)]
        assert main(["verify", "--repo", path]) == 0
        manifest_path = os.path.join(path, MANIFEST_FILE)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        victim = ids[1]
        manifest["schemas"][victim]["profile"]["drifted"] = 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        capsys.readouterr()
        assert main(["verify", "--repo", path]) == 1
        problems = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("PROBLEM:")
        ]
        assert len(problems) == 1
        assert victim in problems[0] and "index profile" in problems[0]
        reopened = SchemaRepository.open(path)
        assert reopened.cache_info()["index_rebuilds"] == 0
        assert "drifted" in reopened._index._postings

    def test_artifact_not_hashing_to_its_id_fails_verify(self, tmp_path):
        """Ids are content-addressed: an artifact whose schema was
        edited in place no longer hashes to its id."""
        path = str(tmp_path / "repo")
        with SchemaRepository(path) as repo:
            schema_id = repo.ingest(figure2_po())
        artifact = os.path.join(path, SCHEMAS_DIR, f"{schema_id}.json")
        with open(artifact) as handle:
            payload = json.load(handle)
        payload["schema"]["name"] = "Edited"
        with open(artifact, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(RepositoryError, match="hash to its id"):
            SchemaRepository.open(path).verify(schema_id)

    def test_drifted_catalog_entry_fails_verify(self, tmp_path):
        path = str(tmp_path / "repo")
        with SchemaRepository(path) as repo:
            schema_id = repo.ingest(figure2_po())
        manifest_path = os.path.join(path, MANIFEST_FILE)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["schemas"][schema_id]["leaves"] += 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(RepositoryError, match="leaves"):
            SchemaRepository.open(path).verify(schema_id)


class TestTieredRepository:
    r"""A repository written by a format-1 build that also stored every
    prepared tier in its artifacts (``artifacts``: names, categories,
    vocabulary, leaf order) and the memo's token tier in
    ``simcache.json`` opens unchanged: the tiers are ignored and the
    similarity cache is neither read nor rewritten.

    ``tests/data/tiered_repo`` was built with such a build (commit
    0fe3d76), in that directory, with ``PYTHONPATH`` on its ``src``::

        mkdir inputs queries
        python - <<'EOF'
        from repro.datasets.figure2 import figure2_po, figure2_purchase_order
        from repro.datasets.generator import PerturbationConfig, SchemaGenerator
        from repro.datasets.rdb_star import rdb_schema, star_schema
        from repro.io.json_io import schema_to_json
        gen = [SchemaGenerator(seed).generate(name=f"gen{seed}", n_leaves=14,
                                              name_repetition=0.5)
               for seed in (3, 4)]
        inputs = {"figure2_po": figure2_po(),
                  "figure2_purchase_order": figure2_purchase_order(),
                  "rdb": rdb_schema(), "star": star_schema(),
                  "gen3": gen[0], "gen4": gen[1]}
        for name, schema in inputs.items():
            open(f"inputs/{name}.json", "w").write(
                schema_to_json(schema, indent=None) + "\n")
        perturbation = PerturbationConfig(abbreviate=0.3, synonym=0.2)
        query, _ = SchemaGenerator(97).perturb(gen[0], perturbation)
        open("queries/gen3_perturbed.json", "w").write(
            schema_to_json(query, indent=None) + "\n")
        query, _ = SchemaGenerator(98).perturb(star_schema(), perturbation)
        open("queries/star_perturbed.json", "w").write(
            schema_to_json(query, indent=None) + "\n")
        EOF
        python -m repro index inputs/figure2_po.json \
            inputs/figure2_purchase_order.json inputs/rdb.json \
            inputs/star.json inputs/gen3.json inputs/gen4.json --repo repo
        python -m repro search queries/gen3_perturbed.json --repo repo \
            -k 2 --candidates 2
        python -m repro search inputs/figure2_purchase_order.json \
            --repo repo -k 1 --candidates 1
    """

    @pytest.fixture()
    def tiered(self, tmp_path):
        path = str(tmp_path / "tiered")
        shutil.copytree(os.path.join(TIERED_FIXTURE, "repo"), path)
        return path

    @staticmethod
    def _schemas(kind):
        folder = os.path.join(TIERED_FIXTURE, kind)
        return [
            load_schema(os.path.join(folder, name))
            for name in sorted(os.listdir(folder))
        ]

    def test_fixture_carries_tiers_and_a_similarity_cache(self, tiered):
        assert os.path.exists(os.path.join(tiered, "simcache.json"))
        # Its index profiles live in a segment file, not the catalog.
        assert os.listdir(os.path.join(tiered, "index"))
        with open(os.path.join(tiered, MANIFEST_FILE)) as handle:
            catalog = json.load(handle)["schemas"]
        assert not any("profile" in entry for entry in catalog.values())
        artifacts = os.listdir(os.path.join(tiered, SCHEMAS_DIR))
        assert len(artifacts) == 6
        for name in artifacts:
            with open(os.path.join(tiered, SCHEMAS_DIR, name)) as handle:
                payload = json.load(handle)
            assert payload["format_version"] == FORMAT_VERSION
            assert "vocabulary" in payload["artifacts"]

    def test_opens_and_verifies(self, tiered):
        """The first open derives the catalog's missing profiles from
        the artifacts (one index rebuild); after a save every entry
        carries its profile, a reopen derives nothing, and the segment
        files are neither read nor deleted."""
        index_dir = os.path.join(tiered, "index")

        def segment_files():
            files = {}
            for name in os.listdir(index_dir):
                with open(os.path.join(index_dir, name), "rb") as handle:
                    files[name] = handle.read()
            return files

        segments = segment_files()
        repo = SchemaRepository.open(tiered)
        assert len(repo) == 6
        assert repo.cache_info()["index_rebuilds"] == 1
        for schema_id in repo.schema_ids():
            repo.verify(schema_id)
        repo.save()
        with open(os.path.join(tiered, MANIFEST_FILE)) as handle:
            catalog = json.load(handle)["schemas"]
        assert all("profile" in entry for entry in catalog.values())
        reopened = SchemaRepository.open(tiered)
        assert reopened.cache_info()["index_rebuilds"] == 0
        for schema_id in reopened.schema_ids():
            reopened.verify(schema_id)
        assert segment_files() == segments

    def test_matches_a_fresh_ingest(self, tiered, tmp_path):
        """Same ids, scores and mappings as a repository that ingested
        the same schema files afresh, for searches and for matches by
        id."""
        old = SchemaRepository.open(tiered)
        fresh = SchemaRepository(str(tmp_path / "fresh"))
        ids = [fresh.ingest(s) for s in self._schemas("inputs")]
        assert sorted(ids) == old.schema_ids()
        queries = self._schemas("queries") + [rdb_schema()]
        for query in queries:
            assert _search_signature(old.search(query, k=3)) == (
                _search_signature(fresh.search(query, k=3))
            )
        for source, target in zip(ids, ids[1:] + ids[:1]):
            old_result = old.session.match(
                old.load(source), old.load(target)
            )
            fresh_result = fresh.session.match(
                fresh.load(source), fresh.load(target)
            )
            assert match_score(old_result) == match_score(fresh_result)
            assert _mapping_signature(old_result) == (
                _mapping_signature(fresh_result)
            )

    def test_similarity_cache_is_neither_read_nor_rewritten(self, tiered):
        simcache = os.path.join(tiered, "simcache.json")
        with open(simcache, "rb") as handle:
            before = handle.read()
        before_mtime = os.stat(simcache).st_mtime_ns
        repo = SchemaRepository.open(tiered)
        assert repo.cache_info()["memo_token_entries"] == 0
        query = self._schemas("queries")[0]
        repo.search(query, k=2)
        assert repo.cache_info()["memo_token_entries"] > 0
        repo.ingest(
            SchemaGenerator(seed=8).generate(name="extra", n_leaves=12)
        )
        repo.save()
        with open(simcache, "rb") as handle:
            assert handle.read() == before
        assert os.stat(simcache).st_mtime_ns == before_mtime


class TestForceStdlibEnv:
    def test_env_flips_default_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_STDLIB", "1")
        assert CupidConfig().dense_backend == "stdlib"
        monkeypatch.delenv("REPRO_FORCE_STDLIB")
        assert CupidConfig().dense_backend == "auto"
