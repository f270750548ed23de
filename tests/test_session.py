"""Tests for MatchSession: cached preparation, batch matching, rematch.

The session's contract is *pure speedup*: every cached artifact is a
deterministic function of (schema, thesaurus, config), so session
results must be bit-identical to independent ``CupidMatcher.match``
calls — including under the reference engine and with feedback hints.
"""

from __future__ import annotations

import pytest

from repro import CupidMatcher, MatchSession, PreparedSchema
from repro.config import CupidConfig
from repro.datasets.figure2 import figure2_po, figure2_purchase_order
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.linguistic.thesaurus import empty_thesaurus
from repro.pipeline import MatchPipeline


def _mapping_signature(mapping):
    return sorted(
        (e.source_path, e.target_path, e.similarity) for e in mapping
    )


def _wsim_signature(result):
    source_paths = {n.node_id: n.path() for n in result.source_tree.nodes()}
    target_paths = {n.node_id: n.path() for n in result.target_tree.nodes()}
    return sorted(
        (source_paths[s], target_paths[t], value)
        for (s, t), value in result.treematch_result.wsim.items()
    )


def _batch_workload(n_targets=4, size=24, seed=11):
    generator = SchemaGenerator(seed=seed)
    source = generator.generate(n_leaves=size, max_depth=3)
    targets = []
    for i in range(n_targets):
        perturber = SchemaGenerator(seed=seed + 50 + i)
        copy, _ = perturber.perturb(
            source, PerturbationConfig(abbreviate=0.3, synonym=0.2)
        )
        targets.append(copy)
    return source, targets


def assert_identical(session_result, matcher_result):
    assert sorted(session_result.lsim_table.items()) == (
        sorted(matcher_result.lsim_table.items())
    )
    assert _wsim_signature(session_result) == _wsim_signature(matcher_result)
    assert _mapping_signature(session_result.leaf_mapping) == (
        _mapping_signature(matcher_result.leaf_mapping)
    )
    assert _mapping_signature(session_result.nonleaf_mapping) == (
        _mapping_signature(matcher_result.nonleaf_mapping)
    )


class TestSessionParity:
    def test_single_match_identical_to_matcher(self):
        source, target = figure2_po(), figure2_purchase_order()
        assert_identical(
            MatchSession().match(source, target),
            CupidMatcher().match(source, target),
        )

    def test_repeat_match_uses_lsim_cache_and_stays_identical(self):
        source, target = figure2_po(), figure2_purchase_order()
        session = MatchSession()
        first = session.match(source, target)
        second = session.match(source, target)
        assert session.cache_info()["lsim_hits"] == 1
        assert_identical(second, CupidMatcher().match(source, target))
        # Fresh result objects each time, not a replay of the first.
        assert second is not first

    def test_match_many_identical_to_independent_calls(self):
        source, targets = _batch_workload()
        session_results = MatchSession().match_many(source, targets)
        for target, session_result in zip(targets, session_results):
            assert_identical(
                session_result, CupidMatcher().match(source, target)
            )

    def test_reference_engine_parity(self):
        source, targets = _batch_workload(n_targets=2)
        config = CupidConfig(engine="reference")
        session = MatchSession(config=config)
        for target, session_result in zip(
            targets, session.match_many(source, targets)
        ):
            assert_identical(
                session_result,
                CupidMatcher(config=config).match(source, target),
            )

    def test_match_with_hints_identical(self):
        source, target = figure2_po(), figure2_purchase_order()
        hints = [("POLines.Item.Line", "Items.Item.ItemNumber")]
        session = MatchSession()
        session.match(source, target)  # populate the pair cache
        hinted = session.match(source, target, initial_mapping=hints)
        assert_identical(
            hinted, CupidMatcher().match(source, target, initial_mapping=hints)
        )

    def test_hints_do_not_pollute_the_pair_cache(self):
        source, target = figure2_po(), figure2_purchase_order()
        hints = [("POLines.Item.Line", "Items.Item.ItemNumber")]
        session = MatchSession()
        session.match(source, target)
        session.match(source, target, initial_mapping=hints)
        clean = session.match(source, target)
        assert_identical(clean, CupidMatcher().match(source, target))


class TestRematch:
    def test_rematch_without_feedback_reproduces_result(self):
        source, target = figure2_po(), figure2_purchase_order()
        session = MatchSession()
        first = session.rematch(session.match(source, target))
        assert_identical(first, CupidMatcher().match(source, target))

    def test_rematch_with_feedback_matches_hinted_run(self):
        source, target = figure2_po(), figure2_purchase_order()
        feedback = [("POLines.Item.Line", "Items.Item.ItemNumber")]
        session = MatchSession()
        first = session.match(source, target)
        rerun = session.rematch(first, feedback=feedback)
        assert_identical(
            rerun,
            CupidMatcher().match(source, target, initial_mapping=feedback),
        )

    def test_hints_write_one_override_per_hinted_pair(self):
        """A hint overrides one element pair of the factored table;
        no other pair of the table is copied into a dict."""
        from repro.linguistic.kernel import FactoredLsimTable

        source, target = figure2_po(), figure2_purchase_order()
        feedback = [
            ("POLines.Item.Line", "Items.Item.ItemNumber"),
            ("POShipTo", "DeliverTo"),
            ("POShipTo", "DeliverTo"),
        ]
        session = MatchSession()
        first = session.match(source, target)
        rerun = session.rematch(first, feedback=feedback)
        table = rerun.lsim_table
        assert isinstance(table, FactoredLsimTable)
        assert len(table.overrides) == 2
        assert set(table.overrides.values()) == {1.0}
        assert session.rematch(first).lsim_table.overrides == {}

    def test_rematch_skips_prepared_phases(self):
        source, target = figure2_po(), figure2_purchase_order()
        session = MatchSession()
        first = session.match(source, target)
        session.rematch(first, feedback=[("POShipTo", "DeliverTo")])
        info = session.cache_info()
        assert info["prepare_misses"] == 2     # source + target, once
        assert info["prepare_hits"] == 2       # both reused on rematch
        assert info["lsim_hits"] == 1          # linguistic phase skipped

    def test_rematch_generated_workload(self):
        source, targets = _batch_workload(n_targets=2)
        session = MatchSession()
        results = session.match_many(source, targets)
        rerun = session.rematch(results[0])
        assert_identical(rerun, CupidMatcher().match(source, targets[0]))


class TestSessionCaching:
    def test_prepare_returns_same_artifact(self):
        source, _ = figure2_po(), figure2_purchase_order()
        session = MatchSession()
        assert session.prepare(source) is session.prepare(source)

    def test_prepare_accepts_prepared_schema(self):
        source = figure2_po()
        session = MatchSession()
        prepared = session.pipeline.prepare(source)
        assert session.prepare(prepared) is prepared
        # The raw schema now resolves to the registered artifact.
        assert session.prepare(source) is prepared

    def test_foreign_prepared_schema_does_not_shadow_registered(self):
        """A caller-made PreparedSchema for an already-registered schema
        must not displace (or bypass) the session's retained artifact —
        cache keys are ids, so only retained objects may be used."""
        source = figure2_po()
        session = MatchSession()
        registered = session.prepare(source)
        foreign = session.pipeline.prepare(source)
        assert foreign is not registered
        assert session.prepare(foreign) is registered

    def test_prepared_schema_lazy_and_cached(self):
        source = figure2_po()
        prepared = MatchPipeline.default().prepare(source)
        assert isinstance(prepared, PreparedSchema)
        assert prepared._tree is None  # nothing built yet
        tree = prepared.tree
        assert prepared.tree is tree
        assert prepared.linguistic is prepared.linguistic
        assert prepared.leaf_layout is prepared.leaf_layout

    def test_match_many_prepares_source_once(self):
        source, targets = _batch_workload(n_targets=4)
        session = MatchSession()
        session.match_many(source, targets)
        info = session.cache_info()
        assert info["matches"] == 4
        assert info["prepared_schemas"] == 5   # source + 4 targets
        assert info["prepare_misses"] == 5
        assert info["cached_lsim_pairs"] == 4

    def test_cache_info_counts(self):
        source, target = figure2_po(), figure2_purchase_order()
        session = MatchSession()
        info = session.cache_info()
        assert info["matches"] == 0 and info["prepared_schemas"] == 0
        session.match(source, target)
        session.match(source, target)
        info = session.cache_info()
        assert info["matches"] == 2
        assert info["lsim_misses"] == 1 and info["lsim_hits"] == 1

    def test_prepared_schema_cache_info(self):
        source = figure2_po()
        prepared = MatchPipeline.default().prepare(source)
        info = prepared.cache_info()
        assert info == {
            "linguistic_built": False,
            "vocabulary_built": False,
            "tree_built": False,
            "leaf_layout_built": False,
        }
        layout = prepared.leaf_layout
        info = prepared.cache_info()
        assert info["tree_built"] and info["leaf_layout_built"]
        assert info["leaves"] == len(layout.leaves)


class TestSessionConfiguration:
    def test_no_thesaurus_session(self):
        source, target = figure2_po(), figure2_purchase_order()
        session = MatchSession(thesaurus=empty_thesaurus())
        matcher = CupidMatcher(thesaurus=empty_thesaurus())
        assert_identical(
            session.match(source, target), matcher.match(source, target)
        )

    def test_custom_pipeline_session(self):
        source, target = figure2_po(), figure2_purchase_order()
        pipeline = MatchPipeline.default().with_variant(
            "mapping", "one-to-one"
        )
        session = MatchSession(pipeline=pipeline)
        result = session.match(source, target)
        assert result.leaf_mapping.is_one_to_one()
        # Second match reuses the cached lsim under the custom stages.
        again = session.match(source, target)
        assert _mapping_signature(again.leaf_mapping) == (
            _mapping_signature(result.leaf_mapping)
        )
        assert session.cache_info()["lsim_hits"] == 1


class TestSessionLru:
    """config.max_prepared_schemas bounds the session's cache tiers.

    Eviction is least-recently-matched first and must be a pure memory
    policy: results stay bit-identical to an unbounded session, only
    hit rates (and the eviction counters) change.
    """

    def test_evicts_least_recently_matched(self):
        source, targets = _batch_workload(n_targets=4)
        session = MatchSession(
            config=CupidConfig().replace(max_prepared_schemas=2)
        )
        session.match_many(source, targets)
        info = session.cache_info()
        assert info["prepared_schemas"] <= 2
        # source + 4 targets passed through a 2-slot cache.
        assert info["prepared_evictions"] >= 3
        # Evicted prepared schemas take their cached lsim pairs along.
        assert info["cached_lsim_pairs"] <= 2

    def test_bounded_results_identical_to_unbounded(self):
        source, targets = _batch_workload(n_targets=4)
        bounded = MatchSession(
            config=CupidConfig().replace(max_prepared_schemas=1)
        )
        unbounded = MatchSession()
        for b, u in zip(
            bounded.match_many(source, targets),
            unbounded.match_many(source, targets),
        ):
            assert_identical(b, u)
        assert bounded.cache_info()["prepared_evictions"] > 0
        assert unbounded.cache_info()["prepared_evictions"] == 0

    def test_recently_matched_survive(self):
        source, targets = _batch_workload(n_targets=3)
        session = MatchSession(
            config=CupidConfig().replace(max_prepared_schemas=2)
        )
        session.match(source, targets[0])
        before = session.cache_info()["prepare_misses"]
        # source was refreshed by the match; matching it again must
        # hit the cache even though targets rotated through.
        session.match(source, targets[1])
        session.match(source, targets[2])
        assert session.cache_info()["prepare_misses"] == before + 2

    def test_rematch_after_eviction_still_correct(self):
        source, targets = _batch_workload(n_targets=3)
        session = MatchSession(
            config=CupidConfig().replace(max_prepared_schemas=1)
        )
        results = session.match_many(source, targets)
        again = session.rematch(results[0])
        assert_identical(again, results[0])


class TestRelease:
    """``release`` / ``transient``: one code path with LRU eviction,
    but not counted as eviction, and never dropping what the caller
    registered itself."""

    def test_release_drops_schema_and_its_lsim_tables(self):
        source, targets = _batch_workload(n_targets=2)
        session = MatchSession()
        results = session.match_many(source, targets)
        prep_t0 = session.prepare(targets[0])
        session.release(prep_t0)
        info = session.cache_info()
        assert info["prepared_schemas"] == 2     # source + targets[1]
        assert info["cached_lsim_pairs"] == 1    # (source, targets[1])
        assert info["prepared_evictions"] == 0
        assert info["lsim_evictions"] == 0
        # A released schema is prepared afresh, with identical results.
        assert session.prepare(targets[0]) is not prep_t0
        assert_identical(session.match(source, targets[0]), results[0])

    def test_release_of_unregistered_schema_is_a_no_op(self):
        source, targets = _batch_workload(n_targets=1)
        session = MatchSession()
        session.match(source, targets[0])
        foreign = MatchSession().prepare(source)
        session.release(foreign)  # same raw schema, not this artifact
        assert session.cache_info()["prepared_schemas"] == 2
        assert session.cache_info()["cached_lsim_pairs"] == 1

    def test_transient_releases_only_what_it_registered(self):
        source, targets = _batch_workload(n_targets=2)
        session = MatchSession()
        held = session.prepare(source)
        with session.transient(source) as prep_s:
            assert prep_s is held
            with session.transient(targets[0]) as prep_t:
                session.match(prep_s, prep_t)
                assert session.cache_info()["cached_lsim_pairs"] == 1
        info = session.cache_info()
        assert info["prepared_schemas"] == 1
        assert info["cached_lsim_pairs"] == 0
        assert session.prepare(source) is held

    def test_transient_releases_when_the_call_raises(self):
        source, targets = _batch_workload(n_targets=1)
        session = MatchSession()
        with pytest.raises(RuntimeError):
            with session.transient(targets[0]) as prep_t:
                session.match(source, prep_t)
                raise RuntimeError("request failed")
        info = session.cache_info()
        assert info["prepared_schemas"] == 1     # source only
        assert info["cached_lsim_pairs"] == 0

    def test_lru_eviction_still_counts(self):
        source, targets = _batch_workload(n_targets=3)
        session = MatchSession(
            config=CupidConfig().replace(max_prepared_schemas=2)
        )
        for target in targets:
            with session.transient(source) as prep_s:
                session.match(prep_s, target)
        info = session.cache_info()
        # Each pass registers source and a target in a 2-slot cache:
        # the previous target is evicted (and counted); the source is
        # released at the end of each pass (not counted).
        assert info["prepared_evictions"] == 2
        assert info["lsim_evictions"] == 0
        assert info["prepared_schemas"] == 1
        assert info["cached_lsim_pairs"] == 0
