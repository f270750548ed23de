"""Randomized parity fuzz harness: every engine tier vs the oracle.

The dense engine has interacting fast paths — dense vectorization,
the array-native distinct-name linguistic kernel and the overrides on
its table, the leaf plane and the wave-scheduled TreeMatch passes —
whose pairwise interactions no hand-picked test can cover. This suite
generates seeded random schema pairs across the axes that select those
paths (size × name repetition × tree/DAG shape × leaf_prune_depth ×
backend × threshold band × descriptions × initial-mapping hints) and
asserts **bit-identical** lsim tables,
wsim maps, and leaf/non-leaf mappings against the reference engine on
every one, together with TreeMatch's compared / pruned / scaled pair
counters.

Tier-1 runs :data:`N_TIER1_PAIRS` schema pairs under the fixed
:data:`FUZZ_SEED` (each pair checks :data:`VARIANTS_PER_PAIR` dense
variants, one per backend, so ≥200 engine comparisons total); the
full sweep (:data:`N_FULL_PAIRS` pairs) runs with ``REPRO_FUZZ_FULL=1``
(select it with ``-m fuzz``). Failures print the reproducing case via the
seed-report hook in ``conftest.py``::

    _case_params(<index>)   # -> the failing case's full description
"""

from __future__ import annotations

import os
import random

import pytest

from repro import CupidMatcher
from repro.config import CupidConfig
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.linguistic.kernel import FactoredLsimTable
from repro.model.element import ElementKind, SchemaElement
from repro.pipeline import MatchPipeline
from repro.structure.dense import DenseSimilarityStore, numpy_available
from repro.tree.schema_tree import verify_interval_encoding

pytestmark = pytest.mark.fuzz

#: One seed pins the whole sweep: case ``i`` is a pure function of
#: ``(FUZZ_SEED, i)``, so a failing index reproduces everywhere.
FUZZ_SEED = 20260728

#: Schema pairs checked in tier-1 (each pair runs VARIANTS_PER_PAIR
#: dense-vs-reference comparisons — the numpy and the stdlib backend:
#: 100 × 2 = 200 cases, the 200-case floor).
N_TIER1_PAIRS = 100
VARIANTS_PER_PAIR = 2

#: Full-sweep pair count (REPRO_FUZZ_FULL=1).
N_FULL_PAIRS = 400


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------

def _case_params(index: int) -> dict:
    """The full description of fuzz case ``index`` (deterministic)."""
    rng = random.Random(FUZZ_SEED * 1_000_003 + index)
    params = {
        "index": index,
        "schema_seed": rng.randrange(1_000_000),
        "n_leaves": rng.randint(4, 24),
        "max_depth": rng.randint(2, 4),
        "fanout": rng.randint(3, 9),
        "name_repetition": rng.choice((0.0, 0.0, 0.3, 0.7, 0.9)),
        # similar pairs exercise cinc/whole-plane scaling, independent
        # pairs exercise the sparse strong-link regime.
        "pair_kind": rng.choice(("perturbed", "perturbed", "independent")),
        "dag_refints": rng.choice((0, 0, 1, 2)),
        "leaf_prune_depth": rng.choice((0, 0, 0, 1, 2)),
        "thlow": rng.choice((0.35, 0.35, 0.0)),
        "discount_optional_leaves": rng.random() < 0.8,
        "prune_by_leaf_count": rng.random() < 0.8,
        "use_refint_joins": rng.random() < 0.8,
    }
    # Drawn after every axis above, so each case keeps the parameters
    # it had before these axes existed. ``extras_seed`` draws the
    # description words and the hinted paths once the pair is built.
    params["use_descriptions"] = rng.random() < 0.25
    params["description_share"] = round(rng.uniform(0.1, 0.9), 2)
    params["description_weight"] = round(rng.uniform(0.3, 1.0), 2)
    params["hints"] = rng.randint(1, 2) if rng.random() < 0.25 else 0
    params["extras_seed"] = rng.randrange(1_000_000)
    return params


def _add_random_refints(schema, rng: random.Random, count: int) -> None:
    """Wire random referential constraints between two inner elements.

    Join-view augmentation then reifies them as shared-child DAG nodes,
    which is what drives the dense store through its non-contiguous
    (gather-list) leaf index paths.
    """
    inners = [
        e
        for e in schema.elements
        if not e.is_atomic
        and e is not schema.root
        and any(c.is_atomic for c in schema.contained_children(e))
    ]
    if len(inners) < 2:
        return
    for n in range(count):
        source, target = rng.sample(inners, 2)
        columns = [
            c for c in schema.contained_children(source) if c.is_atomic
        ]
        refint = SchemaElement(
            name=f"fk_{source.name}_{target.name}_{n}",
            kind=ElementKind.REFINT,
            not_instantiated=True,
        )
        schema.add_element(refint)
        schema.add_containment(source, refint)
        schema.add_aggregation(refint, rng.choice(columns))
        # Referencing the table element directly is the documented
        # fallback path in repro.tree.refint._add_join_view.
        schema.add_reference(refint, target)


def _build_pair(params: dict):
    generator = SchemaGenerator(seed=params["schema_seed"])
    schema = generator.generate(
        name="fuzz_source",
        n_leaves=params["n_leaves"],
        max_depth=params["max_depth"],
        fanout=params["fanout"],
        name_repetition=params["name_repetition"],
    )
    if params["pair_kind"] == "perturbed":
        other, _ = generator.perturb(
            schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
        )
    else:
        other = SchemaGenerator(
            seed=params["schema_seed"] + 7919
        ).generate(
            name="fuzz_target",
            n_leaves=max(4, params["n_leaves"] - 2),
            max_depth=params["max_depth"],
            fanout=params["fanout"],
            name_repetition=params["name_repetition"],
        )
    if params["dag_refints"]:
        dag_rng = random.Random(params["schema_seed"] ^ 0xDA6)
        _add_random_refints(schema, dag_rng, params["dag_refints"])
        _add_random_refints(other, dag_rng, params["dag_refints"])
    return schema, other


#: Description words: generator name words, their synonyms and full
#: forms, plurals, and stopwords the description tokenizer drops.
_DESCRIPTION_WORDS = (
    "order", "orders", "customer", "client", "price", "cost", "amount",
    "quantity", "invoice", "bill", "address", "street", "city", "phone",
    "telephone", "date", "shipment", "number", "total", "the", "of",
    "for", "each",
)


def _add_descriptions(schema, rng: random.Random, share: float) -> None:
    """A description of one to four random words on about ``share`` of
    ``schema``'s elements (root and not-instantiated ones included)."""
    for element in schema.elements:
        if rng.random() < share:
            element.description = " ".join(
                rng.choice(_DESCRIPTION_WORDS)
                for _ in range(rng.randint(1, 4))
            )


def _resolvable_paths(tree):
    """Root-relative dotted paths of the nodes of ``tree`` that a hint
    can name: those whose path resolves to exactly that node."""
    paths = []
    for node in tree.nodes():
        parts = node.path()[1:]
        try:
            if tree.node_for_path(*parts) is node:
                paths.append(".".join(parts))
        except KeyError:
            continue
    return paths


def _add_extras(params: dict, schema, other) -> list:
    """Apply the description axis to the pair; return the case's
    initial-mapping hints (empty when the hint axis is off)."""
    rng = random.Random(params["extras_seed"])
    if params["use_descriptions"]:
        _add_descriptions(schema, rng, params["description_share"])
        _add_descriptions(other, rng, params["description_share"])
    if not params["hints"]:
        return []
    pipeline = MatchPipeline.default(
        config=CupidConfig(**_shared_config_kwargs(params))
    )
    source_paths = _resolvable_paths(pipeline.prepare(schema).tree)
    target_paths = _resolvable_paths(pipeline.prepare(other).tree)
    return [
        (rng.choice(source_paths), rng.choice(target_paths))
        for _ in range(params["hints"])
    ]


def _shared_config_kwargs(params: dict) -> dict:
    """Config axes shared by the oracle and every dense variant."""
    return {
        "leaf_prune_depth": params["leaf_prune_depth"],
        "thlow": params["thlow"],
        "discount_optional_leaves": params["discount_optional_leaves"],
        "prune_by_leaf_count": params["prune_by_leaf_count"],
        "use_refint_joins": params["use_refint_joins"],
        "use_descriptions": params["use_descriptions"],
        "description_weight": params["description_weight"],
    }


#: The dense-engine variants checked against the oracle on every pair
#: (VARIANTS_PER_PAIR of them): the default backend and forced stdlib,
#: both through the distinct-name kernel — its numpy matrix path and
#: its flat-array loops.
VARIANTS = (
    ("kernel", {}),
    ("stdlib+kernel", {"dense_backend": "stdlib"}),
)


# ----------------------------------------------------------------------
# Signatures (exact, path-keyed)
# ----------------------------------------------------------------------

def _element_names(tree, schema):
    """element id -> a name that is the same in every run: the id of
    a schema element, the node paths of an element that tree
    construction creates (a join view, which each run creates afresh
    under a new id; only a hint gives one an lsim entry)."""
    names = {e.element_id: e.element_id for e in schema.elements}
    created = {}
    for node in tree.nodes():
        element_id = node.element.element_id
        if element_id not in names:
            created.setdefault(element_id, []).append(node.path_string())
    for element_id, paths in created.items():
        names[element_id] = "|".join(sorted(paths))
    return names


def _lsim_signature(result):
    source = _element_names(result.source_tree, result.source_schema)
    target = _element_names(result.target_tree, result.target_schema)
    return sorted(
        ((source[id1], target[id2]), value)
        for (id1, id2), value in result.lsim_table.items()
    )


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


def _counter_signature(result):
    tm = result.treematch_result
    return {
        "compared_pairs": tm.compared_pairs,
        "pruned_pairs": tm.pruned_pairs,
        "scaled_pairs": tm.scaled_pairs,
    }


def _check_case(index: int, record_property) -> None:
    params = _case_params(index)
    for key, value in params.items():
        record_property(key, value)
    schema, other = _build_pair(params)
    hints = _add_extras(params, schema, other)
    record_property("hint_paths", hints)
    shared = _shared_config_kwargs(params)

    reference = CupidMatcher(
        config=CupidConfig(engine="reference", **shared)
    ).match(schema, other, initial_mapping=hints)
    # Migration oracle: on every generated tree/DAG shape, the
    # interval-encoded leaf sets / required flags / frontiers must
    # equal independently recomputed descendant sets (this covers the
    # refint-augmented DAG cases too — the trees here carry whatever
    # join views use_refint_joins wired in).
    verify_interval_encoding(reference.source_tree)
    verify_interval_encoding(reference.target_tree)
    ref_lsim = _lsim_signature(reference)
    ref_wsim = _wsim_signature(reference)
    ref_leaf = _mapping_signature(reference.leaf_mapping)
    ref_nonleaf = _mapping_signature(reference.nonleaf_mapping)
    ref_counters = _counter_signature(reference)

    for label, overrides in VARIANTS:
        record_property("failing_variant", label)
        dense = CupidMatcher(
            config=CupidConfig(engine="dense", **shared, **overrides)
        ).match(schema, other, initial_mapping=hints)
        assert isinstance(dense.lsim_table, FactoredLsimTable), label
        assert _lsim_signature(dense) == ref_lsim, label
        assert _wsim_signature(dense) == ref_wsim, label
        assert _mapping_signature(dense.leaf_mapping) == ref_leaf, label
        assert (
            _mapping_signature(dense.nonleaf_mapping) == ref_nonleaf
        ), label
        # The leaf plane derives these arithmetically instead of
        # counting pair by pair.
        assert _counter_signature(dense) == ref_counters, label


# ----------------------------------------------------------------------
# Tier-1 sweep (capped) and the full sweep (env-gated)
# ----------------------------------------------------------------------

class TestFuzzParityTier1:
    @pytest.mark.parametrize("index", range(N_TIER1_PAIRS))
    def test_case(self, index, record_property):
        _check_case(index, record_property)

    def test_case_count_floor(self):
        """The tier-1 sweep must keep covering >= 200 comparisons."""
        assert len(VARIANTS) == VARIANTS_PER_PAIR
        assert N_TIER1_PAIRS * VARIANTS_PER_PAIR >= 200

    def test_axes_actually_vary(self):
        """Degenerate-generator guard: the sampled axes must all take
        more than one value across the tier-1 window."""
        seen = {
            key: set()
            for key in (
                "pair_kind", "dag_refints", "leaf_prune_depth",
                "thlow", "name_repetition", "use_descriptions",
                "description_weight", "hints",
            )
        }
        described_and_hinted = 0
        for index in range(N_TIER1_PAIRS):
            params = _case_params(index)
            for key in seen:
                seen[key].add(params[key])
            described_and_hinted += bool(
                params["use_descriptions"] and params["hints"]
            )
        for key, values in seen.items():
            assert len(values) > 1, key
        assert seen["hints"] == {0, 1, 2}
        assert described_and_hinted > 0

    def test_kernel_engaged_somewhere(self):
        """At least one tier-1 case must actually route through the
        factored kernel (otherwise the sweep lost its main subject)."""
        for index in range(N_TIER1_PAIRS):
            params = _case_params(index)
            schema, other = _build_pair(params)
            result = CupidMatcher(
                config=CupidConfig(**_shared_config_kwargs(params))
            ).match(schema, other)
            if isinstance(result.lsim_table, FactoredLsimTable):
                return
        pytest.fail("no tier-1 fuzz case exercised the kernel")


@pytest.mark.perf
@pytest.mark.skipif(
    not os.environ.get("REPRO_FUZZ_FULL"),
    reason="full fuzz sweep runs with REPRO_FUZZ_FULL=1",
)
class TestFuzzParityFull:
    @pytest.mark.parametrize("index", range(N_TIER1_PAIRS, N_FULL_PAIRS))
    def test_case(self, index, record_property):
        _check_case(index, record_property)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestFuzzForcedVectorization:
    """A slice of the sweep with the dense store's vectorization
    threshold forced to 1, so its numpy block paths (the wave kernels
    on pure trees, ``np.ix_`` gathers on DAG join views, the profile
    gather) run even on these small schemas."""

    @pytest.fixture(autouse=True)
    def _force_vectorization(self, monkeypatch):
        monkeypatch.setattr(DenseSimilarityStore, "_VECTOR_MIN_CELLS", 1)

    @pytest.mark.parametrize("index", range(0, N_TIER1_PAIRS, 7))
    def test_case(self, index, record_property):
        record_property("forced_vectorization", True)
        _check_case(index, record_property)
