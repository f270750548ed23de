"""The concrete match-pipeline stages and their substitutable variants.

The body of the old monolithic ``CupidMatcher.match`` is split into
four stages, each a small object with a ``run(context)`` method:

* :class:`LinguisticStage` — lsim table (paper Section 5),
* :class:`TreeBuildStage` — schema trees + initial-mapping hints
  (Sections 4 and 8.4),
* :class:`StructuralStage` — TreeMatch (Section 6 / Figure 3),
* :class:`MappingStage` — leaf and non-leaf mapping generation
  (Section 7).

A stage is anything satisfying :class:`MatchStage`: a ``name`` (the
pipeline's substitution handle), a ``timing_key`` (where its wall time
lands in ``CupidResult.timings``), and ``run``. The registry at the
bottom maps ``(stage name, variant name)`` to alternative
implementations, which is what the CLI's ``--pipeline`` flag and
``MatchPipeline.with_variant`` use.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from repro.exceptions import MappingError, ReproError
from repro.linguistic.matcher import LinguisticMatcher, LsimTable
from repro.obs import trace
from repro.mapping.assignment import greedy_one_to_one, hungarian_one_to_one
from repro.mapping.generator import MappingGenerator
from repro.pipeline.context import MatchContext, path_parts
from repro.structure.treematch import TreeMatch


@runtime_checkable
class MatchStage(Protocol):
    """One interchangeable phase of a match pipeline."""

    #: Substitution handle, unique within a pipeline.
    name: str
    #: Key under which the pipeline records this stage's wall time.
    timing_key: str

    def run(self, context: MatchContext) -> None:
        """Read earlier artifacts off ``context``, write your own."""
        ...


class LinguisticStage:
    """Computes the lsim table (Section 5) from prepared schemas.

    Skips itself when ``context.lsim_table`` is already set — that is
    the cache hook :class:`~repro.pipeline.session.MatchSession` uses
    to reuse a table computed for the same schema pair earlier.

    With the dense engine the matcher routes through the distinct-name
    kernel (:mod:`repro.linguistic.kernel`), producing a factored
    table whose per-schema vocabularies live on the prepared schemas —
    bit-identical values, deduplicated work on repetitive schemas.
    """

    name = "linguistic"
    timing_key = "linguistic"

    def __init__(self, matcher: LinguisticMatcher) -> None:
        self.matcher = matcher

    def run(self, context: MatchContext) -> None:
        if context.lsim_table is not None:
            trace.annotate(lsim_cached=True)
            return
        context.lsim_table = self.matcher.compute_prepared(
            context.source.linguistic, context.target.linguistic
        )


class EmptyLinguisticStage:
    """``linguistic=off`` variant: no linguistic knowledge at all.

    Produces an empty lsim table, so wsim is driven purely by data-type
    compatibility and structure — the structure-only ablation.
    """

    name = "linguistic"
    timing_key = "linguistic"

    def run(self, context: MatchContext) -> None:
        if context.lsim_table is None:
            context.lsim_table = LsimTable()


class TreeBuildStage:
    """Materializes both schema trees and applies initial-mapping hints.

    The trees come from the :class:`PreparedSchema` artifacts (built
    now if this is the schema's first match, reused otherwise). Hints
    implement Section 8.4's user-interaction loop: each hinted pair's
    lsim is raised to ``config.initial_mapping_lsim`` before structure
    matching.
    """

    name = "trees"
    timing_key = "trees"

    def run(self, context: MatchContext) -> None:
        context.source_tree = context.source.tree
        context.target_tree = context.target.tree
        if context.initial_mapping:
            if context.lsim_table is None:
                raise ReproError(
                    "initial_mapping hints need an lsim table to apply "
                    "to, but no stage before the tree-build stage "
                    "produced one (this pipeline cannot honor "
                    "user feedback)"
                )
            self._apply_initial_mapping(context)

    @staticmethod
    def _apply_initial_mapping(context: MatchContext) -> None:
        value = context.config.initial_mapping_lsim
        for source_path, target_path in context.initial_mapping:
            try:
                s = context.source_tree.node_for_path(
                    *path_parts(source_path)
                )
                t = context.target_tree.node_for_path(
                    *path_parts(target_path)
                )
            except KeyError as exc:
                raise MappingError(
                    f"initial mapping refers to unknown path: {exc}"
                ) from exc
            context.lsim_table.set(s.element, t.element, value)


class StructuralStage:
    """Runs TreeMatch (Figure 3) and stores its result on the context.

    Hands the dense engine the prepared leaf layouts so per-schema
    index work is not repeated across a session's matches.
    """

    name = "structural"
    timing_key = "treematch"

    def __init__(self, treematch: TreeMatch) -> None:
        self.treematch = treematch

    def run(self, context: MatchContext) -> None:
        if context.lsim_table is None or context.source_tree is None:
            raise ReproError(
                "structural stage needs lsim_table and trees; run the "
                "linguistic and tree-build stages (or seed the context) "
                "first"
            )
        layouts = (None, None)
        if self.treematch.config.engine == "dense":
            layouts = (context.source.leaf_layout, context.target.leaf_layout)
        context.treematch_result = self.treematch.run(
            context.source_tree,
            context.target_tree,
            context.lsim_table,
            source_layout=layouts[0],
            target_layout=layouts[1],
        )


class _NoContextTreeMatch(TreeMatch):
    """TreeMatch without the cinc/cdec context adjustment.

    Leaf similarities keep their initial type-compatibility + lsim
    blend; ancestors still aggregate strong links. Quantifies how much
    of Cupid's quality comes from context propagation."""

    adjusts_context = False


class MappingStage:
    """Generates leaf and non-leaf mappings (Section 7).

    ``extract`` optionally post-processes the naive 1:n leaf mapping
    into a 1:1 one: ``"one-to-one"`` (greedy) or ``"hungarian"``
    (optimal assignment).
    """

    name = "mapping"
    timing_key = "mapping"

    def __init__(
        self,
        generator: MappingGenerator,
        treematch: TreeMatch,
        extract: Optional[str] = None,
    ) -> None:
        if extract not in (None, "one-to-one", "hungarian"):
            raise ReproError(
                f"unknown mapping extraction {extract!r} "
                "(expected 'one-to-one' or 'hungarian')"
            )
        self.generator = generator
        self.treematch = treematch
        self.extract = extract

    def run(self, context: MatchContext) -> None:
        result = context.treematch_result
        if result is None:
            raise ReproError(
                "mapping stage needs a TreeMatch result; run the "
                "structural stage first"
            )
        leaf = self.generator.leaf_mapping(result)
        if self.extract == "one-to-one":
            leaf = greedy_one_to_one(leaf)
        elif self.extract == "hungarian":
            leaf = hungarian_one_to_one(leaf)
        context.leaf_mapping = leaf
        context.nonleaf_mapping = self.generator.nonleaf_mapping(
            result, self.treematch
        )


# ----------------------------------------------------------------------
# Variant registry (CLI --pipeline and MatchPipeline.with_variant)
# ----------------------------------------------------------------------

#: stage name -> tuple of known variant names (besides "default").
STAGE_VARIANTS = {
    "linguistic": ("off",),
    "structural": ("no-context",),
    "mapping": ("one-to-one", "hungarian"),
}


def build_stage_variant(stage_name: str, variant: str, pipeline) -> object:
    """Instantiate the ``variant`` implementation of ``stage_name``,
    wired to ``pipeline``'s shared components."""
    if stage_name == "linguistic" and variant == "off":
        return EmptyLinguisticStage()
    if stage_name == "structural" and variant == "no-context":
        return StructuralStage(
            _NoContextTreeMatch(pipeline.config, pipeline.compat)
        )
    if stage_name == "mapping" and variant in STAGE_VARIANTS["mapping"]:
        return MappingStage(
            pipeline.generator, pipeline.treematch, extract=variant
        )
    known = ", ".join(
        f"{stage}={v}"
        for stage, variants in STAGE_VARIANTS.items()
        for v in variants
    )
    raise ReproError(
        f"unknown pipeline stage variant {stage_name}={variant} "
        f"(known: {known})"
    )
