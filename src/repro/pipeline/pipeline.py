"""The composable match pipeline (the paper's "independent component").

A :class:`MatchPipeline` is an ordered list of stages sharing one set
of components (thesaurus, config, compatibility table, linguistic
matcher, TreeMatch, mapping generator). ``run`` threads a
:class:`~repro.pipeline.context.MatchContext` through the stages,
timing each, and assembles a :class:`~repro.pipeline.result.
CupidResult`.

Pipelines are immutable: the composition methods (:meth:`replace_
stage`, :meth:`insert_before`/:meth:`insert_after`, :meth:`without_
stage`, :meth:`with_variant`) return new pipelines sharing the same
components, so a tuned variant and the default can coexist and share
linguistic memo state.

>>> from repro.pipeline import MatchPipeline
>>> pipeline = MatchPipeline.default()
>>> result = pipeline.run(source_schema, target_schema)  # doctest: +SKIP
>>> fast = pipeline.with_variant("mapping", "one-to-one")
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Protocol, Union, runtime_checkable

from repro.config import DEFAULT_CONFIG, CupidConfig
from repro.exceptions import ReproError
from repro.obs import trace
from repro.linguistic.lexicon import builtin_thesaurus
from repro.linguistic.matcher import LinguisticMatcher, LsimTable
from repro.linguistic.thesaurus import Thesaurus
from repro.mapping.generator import MappingGenerator
from repro.model.datatypes import (
    TypeCompatibilityTable,
    default_compatibility_table,
)
from repro.model.schema import Schema
from repro.pipeline.context import InitialMapping, MatchContext
from repro.pipeline.prepared import PreparedSchema
from repro.pipeline.result import CupidResult
from repro.pipeline.stages import (
    LinguisticStage,
    MappingStage,
    MatchStage,
    StructuralStage,
    TreeBuildStage,
    build_stage_variant,
)
from repro.structure.treematch import TreeMatch

SchemaLike = Union[Schema, PreparedSchema]


@runtime_checkable
class Matcher(Protocol):
    """Anything that matches two schemas into a :class:`CupidResult`.

    :class:`~repro.core.cupid.CupidMatcher`, :class:`MatchPipeline`,
    :class:`~repro.pipeline.session.MatchSession`, and adapted
    baselines (:func:`repro.pipeline.adapters.baseline_pipeline`) all
    satisfy this protocol.
    """

    def match(self, source: Schema, target: Schema) -> CupidResult:
        ...


class MatchPipeline:
    """An ordered, substitutable sequence of match stages.

    Build one with :meth:`default` (the paper's linguistic → trees →
    structural → mapping sequence) and derive variants via the
    composition methods. All derived pipelines share this pipeline's
    components — in particular the linguistic matcher and its
    similarity memo.
    """

    def __init__(
        self,
        stages: List[MatchStage],
        *,
        thesaurus: Thesaurus,
        config: CupidConfig,
        compat: TypeCompatibilityTable,
        linguistic: LinguisticMatcher,
        treematch: TreeMatch,
        generator: MappingGenerator,
    ) -> None:
        if not stages:
            raise ReproError("a match pipeline needs at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ReproError(
                f"duplicate stage names in pipeline: {names}"
            )
        self.stages: List[MatchStage] = list(stages)
        self.thesaurus = thesaurus
        self.config = config
        self.compat = compat
        #: Shared components; stages reference these (or substitutes).
        self.linguistic = linguistic
        self.treematch = treematch
        self.generator = generator

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def default(
        cls,
        thesaurus: Optional[Thesaurus] = None,
        config: Optional[CupidConfig] = None,
        compat: Optional[TypeCompatibilityTable] = None,
    ) -> "MatchPipeline":
        """The standard Cupid pipeline (Sections 5–7)."""
        thesaurus = (
            thesaurus if thesaurus is not None else builtin_thesaurus()
        )
        config = config or DEFAULT_CONFIG
        config.validate()
        compat = compat or default_compatibility_table()
        linguistic = LinguisticMatcher(thesaurus, config)
        treematch = TreeMatch(config, compat)
        generator = MappingGenerator(config)
        stages: List[MatchStage] = [
            LinguisticStage(linguistic),
            TreeBuildStage(),
            StructuralStage(treematch),
            MappingStage(generator, treematch),
        ]
        return cls(
            stages,
            thesaurus=thesaurus,
            config=config,
            compat=compat,
            linguistic=linguistic,
            treematch=treematch,
            generator=generator,
        )

    def _with_stages(self, stages: List[MatchStage]) -> "MatchPipeline":
        return MatchPipeline(
            stages,
            thesaurus=self.thesaurus,
            config=self.config,
            compat=self.compat,
            linguistic=self.linguistic,
            treematch=self.treematch,
            generator=self.generator,
        )

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def get_stage(self, name: str) -> MatchStage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise ReproError(
            f"pipeline has no stage {name!r} "
            f"(stages: {self.stage_names()})"
        )

    def _index_of(self, name: str) -> int:
        for i, stage in enumerate(self.stages):
            if stage.name == name:
                return i
        raise ReproError(
            f"pipeline has no stage {name!r} "
            f"(stages: {self.stage_names()})"
        )

    def replace_stage(self, name: str, stage: MatchStage) -> "MatchPipeline":
        """New pipeline with the named stage swapped for ``stage``."""
        i = self._index_of(name)
        stages = list(self.stages)
        stages[i] = stage
        return self._with_stages(stages)

    def insert_before(self, name: str, stage: MatchStage) -> "MatchPipeline":
        """New pipeline with ``stage`` inserted before the named stage."""
        i = self._index_of(name)
        stages = list(self.stages)
        stages.insert(i, stage)
        return self._with_stages(stages)

    def insert_after(self, name: str, stage: MatchStage) -> "MatchPipeline":
        """New pipeline with ``stage`` inserted after the named stage."""
        i = self._index_of(name)
        stages = list(self.stages)
        stages.insert(i + 1, stage)
        return self._with_stages(stages)

    def without_stage(self, name: str) -> "MatchPipeline":
        """New pipeline with the named stage removed."""
        i = self._index_of(name)
        stages = list(self.stages)
        del stages[i]
        return self._with_stages(stages)

    def with_variant(self, name: str, variant: str) -> "MatchPipeline":
        """New pipeline with a registered variant of the named stage.

        Known variants: ``linguistic=off``, ``structural=no-context``,
        ``mapping=one-to-one``, ``mapping=hungarian`` (see
        :data:`repro.pipeline.stages.STAGE_VARIANTS`).
        """
        if variant == "default":
            return self
        return self.replace_stage(
            name, build_stage_variant(name, variant, self)
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def prepare(self, schema: SchemaLike) -> PreparedSchema:
        """Wrap ``schema`` in a (lazy) :class:`PreparedSchema`."""
        if isinstance(schema, PreparedSchema):
            return schema
        return PreparedSchema(schema, self.linguistic, self.config)

    def run(
        self,
        source: SchemaLike,
        target: SchemaLike,
        initial_mapping: Optional[InitialMapping] = None,
        lsim_table: Optional[LsimTable] = None,
    ) -> CupidResult:
        """Run every stage over ``source`` × ``target``.

        Accepts raw :class:`Schema` objects (prepared on the fly, like
        the monolithic matcher did) or :class:`PreparedSchema` objects
        whose cached artifacts are reused. ``lsim_table`` pre-seeds the
        context so the linguistic stage is skipped — the session-level
        cache hook.
        """
        prep_s = self.prepare(source)
        prep_t = self.prepare(target)
        context = MatchContext(
            config=self.config,
            thesaurus=self.thesaurus,
            compat=self.compat,
            source=prep_s,
            target=prep_t,
            initial_mapping=initial_mapping,
            lsim_table=lsim_table,
        )
        run_span = trace.start_span("pipeline.run")
        try:
            for stage in self.stages:
                with trace.span("stage." + stage.timing_key, stage=stage.name):
                    start = time.perf_counter()
                    stage.run(context)
                    elapsed = time.perf_counter() - start
                context.timings[stage.timing_key] = (
                    context.timings.get(stage.timing_key, 0.0) + elapsed
                )
        finally:
            trace.end_span(run_span)
        if context.leaf_mapping is None or context.nonleaf_mapping is None:
            raise ReproError(
                "pipeline finished without producing mappings "
                f"(stages: {self.stage_names()})"
            )
        return CupidResult(
            source_schema=prep_s.schema,
            target_schema=prep_t.schema,
            lsim_table=context.lsim_table,
            source_tree=context.source_tree,
            target_tree=context.target_tree,
            treematch_result=context.treematch_result,
            leaf_mapping=context.leaf_mapping,
            nonleaf_mapping=context.nonleaf_mapping,
            timings=context.timings,
        )

    def match(
        self,
        source: SchemaLike,
        target: SchemaLike,
        initial_mapping: Optional[InitialMapping] = None,
    ) -> CupidResult:
        """Alias for :meth:`run` (satisfies the :class:`Matcher`
        protocol)."""
        return self.run(source, target, initial_mapping=initial_mapping)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def run_stats(
        self, result: CupidResult, include_memo: bool = True
    ) -> Dict[str, object]:
        """Counter dump for one match run (``--stats`` / JSON output).

        Collects the TreeMatch pair counters, the dense store's shape,
        and the linguistic memo's hit rates — the numbers to eyeball
        when a perf regression needs triage. The memo counters are
        cumulative over the pipeline's lifetime, not per run; pass
        ``include_memo=False`` when reporting per-match stats for a
        session (the session reports the memo once instead).
        """
        stats: Dict[str, object] = {"engine": self.config.engine}
        tm = result.treematch_result
        if tm is not None:
            stats.update(
                compared_pairs=tm.compared_pairs,
                pruned_pairs=tm.pruned_pairs,
                scaled_pairs=tm.scaled_pairs,
                # Which first-pass path ran: the number of waves of
                # the wave schedule, or 0 for a per-pair loop (the
                # reference engine, join-view DAGs, depth-pruned
                # frontiers, trees mutated after their layout).
                treematch_waves=tm.waves,
            )
            if tm.recompute_pairs:
                stats["recompute_pairs"] = tm.recompute_pairs
            describe = getattr(tm.sims, "describe", None)
            if describe is not None:
                stats.update(describe())
        if result.lsim_table is not None:
            kernel_stats = getattr(result.lsim_table, "kernel_stats", None)
            if kernel_stats:
                # Distinct-name kernel counters (vocabulary sizes and
                # the dedup rate of the linguistic phase).
                stats.update(kernel_stats)
            profile_values = getattr(
                result.lsim_table, "profile_values", None
            )
            if profile_values is not None:
                # Bytes of the kernel's profile × profile lsim matrix,
                # beside the similarity planes' store_bytes.
                stats["lsim_profile_bytes"] = (
                    profile_values.itemsize * len(profile_values)
                )
            stats["lsim_entries"] = len(result.lsim_table)
        stats["leaf_mappings"] = len(result.leaf_mapping)
        stats["nonleaf_mappings"] = len(result.nonleaf_mapping)
        memo = self.linguistic.memo
        if include_memo and memo is not None:
            stats.update(memo.stats())
        for phase, seconds in result.timings.items():
            stats[f"time_{phase}_ms"] = round(seconds * 1000.0, 3)
        return stats
