"""The whole-query core: one pipeline under basic, e-basic, e-MQO, q-sharing and batch.

The paper describes its whole-query algorithms as one pipeline with two plug
points: q-sharing is *partition, represent, then basic over the
representatives* (Algorithm 1, Section IV) and e-MQO is *e-basic's distinct
source queries under a global plan* (Section III-B.3).  This module owns that
pipeline once, beside :mod:`repro.core.utrace` (which owns the operator-level
one for o-sharing, top-k and anytime):

1. **reformulate** the target query into :class:`SourceQuery` entries under
   one of two groupings — :func:`per_mapping` (one entry per mapping, in
   order) or :func:`per_distinct_plan` (one entry per distinct canonical
   source plan, the unmatched mass first);
2. optionally **share**: optimize every source plan up front, let
   :func:`build_global_plan` pick the common subexpressions, and execute
   through a :class:`~repro.relational.plancache.PlanCache` (the session's
   when one is attached, else one for this call) that materialises exactly
   the selected set;
3. **execute, extract, aggregate**: one loop, the only place outside the
   u-trace where ``extract_answers`` meets a ``ProbabilisticAnswer``.

An evaluator on this core is a name, a grouping, a sharing rule
(:attr:`WholeQueryEvaluator.exhaustive`) and its ``details``.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.core.answer import ProbabilisticAnswer
from repro.core.evaluators.base import (
    PHASE_AGGREGATION,
    PHASE_EVALUATION,
    PHASE_PLANNING,
    PHASE_REWRITING,
    EvaluationResult,
    Evaluator,
)
from repro.core.reformulation import (
    UnmatchedAttributeError,
    extract_answers,
    reformulate_query,
)
from repro.core.target_query import TargetQuery
from repro.matching.mappings import Mapping
from repro.relational.algebra import Materialized, PlanNode
from repro.relational.database import Database
from repro.relational.plancache import MaterializeSelected, PlanCache, plan_cost
from repro.relational.stats import ExecutionStats


# --------------------------------------------------------------------------- #
# step 1: source queries under a grouping
# --------------------------------------------------------------------------- #
@dataclass
class SourceQuery:
    """One source query with the mapping mass it answers for.

    ``plan`` is ``None`` for mappings that leave an attribute of the query
    unmatched: they contribute their probability to the null answer without
    executing anything.
    """

    plan: PlanNode | None
    #: the mapping whose correspondences name the answer columns
    representative: Mapping | None
    probability: float
    #: how many mappings this entry stands for
    mapping_count: int = 1


def _reformulated(query: TargetQuery, mapping: Mapping, links, stats: ExecutionStats):
    try:
        plan = reformulate_query(query, mapping, links)
    except UnmatchedAttributeError:
        plan = None
    stats.count_reformulation()
    return plan


def per_mapping(
    query: TargetQuery, mappings: Iterable[Mapping], links, stats: ExecutionStats
) -> list[SourceQuery]:
    """One source query per mapping, in mapping order (*basic*'s grouping)."""
    return [
        SourceQuery(_reformulated(query, mapping, links, stats), mapping, mapping.probability)
        for mapping in mappings
    ]


def per_distinct_plan(
    query: TargetQuery, mappings: Iterable[Mapping], links, stats: ExecutionStats
) -> list[SourceQuery]:
    """One source query per distinct canonical plan (*e-basic*'s grouping).

    Every mapping is still reformulated; identical source queries collapse
    into one entry carrying their total probability, in first-appearance
    order.  The mass of the mappings that could not be reformulated comes
    first, as one plan-less entry.
    """
    unmatched = SourceQuery(None, None, 0.0, 0)
    distinct: dict[str, SourceQuery] = {}
    for mapping in mappings:
        plan = _reformulated(query, mapping, links, stats)
        if plan is None:
            entry = unmatched
        else:
            key = plan.canonical()
            entry = distinct.get(key)
            if entry is None:
                entry = distinct[key] = SourceQuery(plan, mapping, 0.0, 0)
        entry.probability += mapping.probability
        entry.mapping_count += 1
    return ([unmatched] if unmatched.probability else []) + list(distinct.values())


def executable(source_queries: Iterable[SourceQuery]) -> list[SourceQuery]:
    """The entries that have a plan to execute."""
    return [entry for entry in source_queries if entry.plan is not None]


# --------------------------------------------------------------------------- #
# step 2: the global plan (multiple-query optimisation)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SharedSubexpression:
    """A subexpression shared by several distinct source queries."""

    canonical: str
    operator_count: int
    occurrences: int

    @property
    def benefit(self) -> int:
        """Estimated saving: operators avoided by evaluating the expression once."""
        return self.operator_count * (self.occurrences - 1)


@dataclass
class GlobalPlan:
    """The MQO global plan: queries plus the shared subexpressions to materialise."""

    queries: list[PlanNode]
    shared: list[SharedSubexpression]
    comparisons: int

    @property
    def materialisation_points(self) -> int:
        """Number of shared subexpressions selected for materialisation."""
        return len(self.shared)

    def selected_canonicals(self) -> frozenset[str]:
        """Fingerprints of the subexpressions selected for materialisation."""
        return frozenset(expression.canonical for expression in self.shared)

    def materialization_policy(self) -> MaterializeSelected:
        """The executor policy that materialises exactly the selected set."""
        return MaterializeSelected(self.selected_canonicals())


def _plan_signatures(queries: list[PlanNode]) -> list[list[tuple[str, int]]]:
    """Per query, the (fingerprint, operator cost) of every candidate node.

    Every non-:class:`Materialized` node — scans included, since the executor
    counts scans as operators too — is a candidate materialisation point.
    """
    per_query: list[list[tuple[str, int]]] = []
    for plan in queries:
        signatures = []
        for node in plan.walk():
            if not isinstance(node, Materialized):
                signatures.append((node.canonical(), plan_cost(node)))
        per_query.append(signatures)
    return per_query


def build_global_plan(queries: list[PlanNode], exhaustive: bool = True) -> GlobalPlan:
    """Identify the common subexpressions of a set of source query plans.

    The search follows the classical MQO recipe: enumerate candidate
    subexpressions per query, compare candidate pairs to confirm sharing, and
    greedily keep the candidates with the highest benefit.  Pairs are drawn
    across queries *and* within a single query, so a subexpression repeated
    inside one source query (self-join branches, union arms) is shared too.

    With ``exhaustive=True`` (e-MQO's faithful mode) the pairwise
    confirmation step is retained — it is the cost that makes e-MQO's
    planning phase expensive.  ``exhaustive=False`` computes the same shared
    set in linear time via occurrence counting; the batch serving engine uses
    it to keep planning cheap over large workloads.
    """
    per_query = _plan_signatures(queries)

    occurrences: dict[str, int] = {}
    operator_counts: dict[str, int] = {}
    comparisons = 0
    if exhaustive:
        for i, left in enumerate(per_query):
            for j in range(i, len(per_query)):
                right = per_query[j]
                for k, (left_canonical, left_size) in enumerate(left):
                    for l, (right_canonical, _) in enumerate(right):
                        if i == j and l <= k:
                            continue
                        comparisons += 1
                        if left_canonical == right_canonical:
                            occurrences.setdefault(left_canonical, 1)
                            operator_counts[left_canonical] = left_size
        # Count exact occurrences of each confirmed-shared subexpression.
        for canonical in occurrences:
            total = 0
            for signatures in per_query:
                total += sum(1 for candidate, _ in signatures if candidate == canonical)
            occurrences[canonical] = total
    else:
        totals: Counter = Counter()
        for signatures in per_query:
            for canonical, size in signatures:
                totals[canonical] += 1
                operator_counts.setdefault(canonical, size)
        occurrences = {canonical: n for canonical, n in totals.items() if n > 1}

    shared = sorted(
        (
            SharedSubexpression(
                canonical=canonical,
                operator_count=operator_counts[canonical],
                occurrences=count,
            )
            for canonical, count in occurrences.items()
            if count > 1
        ),
        key=lambda expression: (-expression.benefit, expression.canonical),
    )
    return GlobalPlan(queries=list(queries), shared=shared, comparisons=comparisons)


# --------------------------------------------------------------------------- #
# the pipeline
# --------------------------------------------------------------------------- #
class WholeQueryEvaluator(Evaluator):
    """Reformulate under a grouping, optionally share, execute and aggregate."""

    #: the sharing rule: ``None`` executes every source query on its own;
    #: otherwise :func:`build_global_plan`'s ``exhaustive`` flag — pairwise
    #: confirmation (e-MQO) or occurrence counting (batch)
    exhaustive: bool | None = None

    def source_queries(
        self, query: TargetQuery, mappings, stats: ExecutionStats
    ) -> list[SourceQuery]:
        """The grouping (runs inside the rewriting phase)."""
        return per_distinct_plan(query, mappings, self.links, stats)

    def details(
        self, source_queries: list[SourceQuery], stats: ExecutionStats
    ) -> dict[str, Any]:
        """The evaluator-specific counters reported on the result."""
        return {"distinct_source_queries": len(executable(source_queries))}

    def evaluate(self, query: TargetQuery, mappings, database: Database) -> EvaluationResult:
        stats = ExecutionStats()
        with stats.phase(PHASE_REWRITING):
            source_queries = self.source_queries(query, mappings, stats)
        if self.exhaustive is None:
            answers = self._answers(
                query, source_queries, self._executor(database, stats), stats
            )
            return self._result(query, answers, stats, **self.details(source_queries, stats))
        runnable = executable(source_queries)
        global_plan = self._plan_sharing(database, runnable, runnable, stats)
        with self._plan_cache(database, max(1, global_plan.materialisation_points)) as cache:
            executor = self._sharing_executor(database, stats, cache, global_plan)
            answers = self._answers(query, source_queries, executor, stats)
        return self._result(
            query,
            answers,
            stats,
            **self.details(source_queries, stats),
            shared_subexpressions=global_plan.materialisation_points,
            plan_comparisons=global_plan.comparisons,
            **cache_counters(stats),
        )

    # ------------------------------------------------------------------ #
    def _plan_sharing(
        self,
        database: Database,
        distinct: list[SourceQuery],
        workload: list[SourceQuery],
        stats: ExecutionStats,
    ) -> GlobalPlan:
        """Optimize ``distinct`` in place, then choose what ``workload`` shares.

        The cost-based optimizer runs *before* the MQO analysis so that shared
        subexpressions are detected on the plans that actually execute.
        ``workload`` repeats an entry once per query that runs it, so a
        repeated target query's whole source queries count as shared.
        """
        with stats.phase(PHASE_PLANNING):
            optimizer = self._optimizer(database)
            if optimizer is not None:
                for entry in distinct:
                    entry.plan = optimizer.optimize(entry.plan, stats)
            return build_global_plan(
                [entry.plan for entry in workload], exhaustive=self.exhaustive
            )

    @contextmanager
    def _plan_cache(self, database: Database, maxsize: int) -> Iterator[PlanCache]:
        """The session's plan cache when one serves ``database``, else one for this call.

        A session-owned cache lets the shared subexpressions of *previous*
        calls answer this one; the per-call cache is wired to the database's
        mutation hooks for exactly the call.
        """
        cache = self._shared_cache(database)
        if cache is not None:
            yield cache
            return
        cache = PlanCache(maxsize=maxsize)
        cache.attach(database)
        try:
            yield cache
        finally:
            cache.detach(database)

    def _sharing_executor(
        self,
        database: Database,
        stats: ExecutionStats,
        cache: PlanCache,
        global_plan: GlobalPlan,
    ):
        """An executor materialising what ``global_plan`` selected (plans are pre-optimized)."""
        return self._executor(
            database,
            stats,
            cache=cache,
            policy=global_plan.materialization_policy(),
            optimizer=None,
        )

    @staticmethod
    def _answers(
        query: TargetQuery,
        source_queries: list[SourceQuery],
        executor,
        stats: ExecutionStats,
    ) -> ProbabilisticAnswer:
        """Execute each source query and fold its tuples in under its probability."""
        answers = ProbabilisticAnswer()
        for entry in source_queries:
            if entry.plan is None:
                with stats.phase(PHASE_AGGREGATION):
                    answers.add_empty(entry.probability)
                continue
            with stats.phase(PHASE_EVALUATION):
                result = executor.execute_query(entry.plan)
            with stats.phase(PHASE_AGGREGATION):
                tuples = extract_answers(query, entry.representative, result)
                if tuples:
                    answers.add_tuples(tuples, entry.probability)
                else:
                    answers.add_empty(entry.probability)
        return answers


def cache_counters(stats: ExecutionStats) -> dict[str, int]:
    """The plan-cache counters a sharing evaluator reports in ``details``."""
    return {
        "plan_cache_hits": stats.plan_cache_hits,
        "plan_cache_misses": stats.plan_cache_misses,
        "operators_saved": stats.operators_saved,
    }
