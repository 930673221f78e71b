"""Batch evaluation: amortise work across a *workload* of target queries.

The paper's Figure 11(a) runs each Table III query independently; a serving
deployment instead sees a stream of target queries over one mapping set and
one source instance, with heavy repetition and heavy overlap between the
reformulated source queries.  :class:`BatchEvaluator` exploits both:

* **reformulation/clustering is amortised** — a target query that appears
  several times in the workload is reformulated and clustered once;
* **planning is global** — one MQO shared-subexpression analysis runs over
  the source queries of the *entire* workload (linear-time occurrence
  counting, rather than e-MQO's deliberately quadratic pairwise
  confirmation), so subexpressions common to *different* target queries are
  shared too;
* **execution is shared** — a single bounded
  :class:`~repro.relational.plancache.PlanCache`, attached to the database's
  invalidation hooks, serves every query in the workload, which runs as one
  serial loop over one executor.

Answers are identical to running ``e-basic``/``e-MQO`` per query — the batch
engine is an optimisation, not a new semantics — which the cross-evaluator
equivalence tests assert within ``PROBABILITY_TOLERANCE``.  The queries run
in workload order on every engine, so each query's answers and work counters
(operators, source queries, plan-cache hits, operators saved) are the same
on every engine too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.core.evaluators.base import PHASE_REWRITING, EvaluationResult
from repro.core.evaluators.whole_query import (
    SourceQuery,
    WholeQueryEvaluator,
    cache_counters,
    executable,
)
from repro.core.target_query import TargetQuery
from repro.matching.mappings import MappingSet
from repro.relational.database import Database
from repro.relational.executor import DEFAULT_ENGINE
from repro.relational.stats import ExecutionStats


@dataclass
class BatchResult:
    """The outcome of evaluating a workload of target queries together."""

    #: one :class:`EvaluationResult` per workload query, in workload order
    results: list[EvaluationResult]
    #: aggregate statistics across the whole workload (planning included)
    stats: ExecutionStats
    #: plan-cache effectiveness snapshot (hits, misses, evictions, hit rate)
    plan_cache: dict[str, Any]
    #: workload-level counters (distinct queries, shared subexpressions, ...)
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time across all recorded phases."""
        return self.stats.total_seconds

    @property
    def source_operators(self) -> int:
        """Total source operators executed for the workload."""
        return self.stats.source_operators

    def summary(self) -> dict[str, Any]:
        """A flat summary dict used by the benchmark reporting layer."""
        return {
            "queries": len(self.results),
            "seconds": self.total_seconds,
            "source_queries": self.stats.source_queries,
            "source_operators": self.stats.source_operators,
            "reformulations": self.stats.reformulations,
            "plan_cache_hits": self.stats.plan_cache_hits,
            "plan_cache_misses": self.stats.plan_cache_misses,
            "operators_saved": self.stats.operators_saved,
            "plan_cache": dict(self.plan_cache),
            **self.details,
        }

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[EvaluationResult]:
        return iter(self.results)


class BatchEvaluator(WholeQueryEvaluator):
    """Shared-execution evaluation of a workload of target queries.

    e-basic's grouping per distinct target query, one global plan over the
    whole workload with sharing found by linear occurrence counting.

    Parameters
    ----------
    links:
        Optional source-schema join links shared by all reformulations.
    cache_size:
        Bound of the per-call :class:`~repro.relational.plancache.PlanCache`
        (entries, LRU-evicted) used when no session cache is injected.
    """

    name = "batch"
    exhaustive = False

    def __init__(
        self,
        links=None,
        cache_size: int = 4096,
        engine: str = DEFAULT_ENGINE,
        optimize: bool = True,
        parallel=None,
        shared=None,
    ):
        super().__init__(
            links, engine=engine, optimize=optimize, parallel=parallel, shared=shared
        )
        self.cache_size = cache_size

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        query: TargetQuery,
        mappings: MappingSet,
        database: Database,
    ) -> EvaluationResult:
        """Single-query entry point (a workload of one)."""
        return self.evaluate_many([query], mappings, database).results[0]

    def evaluate_many(
        self,
        queries: Sequence[TargetQuery],
        mappings: MappingSet,
        database: Database,
    ) -> BatchResult:
        """Evaluate every query of the workload with shared execution.

        A session-owned plan cache (injected shared state) persists *across*
        ``evaluate_many`` calls — a repeated workload is answered from the
        shared materializations the first pass stored.
        """
        queries = list(queries)

        # Phase 1 — rewriting, amortised: group once per *distinct* target
        # query; repeated queries reuse the grouping without re-reformulating.
        clusters: dict[str, list[SourceQuery]] = {}
        keys: list[str] = []
        per_query_stats: list[ExecutionStats] = []
        for query in queries:
            key = self._query_key(query)
            stats = ExecutionStats()
            if key not in clusters:
                with stats.phase(PHASE_REWRITING):
                    clusters[key] = self.source_queries(query, mappings, stats)
            keys.append(key)
            per_query_stats.append(stats)

        # Phase 2 — one global plan over the whole workload, collected with
        # workload multiplicity so that a repeated target query's entire
        # source queries count as shared subexpressions *of the optimized
        # form* (the optimizer memo deduplicates identical source queries
        # across the workload).
        batch_stats = ExecutionStats()
        global_plan = self._plan_sharing(
            database,
            [entry for cluster in clusters.values() for entry in executable(cluster)],
            [entry for key in keys for entry in executable(clusters[key])],
            batch_stats,
        )

        # Phase 3 — shared execution through one plan cache and one executor
        # (swapping the per-query stats).
        with self._plan_cache(database, self.cache_size) as cache:
            # Per-call plan-cache reporting even on a long-lived session
            # cache: hits/misses/savings come from this call's own
            # ExecutionStats (attributed per query, so concurrent
            # query_many calls on one session cannot contaminate each other);
            # only eviction/invalidation counts — which live on the cache
            # alone — use a since-entry delta.
            cache_since = cache.stats.snapshot()
            executor = self._sharing_executor(
                database, ExecutionStats(), cache, global_plan
            )
            results = []
            for query, key, stats in zip(queries, keys, per_query_stats):
                executor.stats = stats
                answers = self._answers(query, clusters[key], executor, stats)
                results.append(
                    self._result(
                        query,
                        answers,
                        stats,
                        **self.details(clusters[key], stats),
                        **cache_counters(stats),
                    )
                )
            evictions = cache.stats.evictions - cache_since["evictions"]
            invalidations = cache.stats.invalidations - cache_since["invalidations"]
        for result in results:
            batch_stats.merge(result.stats)

        details = {
            "queries": len(queries),
            "distinct_target_queries": len(clusters),
            "shared_subexpressions": global_plan.materialisation_points,
            "plan_comparisons": global_plan.comparisons,
            "engine": self.engine,
            "optimize": self.optimize,
        }
        lookups = batch_stats.plan_cache_hits + batch_stats.plan_cache_misses
        plan_cache = {
            "hits": batch_stats.plan_cache_hits,
            "misses": batch_stats.plan_cache_misses,
            "evictions": evictions,
            "invalidations": invalidations,
            "operators_saved": batch_stats.operators_saved,
            "hit_rate": round(batch_stats.plan_cache_hits / lookups, 4) if lookups else 0.0,
        }
        return BatchResult(
            results=results,
            stats=batch_stats,
            plan_cache=plan_cache,
            details=details,
        )

    @staticmethod
    def _query_key(query: TargetQuery) -> str:
        """Clustering memo key: two queries with one key reformulate alike."""
        return f"{query.schema.name}::{query.plan.canonical()}"
