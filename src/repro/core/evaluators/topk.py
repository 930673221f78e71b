"""The probabilistic top-k evaluator (Section VII, Algorithm 4 of the paper).

A probabilistic top-k query returns the ``k`` answer tuples with the highest
probabilities among those with non-zero probability.  Rather than computing
every answer's exact probability with o-sharing and sorting, the top-k
algorithm expands the u-trace only partially and stops as soon as the
settled mass decides the top ``k``: every answer tuple's probability lies in
``[lb, lb + U]``, where ``lb`` is its settled mass and ``U`` the mass still
queued, and no queued unit can change the top ``k`` once neither ``U`` (an
unseen tuple) nor the ``(k+1)``-th tuple's ``lb + U`` exceeds the ``k``-th
``lb`` (the paper's Table II walk-through).

Algorithm 4 also records a static ``ub`` per tuple and stops on
``min(ub, lb + UB)``.  That ``ub`` is redundant: at discovery ``ub = lb + UB``,
and a settle adds ``p`` to an ``lb`` only while taking ``p`` off ``UB``, so
``lb + UB`` never grows past ``ub`` and the minimum is always ``lb + UB``.

Partitions are visited depth-first, in decreasing order of probability mass,
which makes the bounds tighten as fast as possible; the paper leaves the
visiting order unspecified.  The traversal and the bounds are
:mod:`repro.core.utrace`; this module is its depth-first schedule and the
"top-k is final" stop rule.
"""

from __future__ import annotations

from repro.core.answer import ProbabilisticAnswer
from repro.core.evaluators.base import PHASE_AGGREGATION, EvaluationResult, Evaluator
from repro.core.links import SchemaLinks
from repro.core.operator_selection import SelectionStrategy, make_strategy
from repro.core.target_query import TargetQuery
from repro.core.utrace import GroupTask, UTrace, interval_answers, root_unit, top_k_final
from repro.matching.mappings import MappingSet
from repro.relational.database import Database
from repro.relational.executor import DEFAULT_ENGINE
from repro.relational.stats import ExecutionStats


def depth_first(task: GroupTask) -> tuple:
    """Finish a child's subtree before its next sibling; heaviest sibling first."""
    return (-task.unit.depth, -task.mass)


class TopKEvaluator(Evaluator):
    """Bound-pruned top-k evaluation over the u-trace (Algorithm 4)."""

    name = "top-k"

    def __init__(
        self,
        k: int,
        links: SchemaLinks | None = None,
        strategy: str | SelectionStrategy = "sef",
        seed: int = 0,
        engine: str = DEFAULT_ENGINE,
        optimize: bool = True,
        parallel=None,
        shared=None,
    ):
        super().__init__(
            links, engine=engine, optimize=optimize, parallel=parallel, shared=shared
        )
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self.strategy = make_strategy(strategy, seed) if isinstance(strategy, str) else strategy

    def evaluate(
        self,
        query: TargetQuery,
        mappings: MappingSet,
        database: Database,
    ) -> EvaluationResult:
        stats = ExecutionStats()
        executor = self._executor(database, stats)
        root = root_unit(query, mappings, stats)
        trace = UTrace(query, self.links, self.strategy, depth_first)
        trace.visit(root, stats)

        def final(_task: GroupTask) -> bool:
            with stats.phase(PHASE_AGGREGATION):
                unexplored = trace.unexplored_mass()
                ranked = interval_answers(trace.replay(), unexplored)
                return top_k_final(ranked, unexplored, self.k)

        trace.drive(executor, stats, stop=final)

        with stats.phase(PHASE_AGGREGATION):
            ranked = interval_answers(trace.replay(), trace.unexplored_mass())
            top = [interval for interval in ranked if interval.lb > 0][: self.k]
            answers = ProbabilisticAnswer.from_pairs((entry.values, entry.lb) for entry in top)
        return self._result(
            query,
            answers,
            stats,
            strategy=self.strategy.name,
            k=self.k,
            stopped_early=not trace.exhausted,
            candidate_tuples=len(ranked),
            representative_mappings=len(root.mappings),
            **trace.details(stats),
        )
