"""The *o-sharing* evaluator (Sections V-VI, Algorithm 2 of the paper).

o-sharing interleaves query rewriting and operator execution.  The state of a
partially executed query is an *e-unit* (plan + mapping set); executing the
e-unit's next operator once per mapping *partition* — rather than once per
mapping — lets groups of mappings share the result of a source operator even
when their full source queries differ.  The tree of e-units explored this way
is the *u-trace*.

The operator to execute next is chosen by a pluggable selection strategy
(Random / SNF / SEF, Section VI-A); the chosen operator is reformulated with
the rules of Section VI-B and executed, and its result replaces it in the
plan of the child e-units.  All of that is :mod:`repro.core.utrace`; this
evaluator is the schedule that runs it to the end.
"""

from __future__ import annotations

from repro.core.evaluators.base import PHASE_AGGREGATION, EvaluationResult, Evaluator
from repro.core.links import SchemaLinks
from repro.core.operator_selection import SelectionStrategy, make_strategy
from repro.core.target_query import TargetQuery
from repro.core.utrace import GroupTask, UTrace, root_unit
from repro.matching.mappings import MappingSet
from repro.relational.database import Database
from repro.relational.executor import DEFAULT_ENGINE
from repro.relational.stats import ExecutionStats


def trace_order(task: GroupTask) -> tuple:
    """Algorithm 2's order: every group of a unit, then its children's subtrees in turn."""
    return (task.unit.path, task.index)


class OSharingEvaluator(Evaluator):
    """Operator-level sharing over the u-trace (the paper's ``o-sharing``)."""

    name = "o-sharing"

    def __init__(
        self,
        links: SchemaLinks | None = None,
        strategy: str | SelectionStrategy = "sef",
        seed: int = 0,
        prune_empty: bool = True,
        engine: str = DEFAULT_ENGINE,
        optimize: bool = True,
        parallel=None,
        shared=None,
    ):
        super().__init__(
            links, engine=engine, optimize=optimize, parallel=parallel, shared=shared
        )
        self.strategy = make_strategy(strategy, seed) if isinstance(strategy, str) else strategy
        #: the empty-intermediate shortcut (Case 2 of ``run_qt``); disabling it
        #: is only useful for the ablation benchmark.
        self.prune_empty = prune_empty

    def evaluate(
        self,
        query: TargetQuery,
        mappings: MappingSet,
        database: Database,
    ) -> EvaluationResult:
        stats = ExecutionStats()
        executor = self._executor(database, stats)
        root = root_unit(query, mappings, stats)
        trace = UTrace(
            query, self.links, self.strategy, trace_order, prune_empty=self.prune_empty
        )
        trace.visit(root, stats)
        trace.drive(executor, stats)
        with stats.phase(PHASE_AGGREGATION):
            answers = trace.replay()
        return self._result(
            query,
            answers,
            stats,
            strategy=self.strategy.name,
            representative_mappings=len(root.mappings),
            **trace.details(stats),
        )
