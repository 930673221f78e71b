"""The anytime evaluator: budgeted o-sharing with sound probability intervals.

``method="anytime"`` explores the same u-trace as o-sharing (Algorithm 2) —
same partitioning, same operator-selection strategy, same reformulations,
same executions, all of it :mod:`repro.core.utrace` — but runs partition
groups highest probability mass first instead of in Algorithm 2's order, and
checkpoints a :class:`~repro.anytime.budget.Budget` between operator
executions.

Two properties follow:

* **No budget ⇒ byte-identical to o-sharing.**  Exploration order cannot
  change what each e-unit computes (strategy choice and partitioning depend
  only on the unit's position and the query; engine results are
  order-independent), and both evaluators fold the same contribution log in
  replay-key order — so a drained frontier yields the exact evaluator's
  answer float for float, with identical operator/reformulation/partition
  counters.
* **Any budget ⇒ sound, tightening intervals.**  Mass moves only from the
  frontier to the contribution log, so every tuple's ``[lb, lb + U]``
  interval contains its exact probability and both bounds improve
  monotonically across :meth:`~repro.anytime.progress.AnytimeResult.resume`
  steps — which continue from the saved frontier without repeating work
  (the session-incremental refinement the ROADMAP asks for).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.evaluators.base import PHASE_ANYTIME, Evaluator
from repro.core.links import SchemaLinks
from repro.core.operator_selection import SelectionStrategy, make_strategy
from repro.core.target_query import TargetQuery
from repro.core.utrace import GroupTask, UTrace, interval_answers, ranking_converged, root_unit
from repro.matching.mappings import MappingSet
from repro.relational.database import Database
from repro.relational.executor import DEFAULT_ENGINE
from repro.relational.stats import ExecutionStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.anytime.budget import Budget
    from repro.anytime.progress import AnytimeContinuation, AnytimeResult

# repro.anytime.progress subclasses EvaluationResult (this package), so the
# evaluator imports repro.anytime lazily inside its methods — a module-level
# import would close the cycle during whichever package is imported first.


def best_first(task: GroupTask) -> tuple:
    """Highest probability mass first: the bounds tighten as fast as possible."""
    return (-task.mass,)


class AnytimeEvaluator(Evaluator):
    """Best-first o-sharing with budgets and interval answers."""

    name = "anytime"

    def __init__(
        self,
        links: SchemaLinks | None = None,
        strategy: str | SelectionStrategy = "sef",
        seed: int = 0,
        budget: Budget | dict | None = None,
        engine: str = DEFAULT_ENGINE,
        optimize: bool = True,
        parallel=None,
        shared=None,
    ):
        from repro.anytime.budget import Budget

        super().__init__(
            links, engine=engine, optimize=optimize, parallel=parallel, shared=shared
        )
        self.strategy = make_strategy(strategy, seed) if isinstance(strategy, str) else strategy
        self.budget = Budget() if budget is None else Budget.from_spec(budget)

    def evaluate(
        self,
        query: TargetQuery,
        mappings: MappingSet,
        database: Database,
    ) -> AnytimeResult:
        from repro.anytime.progress import AnytimeContinuation

        stats = ExecutionStats()
        root = root_unit(query, mappings, stats)
        trace = UTrace(query, self.links, self.strategy, best_first)
        # Classifying/expanding the root executes no operator, so it always
        # happens — even under a zero budget the frontier is populated and
        # the unexplored mass is the whole query.
        trace.visit(root, stats)
        continuation = AnytimeContinuation(self, database, trace, len(root.mappings))
        return self._drive(continuation, self.budget, stats)

    def resume(self, continuation: AnytimeContinuation, budget: Budget) -> AnytimeResult:
        """One more drive over the saved frontier (no work is repeated).

        ``stats`` on the returned result is *cumulative* across the initial
        evaluation and every resume, so a resume-to-completion reports
        exactly the operator totals the exact evaluator would have.
        """
        step_stats = ExecutionStats()
        result = self._drive(continuation, budget, step_stats)
        if continuation.observer is not None:
            continuation.observer(step_stats, result)
        return result

    def _drive(
        self, continuation: AnytimeContinuation, budget: Budget, step_stats: ExecutionStats
    ) -> AnytimeResult:
        """Drive the trace under ``budget``, then replay and bound (``phase:anytime``)."""
        from repro.anytime.progress import AnytimeResult

        trace = continuation.trace
        meter = budget.meter()
        # Conservative deterministic checkpoint: stop before the next
        # highest-mass group if charging it could break a limit.  Lower
        # priority groups are not considered instead — the schedule must
        # stay strictly decreasing-mass to be replayable.
        trace.drive(
            self._executor(continuation.database, step_stats),
            step_stats,
            stop=lambda task: meter.expired()
            or meter.would_exceed(mappings=len(task.group), eunits=1),
            executed=lambda task: meter.charge(mappings=len(task.group), eunits=1),
        )
        with step_stats.phase(PHASE_ANYTIME):
            answers = trace.replay()
            unexplored = trace.unexplored_mass()
            intervals = interval_answers(answers, unexplored)
            converged = ranking_converged(intervals, unexplored, trace.exhausted)
        continuation.totals.merge(step_stats)
        cumulative = ExecutionStats()
        cumulative.merge(continuation.totals)
        return AnytimeResult(
            evaluator=self.name,
            query=trace.query,
            answers=answers,
            stats=cumulative,
            details={
                "strategy": self.strategy.name,
                "representative_mappings": continuation.representative_mappings,
                "budget": budget.describe(),
                "pending_tasks": trace.pending_tasks,
                "engine": self.engine,
                "optimize": self.optimize,
                **trace.details(cumulative),
            },
            intervals=intervals,
            unexplored_mass=unexplored,
            exhausted=trace.exhausted,
            converged=converged,
            continuation=continuation,
        )
