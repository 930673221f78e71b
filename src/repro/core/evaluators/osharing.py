"""The u-trace evaluator: o-sharing, top-k and anytime (Sections V-VII).

o-sharing (Algorithm 2) interleaves query rewriting and operator execution.
The state of a partially executed query is an *e-unit* (plan + mapping
set); executing the e-unit's next operator once per mapping *partition* —
rather than once per mapping — lets groups of mappings share the result of
a source operator even when their full source queries differ.  The tree of
e-units explored this way is the *u-trace*, and all of it — strategy
choice, partitioning, reformulation, execution, the frontier of queued
partition groups and the contribution log — is :mod:`repro.core.utrace`.

One evaluator runs that core for all three methods.  They differ in the
**priority** that orders the frontier and in the **stop rule**:

* ``o-sharing`` — :func:`trace_order`, Algorithm 2's event order; no stop
  rule, so the drive runs to the end.
* ``top-k`` — :func:`depth_first`, and the ``k`` stop rule: stop once
  :func:`~repro.core.utrace.top_k_final` says no queued mass can change the
  first ``k`` answers.  Every tuple's probability lies in ``[lb, lb + U]``
  (``lb`` its settled mass, ``U`` the mass still queued), which is the
  paper's Table II walk-through.  Algorithm 4 also records a static ``ub``
  per tuple; it is redundant, since at discovery ``ub = lb + U`` and a
  settle adds ``p`` to an ``lb`` only while taking ``p`` off ``U``.
* ``anytime`` — :func:`best_first`, and the ``budget`` stop rule: stop
  before the next group if charging it could break a
  :class:`~repro.anytime.budget.Budget` limit.

``k`` and ``budget`` combine: a budgeted top-k stops on whichever rule
fires first.  The result is an :class:`~repro.anytime.progress.AnytimeResult`
(interval answers plus a ``resume()`` handle) when the method is anytime or
a budget is given, and a plain :class:`EvaluationResult` otherwise.

Two properties follow (ARCHITECTURE.md invariant 11):

* **The schedule never changes the answer or the work.**  Strategy choice
  and partitioning depend only on a unit's position in the trace, and every
  schedule folds the same contribution log in replay-key order, so a
  drained frontier yields o-sharing's answer float for float, with
  identical counters.
* **A budget only truncates, soundly.**  Mass moves only from the frontier
  to the log, so every ``[lb, lb + U]`` contains the exact probability, and
  a stopped drive has run a prefix of the unbudgeted schedule: ``resume()``
  continues from the saved frontier without repeating work and, driven to
  the end, returns the unbudgeted result byte for byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.answer import ProbabilisticAnswer
from repro.core.evaluators.base import (
    PHASE_AGGREGATION,
    PHASE_ANYTIME,
    EvaluationResult,
    Evaluator,
)
from repro.core.links import SchemaLinks
from repro.core.operator_selection import SelectionStrategy, make_strategy
from repro.core.target_query import TargetQuery
from repro.core.utrace import (
    GroupTask,
    UTrace,
    interval_answers,
    ranking_converged,
    root_unit,
    top_k_final,
)
from repro.matching.mappings import MappingSet
from repro.relational.database import Database
from repro.relational.executor import DEFAULT_ENGINE
from repro.relational.stats import ExecutionStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.anytime.budget import Budget, BudgetMeter
    from repro.anytime.progress import AnytimeContinuation

# repro.anytime.progress subclasses EvaluationResult (this package), so the
# evaluator imports repro.anytime lazily inside its methods — a module-level
# import would close the cycle during whichever package is imported first.


def trace_order(task: GroupTask) -> tuple:
    """Algorithm 2's order: every group of a unit, then its children's subtrees in turn."""
    return (task.unit.path, task.index)


def depth_first(task: GroupTask) -> tuple:
    """Finish a child's subtree before its next sibling; heaviest sibling first."""
    return (-task.unit.depth, -task.mass)


def best_first(task: GroupTask) -> tuple:
    """Highest probability mass first: the bounds tighten as fast as possible."""
    return (-task.mass,)


class UTraceEvaluator(Evaluator):
    """The u-trace driven in ``priority`` order until ``k`` or ``budget`` stops it."""

    #: frontier order of the preset (smallest first)
    priority: Callable[[GroupTask], tuple]

    #: every result is an AnytimeResult, budgeted or not (the anytime preset)
    always_intervals = False

    def __init__(
        self,
        links: SchemaLinks | None = None,
        *,
        strategy: str | SelectionStrategy = "sef",
        seed: int = 0,
        prune_empty: bool = True,
        k: int | None = None,
        budget: Budget | dict | None = None,
        engine: str = DEFAULT_ENGINE,
        optimize: bool = True,
        parallel=None,
        shared=None,
    ):
        from repro.anytime.budget import Budget
        from repro.policy import reads

        super().__init__(
            links, engine=engine, optimize=optimize, parallel=parallel, shared=shared
        )
        # Each preset accepts only the stop rules and knobs it reads.
        for option, value, unset in (
            ("k", k, None),
            ("budget", budget, None),
            ("prune_empty", prune_empty, True),
        ):
            if value is not unset and not reads(self.name, option):
                raise ValueError(f"option {option!r} does not apply to method {self.name!r}")
        if reads(self.name, "k") and (k is None or k <= 0):
            raise ValueError(f"{self.name} needs a positive k, got {k!r}")
        self.k = k
        self.strategy = make_strategy(strategy, seed) if isinstance(strategy, str) else strategy
        #: the empty-intermediate shortcut (Case 2 of ``run_qt``); disabling it
        #: is only useful for the ablation benchmark.
        self.prune_empty = prune_empty
        if budget is None and self.always_intervals:
            budget = Budget()
        #: set exactly when results are AnytimeResults (unbounded for plain anytime)
        self.budget = None if budget is None else Budget.from_spec(budget)

    def evaluate(
        self,
        query: TargetQuery,
        mappings: MappingSet,
        database: Database,
    ) -> EvaluationResult:
        stats = ExecutionStats()
        root = root_unit(query, mappings, stats)
        trace = UTrace(
            query, self.links, self.strategy, self.priority, prune_empty=self.prune_empty
        )
        # Classifying/expanding the root executes no operator, so it always
        # happens — even under a zero budget the frontier is populated and
        # the unexplored mass is the whole query.
        trace.visit(root, stats)
        if self.budget is not None:
            from repro.anytime.progress import AnytimeContinuation

            continuation = AnytimeContinuation(self, database, trace, len(root.mappings))
            return self._drive_budgeted(continuation, self.budget, stats)
        self._drive(trace, database, stats)
        with stats.phase(PHASE_AGGREGATION):
            answers, intervals, _ = self._answers(trace)
        return self._result(
            query, answers, stats, **self._details(trace, stats, len(root.mappings), intervals)
        )

    def resume(self, continuation: AnytimeContinuation, budget: Budget) -> EvaluationResult:
        """One more drive over the saved frontier (no work is repeated).

        ``stats`` on the returned result is *cumulative* across the initial
        evaluation and every resume, so a resume-to-completion reports
        exactly the operator totals of the unbudgeted evaluation.
        """
        step_stats = ExecutionStats()
        result = self._drive_budgeted(continuation, budget, step_stats)
        if continuation.observer is not None:
            continuation.observer(step_stats, result)
        return result

    # ------------------------------------------------------------------ #
    def _drive(
        self,
        trace: UTrace,
        database: Database,
        stats: ExecutionStats,
        meter: BudgetMeter | None = None,
    ) -> None:
        """Run queued groups until the frontier drains or a stop rule fires.

        Both rules are asked about the next group before it runs, so a
        stopped drive has executed a prefix of the unstopped schedule.  The
        budget check is conservative and deterministic: stop before the
        next group if charging it could break a limit — lower-priority
        groups are not tried instead, so the schedule stays replayable.
        """

        def stop(task: GroupTask) -> bool:
            if meter is not None and (
                meter.expired() or meter.would_exceed(mappings=len(task.group), eunits=1)
            ):
                return True
            if self.k is None:
                return False
            with stats.phase(PHASE_AGGREGATION):
                unexplored = trace.unexplored_mass()
                ranked = interval_answers(trace.replay(), unexplored)
                return top_k_final(ranked, unexplored, self.k)

        trace.drive(
            self._executor(database, stats),
            stats,
            stop=None if meter is None and self.k is None else stop,
            executed=None
            if meter is None
            else lambda task: meter.charge(mappings=len(task.group), eunits=1),
        )

    def _answers(self, trace: UTrace):
        """``(answers, intervals, unexplored)`` of the drive so far.

        Plain o-sharing returns the replayed answer alone.  Otherwise every
        settled tuple gets its ``[lb, lb + U]`` interval, and with ``k`` the
        answer is the first ``k`` tuples with settled mass, at their ``lb``.
        """
        answers = trace.replay()
        if self.k is None and self.budget is None:
            return answers, None, None
        unexplored = trace.unexplored_mass()
        intervals = interval_answers(answers, unexplored)
        if self.k is not None:
            top = [interval for interval in intervals if interval.lb > 0][: self.k]
            answers = ProbabilisticAnswer.from_pairs((entry.values, entry.lb) for entry in top)
        return answers, intervals, unexplored

    def _drive_budgeted(
        self, continuation: AnytimeContinuation, budget: Budget, step_stats: ExecutionStats
    ):
        """Drive the trace under ``budget``, then replay and bound (``phase:anytime``)."""
        from repro.anytime.progress import AnytimeResult

        trace = continuation.trace
        self._drive(trace, continuation.database, step_stats, budget.meter())
        with step_stats.phase(PHASE_ANYTIME):
            answers, intervals, unexplored = self._answers(trace)
            if self.k is None:
                converged = ranking_converged(intervals, unexplored, trace.exhausted)
            else:
                converged = top_k_final(intervals, unexplored, self.k)
        continuation.totals.merge(step_stats)
        cumulative = ExecutionStats()
        cumulative.merge(continuation.totals)
        return AnytimeResult(
            evaluator=self.name,
            query=trace.query,
            answers=answers,
            stats=cumulative,
            details=self._details(
                trace, cumulative, continuation.representative_mappings, intervals, budget
            ),
            intervals=intervals,
            unexplored_mass=unexplored,
            exhausted=trace.exhausted,
            converged=converged,
            continuation=continuation,
        )

    def _details(self, trace, stats, representatives, intervals, budget=None) -> dict:
        """``EvaluationResult.details``: the stop rules' keys, then the trace's."""
        details = {"strategy": self.strategy.name}
        if self.k is not None:
            details.update(
                k=self.k, stopped_early=not trace.exhausted, candidate_tuples=len(intervals)
            )
        details["representative_mappings"] = representatives
        if budget is not None:
            details.update(
                budget=budget.describe(),
                pending_tasks=trace.pending_tasks,
                engine=self.engine,
                optimize=self.optimize,
            )
        return {**details, **trace.details(stats)}


class OSharingEvaluator(UTraceEvaluator):
    """Operator-level sharing over the u-trace (Algorithm 2)."""

    name = "o-sharing"
    priority = staticmethod(trace_order)


class TopKEvaluator(UTraceEvaluator):
    """Probabilistic top-k (Algorithm 4): depth-first, stopped once the top ``k`` is final."""

    name = "top-k"
    priority = staticmethod(depth_first)


class AnytimeEvaluator(UTraceEvaluator):
    """Best-first o-sharing with budgets and interval answers."""

    name = "anytime"
    priority = staticmethod(best_first)
    always_intervals = True
