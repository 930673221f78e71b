"""The u-trace core: one step-and-drive loop for o-sharing, top-k and anytime.

Algorithm 2 (o-sharing), Algorithm 4 (top-k) and the anytime evaluator all
grow the same tree of e-units; they differ only in *which pending partition
group runs next* and *when to stop*.  :class:`UTrace` owns everything else:

* the **per-unit step** (``run_qt`` Cases 1-3): a fully evaluated unit, or
  one with an empty intermediate, is settled — its answer tuples or its
  empty mass go to the contribution log; any other unit gets its next
  operator chosen, its mappings partitioned, and one :class:`GroupTask` per
  partition queued;
* the **per-group step**: reformulate the group's representative for the
  unit's next operator, execute the source operator once for the whole
  group (the o-sharing saving), splice the result into the plan, take the
  per-unit step on the child;
* the **frontier** of queued groups, a heap on ``(priority(task), seq)`` —
  ``seq`` is the queueing order, so equal priorities run first-in-first-out
  and every schedule is deterministic and replayable;
* the **contribution log** of settled mass and its **replay keys**;
* the **drive loop**, and the u-trace counters, written into the caller's
  :class:`~repro.relational.stats.ExecutionStats` as the events happen.

An evaluator is then a priority and a stop rule (see
:class:`~repro.core.evaluators.osharing.UTraceEvaluator`).

The **bounds model** lives here too, beside the log and the frontier it is
computed from: :func:`interval_answers` gives every settled tuple the
interval ``[lb, lb + U]`` (``U`` = the mass still queued).  Anytime reports
those intervals with :func:`ranking_converged`; top-k stops when
:func:`top_k_final` says no queued mass can change its first ``k``.

Replay keys are what make schedules interchangeable.  A unit settled at
path ``p`` contributes under key ``p``; group ``i`` of a unit at ``p`` whose
representative cannot be reformulated (an unmatched attribute) contributes
its empty mass under ``p + (-1, i)``.  Lexicographic order over these keys
is the event order of Algorithm 2's recursion — a unit's unmatched groups
(``-1`` sorts before every group index) precede its child subtrees, which
follow in group order — so :meth:`UTrace.replay` performs exactly the
``add_tuples``/``add_empty`` sequence the recursion would, whatever order
the groups actually ran in: same floats, same tuple insertion order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.answer import ProbabilisticAnswer, _sort_key
from repro.core.eunit import CandidateOperator, EUnit, apply_execution, candidate_operators
from repro.core.evaluators.base import PHASE_AGGREGATION, PHASE_EVALUATION, PHASE_REWRITING
from repro.core.links import SchemaLinks
from repro.core.operator_selection import SelectionStrategy, partition_for
from repro.core.partition_tree import partition_and_represent
from repro.core.reformulation import (
    UnmatchedAttributeError,
    build_scan_plan,
    extract_answers,
    reformulate_operator,
)
from repro.core.target_query import TargetQuery
from repro.matching.mappings import Mapping
from repro.relational.algebra import Materialized, PlanNode, Scan
from repro.relational.executor import Executor
from repro.relational.stats import ExecutionStats


@dataclass
class GroupTask:
    """One queued partition group: the unit of scheduling.

    The operator to run is the parent unit's ``next_op``; ``index`` is the
    group's position among the unit's partitions (the child's path step).
    """

    unit: EUnit
    index: int
    group: tuple[Mapping, ...]
    mass: float


def root_unit(query: TargetQuery, mappings: Iterable[Mapping], stats: ExecutionStats) -> EUnit:
    """Steps 1-3 of Algorithm 2: partition on the query's keys, represent, root the trace."""
    with stats.phase(PHASE_REWRITING):
        representatives = partition_and_represent(query.partition_keys, mappings)
        stats.count_partitions(len(representatives))
    return EUnit(plan=query.plan, mappings=representatives)


class UTrace:
    """The explored part of one query's u-trace and the loop that grows it.

    ``priority(task)`` orders the frontier (smallest first); every settled
    contribution is appended to :attr:`contributions`, the log that
    :meth:`replay` folds.  ``prune_empty=False`` disables the
    empty-intermediate shortcut (the ablation benchmark).
    """

    def __init__(
        self,
        query: TargetQuery,
        links: SchemaLinks | None,
        strategy: SelectionStrategy,
        priority: Callable[[GroupTask], tuple],
        prune_empty: bool = True,
    ):
        self.query = query
        self.links = links
        self.strategy = strategy
        self.prune_empty = prune_empty
        self._priority = priority
        #: (replay key, answer tuples | None, probability), in settling order
        self.contributions: list[tuple[tuple, list | None, float]] = []
        self._frontier: list[tuple[tuple, int, GroupTask]] = []
        self._queued = 0
        #: shape of the explored tree (work counters live in ExecutionStats)
        self.units_answered = 0
        self.max_depth = 0

    # ------------------------------------------------------------------ #
    # the per-unit step: run_qt Cases 1-3
    # ------------------------------------------------------------------ #
    def visit(self, unit: EUnit, stats: ExecutionStats) -> None:
        """Settle ``unit`` or queue its partition groups (executes no operator)."""
        stats.count_eunit(len(unit.mappings))
        self.max_depth = max(self.max_depth, unit.depth)

        # Case 1: the plan is a single relation — its tuples are answers.
        if unit.is_fully_evaluated:
            with stats.phase(PHASE_AGGREGATION):
                tuples = extract_answers(self.query, unit.mappings[0], unit.result.relation)
                self._settle(unit, tuples, stats)
            return

        # Case 2: an intermediate relation is empty — so is the answer, for
        # every mapping of the unit.
        if self.prune_empty and unit.has_empty_intermediate():
            with stats.phase(PHASE_AGGREGATION):
                self._settle(unit, [], stats)
            return

        # Case 3: choose the next operator and queue one task per partition.
        with stats.phase(PHASE_REWRITING):
            choice = self._choose(unit)
            stats.count_partitions(choice.partition_count)
        unit.next_op = choice.candidate
        for index, group in enumerate(choice.partitions):
            mass = sum(mapping.probability for mapping in group)
            task = GroupTask(unit, index, group, mass)
            heapq.heappush(self._frontier, (self._priority(task), self._queued, task))
            self._queued += 1

    def _settle(self, unit: EUnit, tuples: list[tuple], stats: ExecutionStats) -> None:
        """One rule for every schedule: no tuples means the unit was pruned."""
        if tuples:
            self.units_answered += 1
        else:
            stats.count_eunit_pruned()
        self.contributions.append((unit.path, tuples or None, unit.probability))

    def _choose(self, unit: EUnit):
        candidates = candidate_operators(unit.plan, self.query)
        if candidates:
            return self.strategy.choose(unit, candidates, self.query)
        # Degenerate plan: a bare target scan with no operators left.  Treat
        # the scan itself as the "operator" so that evaluation can finish.
        if isinstance(unit.plan, Scan):
            return partition_for(self.query, CandidateOperator(operator=unit.plan), unit.mappings)
        raise RuntimeError(f"no executable operator found in plan {unit.plan.canonical()!r}")

    # ------------------------------------------------------------------ #
    # the per-group step: reformulate, execute once, splice, spawn
    # ------------------------------------------------------------------ #
    def _run(self, task: GroupTask, executor: Executor, stats: ExecutionStats) -> bool:
        """Run one group; False when its representative could not be reformulated."""
        unit, candidate = task.unit, task.unit.next_op
        with stats.phase(PHASE_REWRITING):
            try:
                source_plan = self._reformulate(task.group[0], candidate)
            except UnmatchedAttributeError:
                source_plan = None
            stats.count_reformulation()
        if source_plan is None:
            with stats.phase(PHASE_AGGREGATION):
                self.contributions.append((unit.path + (-1, task.index), None, task.mass))
            return False
        with stats.phase(PHASE_EVALUATION):
            result = executor.execute(source_plan)
        materialized = Materialized(result, label="u" + ".".join(map(str, unit.path)))
        if isinstance(candidate.operator, Scan):
            plan = unit.plan.replace(candidate.operator, materialized)
        else:
            plan = apply_execution(unit.plan, candidate, materialized)
        self.visit(unit.spawn(plan, task.group, task.index), stats)
        return True

    def _reformulate(self, mapping: Mapping, candidate: CandidateOperator) -> PlanNode:
        if isinstance(candidate.operator, Scan):
            return build_scan_plan(self.query, mapping, candidate.operator.label, self.links)
        return reformulate_operator(
            self.query,
            mapping,
            candidate.operator,
            self.links,
            pushdown_leaf=candidate.pushdown_leaf,
        )

    # ------------------------------------------------------------------ #
    # the drive loop
    # ------------------------------------------------------------------ #
    def drive(
        self,
        executor: Executor,
        stats: ExecutionStats,
        stop: Callable[[GroupTask], bool] | None = None,
        executed: Callable[[GroupTask], Any] | None = None,
    ) -> None:
        """Run queued groups in priority order until none is left or ``stop`` says so.

        ``stop(task)`` is asked about the next group *before* it runs, so a
        stopped drive has executed a prefix of the unstopped schedule and
        the frontier still holds the rest.  ``executed(task)`` is told after
        a group's source operator ran (unmatched groups execute nothing).
        """
        while self._frontier:
            task = self._frontier[0][2]
            if stop is not None and stop(task):
                return
            heapq.heappop(self._frontier)
            if self._run(task, executor, stats) and executed is not None:
                executed(task)

    @property
    def exhausted(self) -> bool:
        """True once no group is queued (the explored trace is complete)."""
        return not self._frontier

    @property
    def pending_tasks(self) -> int:
        """Number of partition groups still queued."""
        return len(self._frontier)

    def unexplored_mass(self) -> float:
        """Total probability mass still queued.

        Summed in queueing order, not heap order, so the float is identical
        for identical schedules.
        """
        return sum(entry[2].mass for entry in sorted(self._frontier, key=lambda e: e[1]))

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def replay(self) -> ProbabilisticAnswer:
        """The contribution log folded in Algorithm 2's event order.

        Exact once the frontier is drained; before that it is the exact
        answer restricted to settled mass, accumulated in the same order.
        """
        answers = ProbabilisticAnswer()
        for _key, tuples, probability in sorted(self.contributions, key=lambda entry: entry[0]):
            if tuples is None:
                answers.add_empty(probability)
            else:
                answers.add_tuples(tuples, probability)
        return answers

    def details(self, stats: ExecutionStats) -> dict[str, int]:
        """The u-trace entries of ``EvaluationResult.details``.

        ``stats`` must cover the whole trace (for a resumed anytime
        evaluation: the totals across every drive).
        """
        return {
            "units_created": stats.eunits_created,
            "units_pruned_empty": stats.eunits_pruned,
            "units_answered": self.units_answered,
            "mappings_evaluated": stats.mappings_evaluated,
            "max_depth": self.max_depth,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UTrace(query={self.query.name!r}, settled={len(self.contributions)}, "
            f"pending={len(self._frontier)})"
        )


# ---------------------------------------------------------------------- #
# the bounds model
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class IntervalAnswer:
    """One answer tuple with its current probability interval.

    ``lb`` is probability mass already confirmed for the tuple; ``ub`` adds
    the drive's unexplored mass (every pending frontier task could still
    produce this tuple).  The exact probability always lies in ``[lb, ub]``,
    and successive checkpoints only ever raise ``lb`` and lower ``ub``.
    """

    values: tuple
    lb: float
    ub: float

    @property
    def width(self) -> float:
        """The interval's remaining uncertainty."""
        return self.ub - self.lb


def interval_answers(
    answers: ProbabilisticAnswer, unexplored: float
) -> tuple[IntervalAnswer, ...]:
    """Ranked interval answers (decreasing ``lb``, canonical tie-break)."""
    ranked = sorted(
        (
            IntervalAnswer(values=values, lb=lb, ub=lb + unexplored)
            for values, lb in answers.items()
        ),
        key=lambda interval: (-interval.lb, _sort_key(interval.values)),
    )
    return tuple(ranked)


def ranking_converged(
    intervals: tuple[IntervalAnswer, ...], unexplored: float, exhausted: bool
) -> bool:
    """True when no unexplored mass can change the ranked order.

    An exhausted drive is exact, hence converged.  Otherwise the ranking is
    final when consecutive intervals are strictly separated (``lb_i >
    ub_{i+1}``, so ``Pr(t_i) ≥ lb_i > ub_{i+1} ≥ Pr(t_{i+1})``) *and* the
    unexplored mass cannot introduce an unseen tuple that displaces the last
    ranked one (``U < lb_last ≤ Pr(t_last)``) — strict inequalities, so the
    exact ranking provably lists the same tuples in the same order.
    """
    if exhausted:
        return True
    if not intervals:
        return unexplored <= 0.0
    for first, second in zip(intervals, intervals[1:]):
        if first.lb <= second.ub:
            return False
    return unexplored < intervals[-1].lb


#: Slack for comparing sums of the same masses accumulated in different orders.
_TOP_K_EPSILON = 1e-12


def top_k_final(intervals: tuple[IntervalAnswer, ...], unexplored: float, k: int) -> bool:
    """True when no unexplored mass can change which tuples rank in the top ``k``.

    With fewer than ``k`` tuples seen, only a drained frontier is final.
    Otherwise an unseen tuple can reach at most ``U`` and the ``(k+1)``-th
    seen one at most its ``ub``; neither may exceed the ``k``-th ``lb``.
    """
    if len(intervals) < k:
        return unexplored <= _TOP_K_EPSILON
    bound = intervals[k - 1].lb + _TOP_K_EPSILON
    return unexplored <= bound and (len(intervals) == k or intervals[k].ub <= bound)
