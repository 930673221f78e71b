"""The probabilistic top-k evaluator (Section VII, Algorithm 4 of the paper).

A probabilistic top-k query returns the ``k`` answer tuples with the highest
probabilities among those with non-zero probability.  Rather than computing
every answer's exact probability with o-sharing and sorting, the top-k
algorithm expands the u-trace only partially: every answer tuple carries a
lower bound (``lb`` — probability mass already confirmed) and an upper bound
(``ub`` — the most it could still reach), and two global bounds are kept:

* ``LB`` — the lower bound of the tuple currently ranked ``k``-th, and
* ``UB`` — the maximum probability any tuple *not yet seen* could attain.

As soon as every tuple ranked below ``k`` has ``ub <= LB`` and ``UB <= LB``,
the remaining e-units cannot change the top-k answer set and the traversal
stops (the paper's Table II walk-through).

Partitions are visited depth-first, in decreasing order of probability mass,
which makes the bounds tighten as fast as possible; the paper leaves the
visiting order unspecified.  The traversal itself is
:mod:`repro.core.utrace`; this module is its depth-first schedule, the
``decide_result`` sink and the "top-k is final" stop rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.answer import ProbabilisticAnswer, _sort_key
from repro.core.evaluators.base import EvaluationResult, Evaluator
from repro.core.links import SchemaLinks
from repro.core.operator_selection import SelectionStrategy, make_strategy
from repro.core.target_query import TargetQuery
from repro.core.utrace import GroupTask, UTrace, root_unit
from repro.matching.mappings import MappingSet
from repro.relational.database import Database
from repro.relational.executor import DEFAULT_ENGINE
from repro.relational.stats import ExecutionStats


@dataclass
class BoundedTuple:
    """One candidate answer tuple with its probability bounds."""

    values: tuple
    lb: float
    ub: float


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
        state = _TopKState(k=self.k, ub=root.probability)
        trace = UTrace(
            query,
            self.links,
            self.strategy,
            depth_first,
            sink=lambda _key, tuples, probability: state.decide(probability, tuples or []),
        )
        trace.visit(root, stats)
        trace.drive(executor, stats, stop=lambda _task: state.final)

        answers = ProbabilisticAnswer()
        for entry in state.top_k():
            answers.add(entry.values, entry.lb)
        return self._result(
            query,
            answers,
            stats,
            strategy=self.strategy.name,
            k=self.k,
            stopped_early=state.final,
            candidate_tuples=len(state.entries),
            representative_mappings=len(root.mappings),
            **trace.details(stats),
        )


class _TopKState:
    """The heap, LB and UB bookkeeping of Algorithm 4."""

    def __init__(self, k: int, ub: float):
        self.k = k
        self.LB = 0.0
        self.UB = ub
        self.entries: dict[tuple, BoundedTuple] = {}
        #: True once no unprocessed mass can change the top-k set (the stop rule)
        self.final = False

    # -- the decide_result routine --------------------------------------- #
    def decide(self, probability: float, tuples: list[tuple]) -> bool:
        """Fold one e-unit's result into the bounds; True when top-k is final."""
        for values in tuples:
            entry = self.entries.get(values)
            if entry is not None:
                entry.lb += probability
            elif self.UB > self.LB:
                self.entries[values] = BoundedTuple(values=values, lb=probability, ub=self.UB)
        self.UB -= probability
        ranked = self.ranked()
        if len(ranked) >= self.k:
            self.LB = ranked[self.k - 1].lb
        else:
            self.LB = 0.0
        self.final = self._finished(ranked)
        return self.final

    def _finished(self, ranked: list[BoundedTuple]) -> bool:
        if self.UB > self.LB + 1e-12:
            return False
        if len(ranked) < self.k:
            # Fewer than k candidates seen so far; only finished when no more
            # probability mass remains to discover new tuples.
            return self.UB <= 1e-12
        beyond_k = ranked[self.k :]
        # A candidate's probability can only grow by mass not yet processed,
        # so its effective upper bound is min(recorded ub, lb + UB).  Using it
        # stops the traversal earlier than the recorded (static) ub alone.
        return all(
            min(entry.ub, entry.lb + self.UB) <= self.LB + 1e-12 for entry in beyond_k
        )

    # ------------------------------------------------------------------ #
    def ranked(self) -> list[BoundedTuple]:
        """Candidate tuples ordered by decreasing lower bound.

        Equal-probability ties break on the canonical tuple sort key (the
        same ``_sort_key`` :meth:`ProbabilisticAnswer.ranked` uses), not on
        ``str(values)`` — ``("b",)`` and ``(2,)`` stringify ambiguously, and
        the anytime ranked prefix must be replay-stable under serial_replay.
        """
        return sorted(
            self.entries.values(), key=lambda entry: (-entry.lb, _sort_key(entry.values))
        )

    def top_k(self) -> list[BoundedTuple]:
        """The current top-k candidates (non-zero lower bound only)."""
        return [entry for entry in self.ranked() if entry.lb > 0][: self.k]
