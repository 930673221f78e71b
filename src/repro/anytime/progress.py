"""The anytime result: interval answers over a partially driven u-trace.

A budgeted drive of the u-trace evaluator (``method="anytime"``, or top-k
given a budget) stops the shared u-trace core (:mod:`repro.core.utrace` —
frontier, contribution log, replay keys) part-way.  Its bounds are the
core's one bounds model, the same one top-k stops on: at any checkpoint
each discovered tuple ``t`` has ``lb(t)`` = mass already confirmed and
``ub(t) = lb(t) + U`` where ``U`` (the *unexplored mass*) is the total mass
still sitting on the frontier; ``lb ≤ Pr(t) ≤ ub`` holds throughout and both
bounds tighten monotonically as the frontier drains.  This module carries them to the caller:

* :class:`IntervalAnswer` (defined in :mod:`repro.core.utrace`, re-exported);
* an :class:`AnytimeResult` carrying them, with a :meth:`~AnytimeResult.resume`
  handle backed by an :class:`AnytimeContinuation` (the saved trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.core.evaluators.base import EvaluationResult
from repro.core.utrace import IntervalAnswer
from repro.policy import reads
from repro.relational.stats import ExecutionStats

__all__ = [
    "IntervalAnswer",
    "AnytimeResult",
    "AnytimeContinuation",
]


@dataclass
class AnytimeResult(EvaluationResult):
    """An :class:`EvaluationResult` with interval answers and a resume handle.

    ``answers`` holds each discovered tuple at its **lower bound** (for an
    unbudgeted or drained drive that *is* the exact probability, byte for
    byte) — for top-k only the first ``k`` tuples with settled mass;
    ``intervals`` carries every settled tuple's ``[lb, ub]`` bounds ranked by
    decreasing ``lb``; ``unexplored_mass`` is the frontier mass left
    unsettled; ``exhausted`` flags a drained (exact) frontier.
    ``converged`` says the stop rule's question is settled: for anytime the
    ranked order provably matches the exact ranking, for top-k the first
    ``k`` tuples are provably a top-k (``top_k_final``), after which a
    resume does no more work.  ``stats`` is cumulative across the initial
    drive and every ``resume``.
    """

    intervals: tuple[IntervalAnswer, ...] = ()
    unexplored_mass: float = 0.0
    exhausted: bool = True
    converged: bool = True
    continuation: Any = field(default=None, repr=False)

    @property
    def stopped_by_budget(self) -> bool:
        """True when the budget, not a drained frontier or top-k's rule, ended the drive."""
        return not (self.exhausted or (reads(self.evaluator, "k") and self.converged))

    def interval_for(self, values: Iterable) -> IntervalAnswer:
        """The interval of one answer tuple (unseen tuples get ``[0, U]``)."""
        key = tuple(values)
        for interval in self.intervals:
            if interval.values == key:
                return interval
        return IntervalAnswer(values=key, lb=0.0, ub=self.unexplored_mass)

    def resume(self, budget=None, budget_ms: float | None = None) -> "AnytimeResult":
        """Continue tightening from the saved frontier under a fresh budget.

        With no budget the drive runs until the frontier drains or top-k's
        rule holds — the returned result is then byte-identical to the
        unbudgeted evaluation of the same method.  Raises
        ``RuntimeError`` when the frontier is stale (a relation was written
        since) or when the result carries no continuation.
        """
        if self.continuation is None:
            raise RuntimeError(
                "this AnytimeResult carries no continuation to resume "
                "(it was built without a saved frontier)"
            )
        return self.continuation.resume(budget=budget, budget_ms=budget_ms)


class AnytimeContinuation:
    """The saved frontier of one budgeted evaluation, resumable in-session.

    Holds everything a later drive needs — the partially driven
    :class:`~repro.core.utrace.UTrace`, the cumulative statistics — plus a
    snapshot of the database's relation version tokens: the frontier's
    materialized intermediates embed source data, so resuming after *any*
    write would silently mix old and new data.  Staleness is therefore a
    hard error.

    ``observer`` (optional) is called with ``(step_stats, result)`` after
    every resumed drive; a :class:`~repro.session.Session` installs one so
    resumed work lands in the session's lifetime totals and metrics exactly
    once.
    """

    def __init__(self, evaluator, database, query, trace, representative_mappings: int):
        self.evaluator = evaluator
        self.database = database
        #: the caller's query (the trace may grow a rewritten plan of it)
        self.query = query
        self.trace = trace
        #: cumulative ExecutionStats across the initial drive and all resumes
        self.totals = ExecutionStats()
        self.representative_mappings = representative_mappings
        self.versions = self._versions()
        self.observer: Callable[[ExecutionStats, "AnytimeResult"], None] | None = None

    def _versions(self) -> dict[str, int]:
        return {
            name: self.database.relation(name).version
            for name in self.database.relation_names
        }

    def check_fresh(self) -> None:
        """Raise when any relation changed since the frontier was saved."""
        current = self._versions()
        if current == self.versions:
            return
        changed = sorted(
            name
            for name in set(current) | set(self.versions)
            if current.get(name) != self.versions.get(name)
        )
        raise RuntimeError(
            "anytime continuation is stale: relation(s) "
            f"{', '.join(changed)} changed since the frontier was saved; "
            "re-run the query instead of resuming"
        )

    def resume(self, budget=None, budget_ms: float | None = None) -> "AnytimeResult":
        from repro.anytime.budget import Budget

        self.check_fresh()
        if budget is not None and budget_ms is not None:
            raise ValueError(
                "pass either budget= or budget_ms=, not both "
                "(budget_ms is shorthand for Budget(wall_ms=...))"
            )
        if budget_ms is not None:
            budget = Budget(wall_ms=budget_ms)
        elif budget is None:
            budget = Budget()
        else:
            budget = Budget.from_spec(budget)
        return self.evaluator.resume(self, budget)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AnytimeContinuation(query={self.query.name!r}, "
            f"pending={self.trace.pending_tasks})"
        )
