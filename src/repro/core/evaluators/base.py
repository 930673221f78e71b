"""Common interface of the probabilistic-query evaluators.

Every algorithm in the paper — *basic*, *e-basic*, *e-MQO*, *q-sharing*,
*o-sharing* and the *top-k* variant — takes the same inputs (a target query,
a set of possible mappings, a source instance) and produces a
:class:`~repro.core.answer.ProbabilisticAnswer`.  The evaluators also report
the execution statistics the paper's figures are built from (phase timings,
number of source queries/operators executed, number of reformulations).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from repro.core.answer import ProbabilisticAnswer
from repro.core.links import SchemaLinks
from repro.core.target_query import TargetQuery
from repro.matching.mappings import MappingSet
from repro.relational.database import Database
from repro.relational.executor import DEFAULT_ENGINE, check_engine
from repro.relational.stats import ExecutionStats

#: Names of the timing phases every evaluator records.
PHASE_REWRITING = "rewriting"
PHASE_EVALUATION = "evaluation"
PHASE_AGGREGATION = "aggregation"
PHASE_PLANNING = "planning"
PHASE_ANYTIME = "anytime"


@dataclass
class SharedState:
    """Long-lived cross-query state a :class:`~repro.session.Session` injects.

    A session hands every evaluator it constructs the same:

    * ``plan_cache`` — one bounded
      :class:`~repro.relational.plancache.PlanCache` (already attached to the
      session's database) that e-MQO and the batch evaluator look shared
      subexpressions up in, so materializations survive *between* calls;
    * ``optimizer`` — one :class:`~repro.relational.optimizer.Optimizer`
      whose canonical-fingerprint memo persists across calls (the session's
      database supplies the statistics catalog);
    * ``pools`` — the session-owned
      :class:`~repro.relational.parallel.PoolManager` whose morsel thread
      pools are started lazily and shut down by ``Session.close()``.

    All fields are optional; an evaluator constructed without shared state
    builds what it needs per evaluation.  ``database`` pins the
    state to the database it serves: plan-cache keys are database-agnostic
    canonical fingerprints, so injected state must never leak across
    databases — a session always sets it, and evaluators ignore the state
    when evaluated against any other database.  With ``database=None``
    (hand-built state) the explicit pin is off, but each component still
    guards itself: the plan cache is only reused for databases it is
    attached to (:meth:`~repro.relational.plancache.PlanCache.serves`) and
    the optimizer only for its own database.
    """

    plan_cache: Any = None
    optimizer: Any = None
    pools: Any = None
    database: Any = None
    #: optional :class:`~repro.obs.trace.Tracer` recording per-operator span
    #: trees for every executor the session's evaluators construct (``None``
    #: keeps the executor on its strict no-op path).
    tracer: Any = None


@dataclass
class EvaluationResult:
    """The outcome of evaluating one probabilistic query."""

    evaluator: str
    query: TargetQuery
    answers: ProbabilisticAnswer
    stats: ExecutionStats
    #: evaluator-specific counters (distinct source queries, e-units created, ...)
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def elapsed_seconds(self) -> float:
        """Total wall-clock time across all recorded phases."""
        return self.stats.total_seconds

    @property
    def source_operators(self) -> int:
        """Number of source operators executed (Table IV's metric)."""
        return self.stats.source_operators

    def summary(self) -> dict[str, Any]:
        """A flat summary dict used by the benchmark reporting layer."""
        return {
            "evaluator": self.evaluator,
            "query": self.query.name,
            "answers": len(self.answers),
            "empty_probability": self.answers.empty_probability,
            "seconds": self.elapsed_seconds,
            "source_queries": self.stats.source_queries,
            "source_operators": self.stats.source_operators,
            "reformulations": self.stats.reformulations,
            "plan_cache_hits": self.stats.plan_cache_hits,
            "operators_saved": self.stats.operators_saved,
            "phase_seconds": dict(self.stats.phase_seconds),
            **self.details,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EvaluationResult({self.evaluator}, query={self.query.name!r}, "
            f"answers={len(self.answers)}, seconds={self.elapsed_seconds:.3f})"
        )


class Evaluator(abc.ABC):
    """Base class of every query-evaluation algorithm.

    ``engine`` selects the relational execution engine every executor the
    evaluator creates will use: ``"columnar"`` (default), ``"row"`` for the
    tuple-at-a-time interpreter, or ``"parallel"`` for the morsel-driven
    sharded engine (tunable via ``parallel``, a
    :class:`~repro.relational.parallel.ParallelConfig`; ``ParallelConfig()``
    applies when omitted).  Answers are identical on every engine,
    which the differential test harness asserts for every evaluator.

    ``optimize`` (default on) runs every source plan through the cost-based
    optimizer (:mod:`repro.relational.optimizer`) before execution: predicate
    pushdown, Select+Product→Join conversion, projection pruning, constant
    folding, empty-relation short-circuit and cost-based join ordering.
    Answers are byte-identical with the optimizer off — also asserted by the
    differential harness — only the executed operator and row counts change.
    """

    #: human-readable algorithm name used in reports and figures
    name: str = "evaluator"

    def __init__(
        self,
        links: SchemaLinks | None = None,
        engine: str = DEFAULT_ENGINE,
        optimize: bool = True,
        parallel=None,
        shared: SharedState | None = None,
    ):
        self.links = links
        # The executor's check, raised at construction instead of inside
        # the first evaluate().
        check_engine(engine)
        self.engine = engine
        self.optimize = optimize
        #: optional :class:`~repro.relational.parallel.ParallelConfig` handed
        #: to every executor when ``engine="parallel"`` (ignored otherwise).
        self.parallel = parallel
        #: optional :class:`SharedState` a session injects so caches, the
        #: optimizer memo and worker pools outlive this one evaluation.
        self.shared = shared

    def _optimizer(self, database: Database):
        """The optimizer to plan with, or ``None`` when disabled.

        With injected session state the session's long-lived optimizer is
        reused (its fingerprint memo then spans *calls*, not just this
        evaluation) as long as it serves the same database; otherwise a
        per-evaluation instance is built.  Either way the optimizer memoizes
        per canonical fingerprint (guarded by data versions) and reads the
        database's lazily collected, version-keyed statistics catalog.
        """
        if not self.optimize:
            return None
        shared = self._shared_state(database)
        if (
            shared is not None
            and shared.optimizer is not None
            and shared.optimizer.database is database
        ):
            return shared.optimizer
        from repro.relational.optimizer import Optimizer

        return Optimizer(database)

    def _shared_state(self, database: Database) -> SharedState | None:
        """The injected session state, when it serves ``database``."""
        if self.shared is None:
            return None
        if self.shared.database is not None and self.shared.database is not database:
            return None
        return self.shared

    def _shared_cache(self, database: Database):
        """The session-owned plan cache, when one serves this database.

        Belt and braces: besides the shared state's database pin, the cache
        itself must be attached to this database's mutation hooks
        (:meth:`~repro.relational.plancache.PlanCache.serves`) — cache keys
        are database-agnostic fingerprints, so an unattached cache could
        serve another database's materializations.
        """
        shared = self._shared_state(database)
        if shared is None or shared.plan_cache is None:
            return None
        if not shared.plan_cache.serves(database):
            return None
        return shared.plan_cache

    def _executor(self, database: Database, stats: ExecutionStats, **kwargs):
        """An executor wired with this evaluator's engine/optimizer/parallel config.

        ``kwargs`` forward to :class:`~repro.relational.executor.Executor`
        (``cache=``, ``policy=``...); pass ``optimizer=None``
        explicitly to skip per-plan optimization (the MQO evaluators optimize
        up front, before their shared-subexpression analysis).  Injected
        session state supplies the worker-pool manager.
        """
        from repro.relational.executor import Executor

        kwargs.setdefault("optimizer", self._optimizer(database))
        shared = self._shared_state(database)
        if shared is not None:
            kwargs.setdefault("pools", shared.pools)
            kwargs.setdefault("tracer", shared.tracer)
        return Executor(
            database, stats, engine=self.engine, parallel=self.parallel, **kwargs
        )

    @abc.abstractmethod
    def evaluate(
        self,
        query: TargetQuery,
        mappings: MappingSet,
        database: Database,
    ) -> EvaluationResult:
        """Evaluate the probabilistic query and return its answers and statistics."""

    def _result(
        self,
        query: TargetQuery,
        answers: ProbabilisticAnswer,
        stats: ExecutionStats,
        **details: Any,
    ) -> EvaluationResult:
        """Assemble an :class:`EvaluationResult` (shared helper)."""
        merged = dict(details)
        merged.setdefault("engine", self.engine)
        merged.setdefault("optimize", self.optimize)
        return EvaluationResult(
            evaluator=self.name,
            query=query,
            answers=answers,
            stats=stats,
            details=merged,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
