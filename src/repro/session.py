"""The session-first public API: a persistent facade over the whole engine.

The paper's point (conf_icde_ChengGCC12) is that probabilistic queries over
uncertain mappings are dominated by *redundant* work that sharing amortises.
A :class:`Session` is the serving-engine shape of that idea and the one way
to evaluate a query — a long-lived connection to one ``(database, mappings)``
pair owning all cross-query state:

* one bounded :class:`~repro.relational.plancache.PlanCache`, attached to the
  database's invalidation hooks (a ``set_relation`` drops exactly the
  dependent entries — the session can never serve stale results);
* one :class:`~repro.relational.optimizer.Optimizer` whose
  canonical-fingerprint memo and statistics catalog persist across calls;
* a lazily-started, session-owned
  :class:`~repro.relational.parallel.PoolManager` (``close()`` shuts the
  pools down; nothing starts until the parallel engine first needs a worker).

How queries execute is typed configuration — an
:class:`~repro.policy.ExecutionPolicy` validated eagerly at the API boundary
— with per-call keyword overrides::

    from repro import Session, ExecutionPolicy, build_scenario
    from repro.workloads import paper_query

    scenario = build_scenario(target="Excel", h=8, scale=0.01, seed=3)
    with Session(scenario.database, scenario.mappings, links=scenario.links,
                 policy=ExecutionPolicy(method="o-sharing")) as session:
        result = session.query(paper_query("Q1", scenario.target_schema))
        again = session.query(paper_query("Q1", scenario.target_schema),
                              method="e-mqo")   # per-call override
        print(session.stats.snapshot())

``query()`` answers one query, ``query_many()`` a workload with shared
execution, ``top_k()`` ranked answers, ``explain()`` the optimizer's
reasoning, and ``serve()`` is the serving loop: it consumes a request stream
and yields results while every cache stays warm.  Sessions are thread-safe —
concurrent ``query()`` calls share the lock-guarded plan cache, optimizer
memo and pools.

Answers on a warm session are byte-identical to a fresh one's (the
differential harness asserts warm-vs-cold parity for every evaluator ×
engine); only the work performed shrinks as the session warms up.
"""

from __future__ import annotations

import logging
import threading
import weakref
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Any, Iterable, Iterator, Sequence

from repro.anytime.progress import AnytimeResult
from repro.core.evaluators import EVALUATORS, SharedState
from repro.core.evaluators.base import EvaluationResult
from repro.core.evaluators.batch import BatchEvaluator, BatchResult
from repro.core.links import SchemaLinks
from repro.core.target_query import TargetQuery
from repro.obs import MetricsRegistry, MetricsSnapshot, Tracer
from repro.obs.trace import activate
from repro.policy import ExecutionPolicy, check_applicable, reads
from repro.relational.database import Database
from repro.relational.plancache import PlanCache
from repro.relational.stats import ExecutionStats

#: The serving loop's slow-query log writes here (see ``slow_query_seconds``).
logger = logging.getLogger("repro.session")


@dataclass(frozen=True)
class SessionStats:
    """Aggregate effectiveness counters across a session's lifetime.

    ``totals`` is a point-in-time *copy* of the cumulative
    :class:`ExecutionStats` of every call the session served (later calls do
    not mutate a snapshot you hold), with the write-maintenance counters —
    which accrue on the plan cache, not in any call — filled in;
    ``plan_cache`` is a point-in-time snapshot of the
    session-owned cache (hits, misses, evictions, invalidations, hit rate,
    operators saved).  Build one via :attr:`Session.stats`.
    """

    #: single queries served (``query``/``top_k``/``serve`` items)
    queries: int
    #: workloads served (``query_many`` calls)
    workloads: int
    #: cumulative execution statistics across every call
    totals: ExecutionStats
    #: session plan-cache snapshot (see :class:`~repro.relational.plancache.PlanCacheStats`)
    plan_cache: dict[str, Any]
    #: entries currently memoized by the session optimizer
    optimizer_memo_entries: int
    #: worker pools the session has actually started (lazily)
    pools_started: int

    @property
    def entries_patched(self) -> int:
        """Plan-cache entries delta-patched in place by writes (kept warm)."""
        return self.totals.entries_patched

    @property
    def entries_invalidated(self) -> int:
        """Plan-cache entries dropped by write/replace invalidation."""
        return self.totals.entries_invalidated

    @property
    def source_operators(self) -> int:
        """Source operators executed across the session lifetime."""
        return self.totals.source_operators

    @property
    def operators_saved(self) -> int:
        """Operators cache hits avoided executing, session-wide."""
        return self.totals.operators_saved

    @property
    def plan_cache_hit_rate(self) -> float:
        """Fraction of plan-cache probes answered without execution."""
        return float(self.plan_cache.get("hit_rate", 0.0))

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict summary (reports, logging, benchmark tables)."""
        return {
            "queries": self.queries,
            "workloads": self.workloads,
            "source_queries": self.totals.source_queries,
            "source_operators": self.totals.source_operators,
            "reformulations": self.totals.reformulations,
            "operators_saved": self.totals.operators_saved,
            "plans_optimized": self.totals.plans_optimized,
            "optimizer_memo_hits": self.totals.optimizer_memo_hits,
            "optimizer_memo_entries": self.optimizer_memo_entries,
            "plan_cache": dict(self.plan_cache),
            "plan_cache_hit_rate": self.plan_cache_hit_rate,
            "entries_patched": self.entries_patched,
            "entries_invalidated": self.entries_invalidated,
            "pools_started": self.pools_started,
            "seconds": self.totals.total_seconds,
        }


class Session:
    """A persistent connection to one ``(database, mappings)`` pair.

    Parameters
    ----------
    database:
        The source instance ``D`` queries execute against.
    mappings:
        The possible mappings (a :class:`~repro.matching.mappings.MappingSet`).
    links:
        Optional source-schema join links shared by all reformulations.
    policy:
        The default :class:`ExecutionPolicy`; every call accepts keyword
        overrides (``session.query(q, method="e-mqo", engine="row")``)
        validated exactly like the policy itself.
    pools:
        Optional :class:`~repro.relational.parallel.PoolManager` to run the
        parallel engine's workers on.  Default: a private, session-owned
        manager whose pools start lazily and are shut down by
        :meth:`close`.  Pass
        :func:`repro.relational.parallel.default_manager` to share the
        process-wide pools instead (the benchmark harness does, so its
        session-per-point runs keep reusing warm workers); shared managers
        are left running on ``close()``.

    Sessions are context managers; :meth:`close` is idempotent and detaches
    the plan cache and shuts the worker pools down.  All cross-query state is
    invalidation-safe: replacing a relation wholesale through
    :meth:`~repro.relational.database.Database.set_relation` drops exactly
    the dependent plan-cache entries, while the write API
    (:meth:`~repro.relational.database.Database.append_rows` /
    ``update_rows`` / ``delete_rows``) publishes
    :class:`~repro.relational.relation.Delta` records.  An append *patches*
    the append-monotone plan-cache entries over the written relation, so a
    warm session survives interleaved appends without going cold; every
    other dependent entry is dropped.  Hash indexes, column statistics and
    the column/shard/vector caches are keyed by the relation's version and
    rebuild lazily on next use.  :attr:`stats` reports ``entries_patched`` /
    ``entries_invalidated`` so the saving is observable.
    """

    def __init__(
        self,
        database: Database,
        mappings,
        links: SchemaLinks | None = None,
        policy: ExecutionPolicy | None = None,
        pools=None,
    ):
        policy = _validated_policy(policy)
        from repro.relational.optimizer import Optimizer
        from repro.relational.parallel import PoolManager

        self.database = database
        self.mappings = mappings
        self.links = links
        self.policy = policy
        #: the session plan cache: one bounded LRU shared by every call
        self.plan_cache = PlanCache(maxsize=policy.cache_size)
        self.plan_cache.attach(database)
        #: the session optimizer: fingerprint memo + statistics catalog
        self.optimizer = Optimizer(database)
        #: worker pools (session-owned and lazily started unless injected)
        self._owns_pools = pools is None
        self.pools = PoolManager() if pools is None else pools
        #: per-query span trees when ``policy.trace`` is on (``None`` keeps
        #: every instrumented call site on its strict no-op path)
        self.tracer = Tracer() if policy.trace else None
        #: the session :class:`~repro.obs.metrics.MetricsRegistry`.  The
        #: series of :data:`_METRIC_VIEWS` are read-through: every collection
        #: (:meth:`metrics`, or a serving front end snapshotting the registry
        #: directly) reads the counts where they are kept.
        self.metrics_registry = MetricsRegistry(enabled=policy.metrics)
        # A weak reference: the registry the session owns must not keep the
        # session (and its plan cache) alive in a reference cycle.
        session = weakref.proxy(self)
        for name, help_text, labels, read in _METRIC_VIEWS:
            # Prometheus convention: a counter is a series named *_total.
            register = (
                self.metrics_registry.counter
                if name.endswith("_total")
                else self.metrics_registry.gauge
            )
            register(name, help_text, labels=labels).set_callback(partial(read, session))
        #: the most recent requests :meth:`serve` flagged as slow (bounded)
        self.slow_queries: deque[dict[str, Any]] = deque(maxlen=128)
        self._shared = SharedState(
            plan_cache=self.plan_cache,
            optimizer=self.optimizer,
            pools=self.pools,
            database=database,
            tracer=self.tracer,
        )
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._active = 0
        self._totals = ExecutionStats()
        self._queries = 0
        self._workloads = 0
        self._closed = False
        self._released = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the session's resources (idempotent).

        New serving calls raise ``RuntimeError`` immediately; calls already
        in flight are **drained** — close blocks until they finish, so a
        concurrent ``close()`` can never yank the worker pools out from
        under a running parallel query.  Then the plan cache is detached
        from the database's invalidation hooks and every worker pool the
        session started is shut down.  Statistics stay readable after
        closing.
        """
        with self._lock:
            self._closed = True
            # Every closer waits for the drain, so "close() returned"
            # always means "no call is in flight and resources are
            # released" — a second concurrent close() must not return
            # early while the first is still draining.
            while self._active:
                self._idle.wait()
            if self._released:
                return
            self._released = True
            self.plan_cache.detach(self.database)
            if self._owns_pools:
                self.pools.shutdown()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @contextmanager
    def _serving(self) -> Iterator[None]:
        """Mark one serving call in flight (close() drains these)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("session is closed")
            self._active += 1
        try:
            yield
        finally:
            with self._lock:
                self._active -= 1
                if not self._active:
                    self._idle.notify_all()

    @contextmanager
    def _traced(self, name: str, **attributes: Any) -> Iterator[None]:
        """A root session span + the ambient tracer, when tracing is on.

        ``activate`` makes the tracer ambient for the calling thread so the
        deep layers (phase timers, operator counters, kernels) record onto
        it; worker threads re-activate it themselves via the pool
        propagation in :func:`repro.relational.parallel.run_tasks`.
        """
        if self.tracer is None:
            yield
            return
        with activate(self.tracer), self.tracer.span(name, **attributes):
            yield

    # ------------------------------------------------------------------ #
    # serving calls
    # ------------------------------------------------------------------ #
    def query(self, query: TargetQuery, **overrides: Any) -> EvaluationResult:
        """Evaluate one probabilistic query under the session policy.

        ``overrides`` are per-call policy changes (``method=``, ``engine=``,
        ``optimize=``, ...), validated eagerly with did-you-mean errors.
        Returns an :class:`EvaluationResult`; a warm session returns
        byte-identical answers to a fresh one, having done less work.

        Two budget conveniences: ``budget=`` (a
        :class:`~repro.anytime.budget.Budget` or a dict of its fields) and
        ``budget_ms=`` (shorthand for ``budget=Budget(wall_ms=...)``).  A
        budget is a stop rule of the methods that read one (anytime, top-k);
        when the effective method reads none and no method is chosen
        explicitly, it implies ``method="anytime"``.  The returned
        :class:`~repro.anytime.progress.AnytimeResult` carries per-tuple
        probability intervals plus a ``resume()`` handle whose refinement
        steps keep feeding this session's statistics and metrics.
        """
        with self._serving():
            policy = self._resolve(self._budgeted(overrides))
            return self._evaluate(query, policy, "session.query", method=policy.method)

    def query_many(
        self, queries: Sequence[TargetQuery], **overrides: Any
    ) -> BatchResult:
        """Evaluate a workload with shared execution through the session cache.

        One MQO global plan covers the workload and the *session-owned* plan
        cache serves (and keeps) every shared materialization — a repeated
        workload's second pass reports plan-cache hits and executes strictly
        fewer source operators than its first.
        """
        with self._serving():
            policy = self._resolve(overrides, method="batch")
            with self._traced(
                "session.workload", queries=len(queries), engine=policy.engine
            ):
                evaluator = BatchEvaluator(
                    links=self.links,
                    shared=self._shared,
                    **policy.evaluator_options(),
                )
                batch = evaluator.evaluate_many(queries, self.mappings, self.database)
                self._record(batch.stats, workloads=1)
                return batch

    def top_k(
        self, query: TargetQuery, k: int | None = None, **overrides: Any
    ) -> EvaluationResult:
        """Evaluate a probabilistic top-k query (Section VII).

        ``k`` defaults to the policy's ``k``; one of the two must be set.
        ``budget=`` / ``budget_ms=`` add the budget stop rule, as on
        :meth:`query`: the result is then a resumable
        :class:`~repro.anytime.progress.AnytimeResult`.
        """
        with self._serving():
            if k is not None:
                overrides = {**overrides, "k": k}
            policy = self._resolve(self._budgeted(overrides, "top-k"), method="top-k")
            return self._evaluate(query, policy, "session.top_k", k=policy.k)

    def _evaluate(
        self, query: TargetQuery, policy: ExecutionPolicy, span: str, **attributes: Any
    ) -> EvaluationResult:
        """Run one query on the registry evaluator of ``policy.method``."""
        with self._traced(span, query=query.name, engine=policy.engine, **attributes):
            evaluator = EVALUATORS[policy.method](
                links=self.links, shared=self._shared, **policy.evaluator_options()
            )
            if policy.method == "batch":
                # A batch evaluation of one query keeps its planning-phase
                # counters on the workload-level stats; record those so the
                # session lifetime totals stay complete.
                batch = evaluator.evaluate_many([query], self.mappings, self.database)
                self._record(batch.stats, queries=1)
                return batch.results[0]
            result = evaluator.evaluate(query, self.mappings, self.database)
            self._record(result.stats, queries=1)
            if isinstance(result, AnytimeResult):
                self._observe_anytime(result)
            return result

    def _budgeted(
        self, overrides: dict[str, Any], method: str | None = None
    ) -> dict[str, Any]:
        """Normalise the ``budget=``/``budget_ms=`` conveniences.

        ``budget_ms`` becomes ``budget=Budget(wall_ms=...)``.  A budget
        implies ``method="anytime"`` only when no method was chosen and the
        effective method (the call's ``method``, else the session's) reads
        no budget — ``check_applicable`` would rightly reject the pair
        otherwise; top-k and anytime read it themselves.  Top-k reads only a
        per-call budget (see :meth:`_resolve`).
        """
        if "budget_ms" in overrides:
            if overrides.get("budget") is not None:
                raise ValueError("pass budget= or budget_ms=, not both")
            from repro.anytime.budget import Budget

            overrides = dict(overrides)
            overrides["budget"] = Budget(wall_ms=overrides.pop("budget_ms"))
        if (
            overrides.get("budget") is not None
            and "method" not in overrides
            and not reads(method or self.policy.method, "budget")
        ):
            overrides = {**overrides, "method": "anytime"}
        return overrides

    def _observe_anytime(self, result, resumed: bool = False) -> None:
        """Wire one anytime result into the session's obs surfaces.

        The result's continuation reports back here on every ``resume()``
        step, so refinement work done through the handle keeps the session
        lifetime totals, gauges and exhaustion counters honest.
        """
        continuation = getattr(result, "continuation", None)
        if continuation is not None:
            continuation.observer = self._anytime_resumed
        registry = self.metrics_registry
        if not registry.enabled:
            return
        registry.counter(
            "repro_anytime_resumes_total" if resumed else "repro_anytime_queries_total",
            "Anytime resume() refinement steps served."
            if resumed
            else "Anytime queries the session served.",
        ).inc()
        registry.gauge(
            "repro_anytime_unexplored_mass",
            "Unexplored probability mass after the most recent anytime drive.",
        ).set(result.unexplored_mass)
        if result.stopped_by_budget:
            registry.counter(
                "repro_anytime_budget_exhausted_total",
                "Anytime drives stopped by their budget before the frontier drained.",
            ).inc()

    def _anytime_resumed(self, step_stats: ExecutionStats, result) -> None:
        """Continuation callback: account one resume() step to the session."""
        self._record(step_stats)
        self._observe_anytime(result, resumed=True)

    def _resolve(
        self, overrides: dict[str, Any], method: str | None = None
    ) -> ExecutionPolicy:
        """The effective per-call policy (validated like the policy itself).

        ``cache_size`` sizes the *session-owned* plan cache, fixed when the
        session is created — a per-call attempt to change it would be
        silently ignored, so it is rejected instead.  Likewise an explicit
        override the effective ``method`` would ignore (``strategy`` on a
        batch call, say) is rejected, not dropped.
        """
        if (
            "cache_size" in overrides
            and overrides["cache_size"] != self.policy.cache_size
        ):
            raise ValueError(
                "cache_size sizes the session-owned plan cache and is fixed "
                "when the session is created; open the session with "
                f"ExecutionPolicy(cache_size={overrides['cache_size']}) instead"
            )
        # Same story for the observability wiring: the tracer and metrics
        # registry are constructed with the session, so a per-call attempt to
        # toggle them would be silently ignored — reject it instead.
        for fixed in ("trace", "metrics"):
            if fixed in overrides and overrides[fixed] != getattr(self.policy, fixed):
                raise ValueError(
                    f"{fixed} wires the session-owned observability state and "
                    "is fixed when the session is created; open the session "
                    f"with ExecutionPolicy({fixed}={overrides[fixed]}) instead"
                )
        explicit = overrides.get("method")
        if (
            method is not None
            and explicit is not None
            and str(explicit).lower() != method
        ):
            raise ValueError(
                f"method override {explicit!r} does not apply here: this "
                f"call always runs {method!r} (use session.query for a "
                "per-call method choice)"
            )
        policy = self.policy.with_overrides(**overrides)
        if method is not None:
            policy = policy.with_defaults(method=method)
        check_applicable(policy.method, (name for name in overrides if name != "method"))
        if policy.method == "top-k" and overrides.get("budget") is None:
            # Top-k's budget is a per-call stop rule; a session default
            # budget configures anytime calls, not top-k ones.
            policy = policy.with_defaults(budget=None)
        return policy

    def serve(
        self, requests: Iterable[TargetQuery | tuple[TargetQuery, dict]]
    ) -> Iterator[EvaluationResult]:
        """The serving loop: answer a stream of requests on warm caches.

        ``requests`` yields target queries, or ``(query, overrides)`` pairs
        for per-request policy changes.  Results are yielded in request
        order as they complete; the stream may be unbounded (a generator
        draining a network queue, for instance) — the session never buffers
        more than the request in flight::

            for result in session.serve(request_stream()):
                respond(result.answers)

        Every request is timed end to end (the ``repro_request_seconds``
        histogram when metrics are on), and a request slower than the
        policy's ``slow_query_seconds`` threshold is appended to
        :attr:`slow_queries` (a bounded deque) and logged as a warning on
        the ``repro.session`` logger.
        """
        threshold = self.policy.slow_query_seconds
        for request in requests:
            if isinstance(request, tuple):
                query, overrides = request
                overrides = dict(overrides)
            else:
                query, overrides = request, {}
            started = perf_counter()
            result = self.query(query, **overrides)
            elapsed = perf_counter() - started
            self._observe_request(query, elapsed, threshold)
            yield result

    def _observe_request(
        self, query: TargetQuery, elapsed: float, threshold: float | None
    ) -> None:
        """Record one served request's end-to-end timing (serve loop only)."""
        registry = self.metrics_registry
        if registry.enabled:
            registry.histogram(
                "repro_request_seconds",
                "End-to-end wall-clock of requests answered by serve().",
            ).observe(elapsed)
        if threshold is None or elapsed < threshold:
            return
        self.slow_queries.append(
            {
                "query": query.name,
                "seconds": round(elapsed, 6),
                "threshold": threshold,
            }
        )
        if registry.enabled:
            registry.counter(
                "repro_slow_queries_total",
                "Served requests slower than slow_query_seconds.",
            ).inc()
        logger.warning(
            "slow query %s: %.1f ms (threshold %.1f ms)",
            query.name,
            elapsed * 1000,
            threshold * 1000,
        )

    def explain(
        self, query: TargetQuery, mapping_index: int = 0, analyze: bool = False
    ) -> str:
        """What the optimizer does to ``query``'s reformulated source plan.

        Reformulates the query under the ``mapping_index``-th possible
        mapping (0 = most probable) and renders the logical plan, the
        optimized plan and estimated vs actual rows — through the *session*
        optimizer, so the memo and statistics it warms benefit later calls.
        ``analyze=True`` additionally annotates every executed node with its
        measured wall-clock (inclusive of children) and reports total
        execution time.
        """
        with self._serving():
            from repro.core.reformulation import reformulate_query
            from repro.relational.optimizer import explain as explain_plan

            plan = reformulate_query(query, self.mappings[mapping_index], self.links)
            return explain_plan(
                plan,
                self.database,
                optimizer=self.optimizer,
                engine=self.policy.engine,
                analyze=analyze,
            )

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def _record(self, stats: ExecutionStats, queries: int = 0, workloads: int = 0) -> None:
        with self._lock:
            self._totals.merge(stats)
            self._queries += queries
            self._workloads += workloads
        registry = self.metrics_registry
        if not registry.enabled:
            return
        for stage, seconds in stats.phase_seconds.items():
            registry.histogram(
                "repro_stage_seconds",
                "Per-call wall-clock of each execution stage.",
                labels={"stage": stage},
            ).observe(seconds)
        registry.histogram(
            "repro_call_seconds",
            "End-to-end wall-clock of serving calls.",
            labels={"kind": "workload" if workloads else "query"},
        ).observe(stats.total_seconds)
        if queries:
            registry.counter(
                "repro_queries_total", "Single queries the session served."
            ).inc(queries)
        if workloads:
            registry.counter(
                "repro_workloads_total", "Workloads (query_many calls) served."
            ).inc(workloads)

    @property
    def stats(self) -> SessionStats:
        """Aggregate hit rates and operators saved across the session lifetime."""
        totals = ExecutionStats()
        with self._lock:
            # Copy under the lock: a snapshot must not alias the live
            # accumulator (held snapshots would mutate retroactively, and a
            # concurrent _record() could be observed half-merged).
            totals.merge(self._totals)
            queries = self._queries
            workloads = self._workloads
        # The write-maintenance counters accrue where writes are handled
        # (they arrive through Database hooks, not through evaluator calls),
        # so they are filled into the snapshot copy — from the cache's
        # *locked* snapshot, so a concurrent hit can never be observed
        # half-recorded (hits incremented, operators_saved not yet).
        cache = self.plan_cache.stats_snapshot()
        totals.entries_patched = cache["patches"]
        totals.entries_invalidated = cache["invalidations"]
        return SessionStats(
            queries=queries,
            workloads=workloads,
            totals=totals,
            plan_cache=cache,
            optimizer_memo_entries=len(self.optimizer),
            pools_started=self.pools.started_pools,
        )

    def metrics(self) -> MetricsSnapshot:
        """A point-in-time :class:`~repro.obs.metrics.MetricsSnapshot`.

        The same as snapshotting :attr:`metrics_registry` directly: cache,
        lifetime-total, optimizer and pool series read through to the
        engine's own counters at collection time.  The snapshot renders to
        JSON (``to_json()``) and Prometheus text format
        (``to_prometheus()``); with ``policy.metrics`` off it is empty and
        flagged ``enabled=False``.
        """
        return self.metrics_registry.snapshot()

    @property
    def stats_catalog(self):
        """The (lazy, version-keyed) statistics catalog the optimizer reads."""
        return self.database.stats_catalog

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"Session({self.database!r}, mappings={getattr(self.mappings, 'size', '?')}, "
            f"method={self.policy.method!r}, {state})"
        )


def _cache_stat(key: str):
    """Read one key of the plan cache's lock-guarded statistics snapshot."""
    return lambda session: session.plan_cache.stats_snapshot()[key]


def _lifetime_total(name: str):
    """Read one counter of the session's cumulative :class:`ExecutionStats`."""
    return lambda session: getattr(session._totals, name)


#: The registry series that are views of counts kept where their events
#: happen: ``(name, help, labels, read(session))``, registered once per
#: session.  Nothing else about these series exists anywhere.
_METRIC_VIEWS = (
    (
        "repro_plan_cache_lookups_total",
        "Plan-cache probes, by outcome.",
        {"outcome": "hit"},
        _cache_stat("hits"),
    ),
    (
        "repro_plan_cache_lookups_total",
        "Plan-cache probes, by outcome.",
        {"outcome": "miss"},
        _cache_stat("misses"),
    ),
    (
        "repro_plan_cache_evictions_total",
        "Plan-cache LRU evictions.",
        None,
        _cache_stat("evictions"),
    ),
    (
        "repro_plan_cache_invalidations_total",
        "Plan-cache entries dropped by write invalidation.",
        None,
        _cache_stat("invalidations"),
    ),
    (
        "repro_plan_cache_patches_total",
        "Plan-cache entries delta-patched in place by writes.",
        None,
        _cache_stat("patches"),
    ),
    (
        "repro_operators_saved_total",
        "Source operators cache hits avoided executing.",
        None,
        _cache_stat("operators_saved"),
    ),
    (
        "repro_plan_cache_entries",
        "Entries currently cached.",
        None,
        _cache_stat("entries"),
    ),
    (
        "repro_plan_cache_hit_rate",
        "Fraction of plan-cache probes answered without execution.",
        None,
        _cache_stat("hit_rate"),
    ),
    (
        "repro_source_queries_total",
        "Source queries executed.",
        None,
        _lifetime_total("source_queries"),
    ),
    (
        "repro_source_operators_total",
        "Source operators executed.",
        None,
        _lifetime_total("source_operators"),
    ),
    (
        "repro_reformulations_total",
        "Query reformulations performed.",
        None,
        _lifetime_total("reformulations"),
    ),
    (
        "repro_plans_optimized_total",
        "Plans run through the optimizer.",
        None,
        _lifetime_total("plans_optimized"),
    ),
    (
        "repro_optimizer_memo_hits_total",
        "Optimizer memo hits.",
        None,
        _lifetime_total("optimizer_memo_hits"),
    ),
    (
        "repro_eunits_created_total",
        "E-units created in u-traces (o-sharing/top-k/anytime).",
        None,
        _lifetime_total("eunits_created"),
    ),
    (
        "repro_eunits_pruned_total",
        "E-units discarded through the empty-intermediate shortcut.",
        None,
        _lifetime_total("eunits_pruned"),
    ),
    (
        "repro_mappings_evaluated_total",
        "Mappings carried by created e-units (anytime progress signal).",
        None,
        _lifetime_total("mappings_evaluated"),
    ),
    (
        "repro_optimizer_memo_entries",
        "Plans currently memoized.",
        None,
        lambda session: len(session.optimizer),
    ),
    (
        "repro_pool_queue_depth",
        "Tasks submitted to the session worker pools but not yet running.",
        None,
        lambda session: float(session.pools.queue_depth()),
    ),
    (
        "repro_pools_started",
        "Worker pools the session has started.",
        None,
        lambda session: session.pools.started_pools,
    ),
)


def _validated_policy(policy: ExecutionPolicy | None) -> ExecutionPolicy:
    """Shared type boundary of :class:`Session` and :func:`connect`."""
    if policy is None:
        return ExecutionPolicy()
    if not isinstance(policy, ExecutionPolicy):
        raise ValueError(
            "policy must be an ExecutionPolicy "
            f"(got {type(policy).__name__}); build one with "
            "ExecutionPolicy(method=..., engine=...) or pass keyword "
            "overrides to the individual calls"
        )
    return policy


def connect(
    scenario,
    policy: ExecutionPolicy | None = None,
    pools=None,
    **overrides: Any,
) -> Session:
    """Open a :class:`Session` on a scenario (or any scenario-shaped object).

    ``scenario`` needs ``database``, ``mappings`` and (optionally) ``links``
    attributes — a :class:`~repro.datagen.scenario.MatchingScenario` fits.
    ``pools`` forwards to :class:`Session` (pass
    :func:`repro.relational.parallel.default_manager` to share the
    process-wide worker pools).  Keyword overrides configure the policy in
    place::

        with repro.connect(scenario, method="e-mqo", engine="parallel") as s:
            result = s.query(query)
    """
    base = _validated_policy(policy)
    return Session(
        scenario.database,
        scenario.mappings,
        links=getattr(scenario, "links", None),
        # Session-level configuration, not a per-call override: fields set
        # here are defaults for whichever later calls read them.
        policy=base.with_defaults(**overrides),
        pools=pools,
    )
