"""Execution statistics collected by the engine and the evaluators.

The paper's evaluation reports two kinds of cost: wall-clock time split into
phases (query rewriting, query evaluation, answer aggregation) and the number
of *source operators* executed (Table IV).  :class:`ExecutionStats` collects
both, plus row counters that are useful when debugging the evaluators.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Iterator

from repro.obs.trace import current_tracer


@dataclass
class ExecutionStats:
    """Mutable accumulator of execution counters.

    All evaluators accept (or create) one of these; the benchmark harness
    reads it back to populate the per-figure tables.
    """

    #: number of executed operators, keyed by operator class name
    operators: Counter = field(default_factory=Counter)
    #: number of complete source queries executed (basic/e-basic/e-MQO/q-sharing)
    source_queries: int = 0
    #: number of source-level operators executed (o-sharing counts these directly)
    source_operators: int = 0
    #: number of source queries *rewritten* (translation effort)
    reformulations: int = 0
    #: number of mapping partitions produced by partition()/next()
    partitions_created: int = 0
    #: rows read from base relations
    rows_scanned: int = 0
    #: rows produced by the root operators of executed plans
    rows_output: int = 0
    #: plan-cache hits: shared subexpressions answered without execution
    plan_cache_hits: int = 0
    #: plan-cache misses: subexpressions the cache had to execute and store
    plan_cache_misses: int = 0
    #: operators *not* executed thanks to plan-cache hits (the MQO saving)
    operators_saved: int = 0
    #: plans run through the cost-based optimizer (memo hits included)
    plans_optimized: int = 0
    #: optimizer-memo hits (identical plans optimized once per fingerprint)
    optimizer_memo_hits: int = 0
    #: optimizer rewrite rules fired, keyed by rule name
    optimizer_rules: Counter = field(default_factory=Counter)
    #: join orders examined by the cost-based join-ordering search
    join_orders_considered: int = 0
    #: estimated root-result rows across all optimized plans
    estimated_rows: float = 0.0
    #: plan-cache entries delta-patched in place by writes (kept warm)
    entries_patched: int = 0
    #: plan-cache entries dropped by write/replace invalidation
    entries_invalidated: int = 0
    #: e-units created in the u-trace (o-sharing/top-k/anytime)
    eunits_created: int = 0
    #: e-units settled without answer tuples (empty intermediate or result)
    eunits_pruned: int = 0
    #: mappings carried by created e-units (the anytime progress signal)
    mappings_evaluated: int = 0
    #: per-phase wall-clock seconds
    phase_seconds: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def count_operator(self, name: str, rows_in: int = 0, rows_out: int = 0) -> None:
        """Record the execution of one operator."""
        self.operators[name] += 1
        self.source_operators += 1
        self.rows_scanned += rows_in
        self.rows_output += rows_out
        tracer = current_tracer()
        if tracer is not None:
            # Counted exactly as the stats see it, attached to whichever
            # span is innermost (the executor's operator span) — so the
            # trace can never disagree with the gated operator counters.
            tracer.event("operator", op=name, rows_in=rows_in, rows_out=rows_out)

    def count_source_query(self) -> None:
        """Record the execution of one complete source query."""
        self.source_queries += 1

    def count_reformulation(self, amount: int = 1) -> None:
        """Record query/operator rewriting work."""
        self.reformulations += amount

    def count_partitions(self, amount: int) -> None:
        """Record mapping partitions produced."""
        self.partitions_created += amount

    def count_cache_hit(self, operators_saved: int = 0) -> None:
        """Record a plan-cache hit and the operators it avoided executing."""
        self.plan_cache_hits += 1
        self.operators_saved += operators_saved

    def count_cache_miss(self) -> None:
        """Record a plan-cache miss (the subexpression had to be executed)."""
        self.plan_cache_misses += 1

    def count_optimization(
        self,
        rules: Counter | dict | None = None,
        join_orders: int = 0,
        estimated_rows: float = 0.0,
        memo_hit: bool = False,
    ) -> None:
        """Record one pass of a plan through the cost-based optimizer."""
        self.plans_optimized += 1
        if memo_hit:
            self.optimizer_memo_hits += 1
        if rules:
            self.optimizer_rules.update(rules)
        self.join_orders_considered += join_orders
        self.estimated_rows += estimated_rows

    def count_eunit(self, mappings: int) -> None:
        """Record one e-unit entering the u-trace with ``mappings`` mappings."""
        self.eunits_created += 1
        self.mappings_evaluated += mappings

    def count_eunit_pruned(self) -> None:
        """Record one e-unit settled without answer tuples."""
        self.eunits_pruned += 1

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager accumulating wall-clock time into ``phase_seconds[name]``.

        With an ambient tracer active (a session serving a traced call) the
        phase additionally opens a ``phase:<name>`` span, so the per-stage
        split the paper reports shows up in the span tree without touching
        the six evaluators.  The untraced cost is one thread-local read.
        """
        tracer = current_tracer()
        if tracer is None:
            started = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - started
                self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed
            return
        with tracer.span(f"phase:{name}") as span:
            started = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - started
                self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed
                span.attributes["seconds"] = round(elapsed, 6)

    # ------------------------------------------------------------------ #
    @property
    def total_operators(self) -> int:
        """Total number of operators executed."""
        return sum(self.operators.values())

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time across all recorded phases."""
        return sum(self.phase_seconds.values())

    def merge(self, other: "ExecutionStats") -> None:
        """Fold another stats object into this one (every field, summed)."""
        for name in _FIELD_NAMES:
            mine, theirs = getattr(self, name), getattr(other, name)
            if isinstance(mine, dict):
                for key, amount in theirs.items():
                    mine[key] = mine.get(key, 0) + amount
            else:
                setattr(self, name, mine + theirs)

    def snapshot(self) -> dict:
        """A plain-dict snapshot used by the benchmark reporting layer."""
        snapshot = {}
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            snapshot[name] = dict(value) if isinstance(value, dict) else value
        return snapshot

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        phases = ", ".join(f"{name}={seconds:.3f}s" for name, seconds in self.phase_seconds.items())
        return (
            f"ExecutionStats(source_queries={self.source_queries}, "
            f"source_operators={self.source_operators}, "
            f"reformulations={self.reformulations}, phases=[{phases}])"
        )


#: The counters, in declaration order: ``merge`` and ``snapshot`` cover
#: exactly the dataclass fields, so a new counter is declared once.
_FIELD_NAMES = tuple(f.name for f in fields(ExecutionStats))
