"""The :class:`Optimizer` facade: rule pipeline, memoization, reporting.

One optimizer instance serves one database.  ``optimize(plan)`` runs the
rewrite pipeline (constant folding → selection merging → predicate pushdown →
join conversion → empty short-circuit → cost-based join ordering → projection
pruning) and memoizes the result per canonical plan fingerprint, guarded by
the data-version tokens of every base relation the plan scans — the same
freshness discipline as :class:`~repro.relational.plancache.PlanCache` — so a
mutated relation transparently re-optimizes while identical source queries
(e.g. the *basic* evaluator's duplicate reformulations) are planned once.

The optimizer is engine-agnostic: it rewrites logical plans before the
executor dispatches them, so the row and the columnar engine execute the same
optimized plan and keep producing byte-identical results.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace

from repro.relational.algebra import Materialized, PlanNode, Provenance, plan_scans
from repro.relational.optimizer.analysis import PlanAnnotator
from repro.relational.optimizer.ordering import reorder_joins
from repro.relational.optimizer.rules import (
    RewriteContext,
    convert_products,
    fold_constants,
    merge_selects,
    prune_projections,
    push_predicates,
    shortcircuit_empty,
)
from repro.relational.optimizer.statistics import StatsCatalog
from repro.relational.stats import ExecutionStats

#: Maximum merge+pushdown sweeps before declaring a fixpoint.
MAX_PUSHDOWN_SWEEPS = 8


@dataclass
class OptimizationReport:
    """The outcome of optimizing one plan."""

    plan: PlanNode
    #: rewrite rules fired, keyed by rule name
    rules: Counter = field(default_factory=Counter)
    #: join orders examined by the cost-based ordering search
    join_orders_considered: int = 0
    #: estimated cardinality of the optimized plan's root
    estimated_rows: float = 0.0
    #: data-version token per scanned base relation at optimization time
    dependencies: dict[str, int] = field(default_factory=dict)
    #: True when this report was answered from the optimizer memo
    memo_hit: bool = False

    @property
    def rules_fired(self) -> int:
        """Total number of rule applications."""
        return sum(self.rules.values())


class Optimizer:
    """Cost-based optimizer over one database's statistics.

    Parameters
    ----------
    database:
        The database plans will be executed against (supplies schemas for
        inference and, through its :attr:`~repro.relational.database.Database.stats_catalog`,
        the statistics the cost model reads).
    catalog:
        Optional explicit :class:`StatsCatalog` (defaults to the database's).
    memo_size:
        Bound of the canonical-fingerprint memo (LRU-evicted).
    reorder:
        Disable to skip the join-ordering search (rules still run).
    """

    def __init__(
        self,
        database,
        catalog: StatsCatalog | None = None,
        memo_size: int = 512,
        reorder: bool = True,
    ):
        self.database = database
        self.catalog = catalog if catalog is not None else database.stats_catalog
        self.memo_size = memo_size
        self.reorder = reorder
        self._memo: "OrderedDict[str, OptimizationReport]" = OrderedDict()
        #: version-keyed Scan infos shared by every per-pass annotator
        self._scan_cache: dict = {}
        # The memo's OrderedDict reordering/eviction is not atomic; a session
        # shares one optimizer between concurrently running queries, so memo
        # access is lock-guarded (the rewrite pipeline itself runs outside
        # the lock — two threads may redundantly optimize the same new plan,
        # which is correct, just not shared).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    def optimize(
        self,
        plan: PlanNode,
        stats: ExecutionStats | None = None,
        provenance: Provenance | None = None,
    ) -> PlanNode:
        """The optimized plan for ``plan`` (recording counters into ``stats``)."""
        report = self.optimize_with_report(plan, provenance)
        if stats is not None:
            stats.count_optimization(
                rules=None if report.memo_hit else report.rules,
                join_orders=0 if report.memo_hit else report.join_orders_considered,
                estimated_rows=report.estimated_rows,
                memo_hit=report.memo_hit,
            )
        return report.plan

    def optimize_with_report(
        self, plan: PlanNode, provenance: Provenance | None = None
    ) -> OptimizationReport:
        """Optimize ``plan`` and return the full :class:`OptimizationReport`.

        ``provenance`` (``provenance_of(plan)``, from a caller whose
        materialised leaves carry theirs) keys the memo by what computed
        the leaves instead of by their identity, so a plan over freshly
        computed leaves of the same provenance is planned once.
        """
        if self._is_trivial(plan):
            # o-sharing executes thousands of single-operator plans over
            # Materialized leaves; no rewrite rule can improve such a plan,
            # so skip the pipeline (and the memo) entirely.
            return OptimizationReport(plan=plan)
        leaves: list[Materialized] = []
        if provenance is None:
            key, relations = plan.canonical(), frozenset()
        else:
            key, relations = provenance.key, provenance.relations
            leaves = [node for node in plan.walk() if isinstance(node, Materialized)]
        with self._lock:
            cached = self._memo.get(key)
            if cached is not None:
                if self._fresh(cached):
                    self._memo.move_to_end(key)
                    if leaves:
                        return replace(cached, plan=_fill(cached.plan, leaves), memo_hit=True)
                    return replace(cached, memo_hit=True)
                del self._memo[key]
        report = self._run_pipeline(plan, relations)
        memoized = report
        if leaves:
            # Memoize a template: the next call's leaves hold the same rows
            # and go in their place, and this call's stay unpinned.
            memoized = replace(report, plan=_template(report.plan, leaves))
        with self._lock:
            self._memo[key] = memoized
            while len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)
        return report

    def __len__(self) -> int:
        return len(self._memo)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _is_trivial(plan: PlanNode) -> bool:
        """True for single-operator plans whose inputs are all materialised.

        No rule can improve them: merging/pushdown/conversion need at least
        two operators, reordering needs three units, and the empty/statistics
        rules only act on base-relation scans.
        """
        operators = 0
        for node in plan.walk():
            if isinstance(node, Materialized):
                continue
            if not node.children():
                return False  # a base-relation scan: statistics rules apply
            operators += 1
            if operators > 1:
                return False
        return True

    def _fresh(self, report: OptimizationReport) -> bool:
        for name, version in report.dependencies.items():
            try:
                if self.database.relation(name).version != version:
                    return False
            except KeyError:
                return False
        return True

    def _dependencies(self, plan: PlanNode, relations: frozenset[str]) -> dict[str, int]:
        return self.catalog.versions({scan.relation for scan in plan_scans(plan)} | relations)

    def _run_pipeline(self, plan: PlanNode, relations: frozenset[str]) -> OptimizationReport:
        dependencies = self._dependencies(plan, relations)
        ctx = RewriteContext(
            PlanAnnotator(self.database, self.catalog, self._scan_cache)
        )
        try:
            optimized = self._apply_rules(plan, ctx)
        except Exception:
            # An optimizer failure must never take a query down: execute the
            # original plan and record the abort.
            ctx.trace["aborted"] += 1
            optimized = plan
        estimated = 0.0
        try:
            estimated = ctx.info(optimized).est_rows
        except Exception:
            pass
        return OptimizationReport(
            plan=optimized,
            rules=ctx.trace,
            join_orders_considered=ctx.join_orders_considered,
            estimated_rows=estimated,
            dependencies=dependencies,
        )

    def _apply_rules(self, plan: PlanNode, ctx: RewriteContext) -> PlanNode:
        plan = fold_constants(plan, ctx)
        for _ in range(MAX_PUSHDOWN_SWEEPS):
            # transform() rebuilds nodes even when no rule fires, so progress
            # is detected on the canonical form, not on object identity.
            before = plan.canonical()
            plan = merge_selects(plan, ctx)
            plan = push_predicates(plan, ctx)
            if plan.canonical() == before:
                break
        plan = convert_products(plan, ctx)
        plan = shortcircuit_empty(plan, ctx)
        if self.reorder:
            plan = reorder_joins(plan, ctx)
        plan = prune_projections(plan, ctx)
        return plan


# --------------------------------------------------------------------------- #
# memo templates for plans over materialised leaves
# --------------------------------------------------------------------------- #
class _Slot(PlanNode):
    """The ``index``-th materialised leaf of the plan a template was optimized from."""

    def __init__(self, index: int):
        self.index = index

    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def with_children(self, children) -> PlanNode:
        return self

    def canonical(self) -> str:
        return f"Slot({self.index})"


def _template(plan: PlanNode, leaves: list[Materialized]) -> PlanNode:
    """``plan`` with every leaf of ``leaves`` replaced by its slot."""
    slots = {id(leaf): index for index, leaf in enumerate(leaves)}
    return plan.transform(
        lambda node: _Slot(slots[id(node)]) if id(node) in slots else node
    )


def _fill(template: PlanNode, leaves: list[Materialized]) -> PlanNode:
    """The plan a template stands for, over this call's ``leaves``."""
    return template.transform(
        lambda node: leaves[node.index] if isinstance(node, _Slot) else node
    )
