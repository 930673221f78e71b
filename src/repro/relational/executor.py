"""Plan executor.

The executor evaluates a :class:`~repro.relational.algebra.PlanNode` tree
against a :class:`~repro.relational.database.Database` and returns a
:class:`~repro.relational.relation.Relation`.  It is deliberately simple —
recursive, materialising — because every algorithm in the paper manipulates
*which* operators get executed, not *how* an individual operator is executed.

*How* an operator is executed is nevertheless pluggable: the ``engine``
switch selects between the original tuple-at-a-time interpreter (``"row"``),
a columnar batch engine (``"columnar"``, the default) that evaluates
operators column-wise over :class:`~repro.relational.columnar.ColumnBatch`
instances with predicates compiled once per operator, a parallel sharded
engine (``"parallel"``) that runs the columnar operators in contiguous
morsels on a thread pool (:mod:`repro.relational.parallel`) and falls back
*per node* to the serial columnar code whenever an input is too small to
shard, and a NumPy-vectorized engine (``"vector"``, requires the optional
NumPy extra) that replaces the columnar sweeps with dtype-specialized array
kernels (:mod:`repro.relational.vector`) and falls back *per node* to the
serial columnar code for columns without a clean dtype.  All engines produce
identical relations, identical :class:`ExecutionStats` counters and share
the hash-index fast path, the plan cache and the materialization policies;
the columnar engine is simply faster, the parallel engine shards the
columnar sweeps across cores and the vector engine replaces them with
C-speed array kernels (the ``engine-columnar``, ``engine-parallel`` and
``engine-vector`` rows of ``benchmarks/system/claims.py`` measure each).

Two physical optimisations are implemented because the figures depend on
realistic relative costs:

* equality selections directly above a base-relation scan use a hash index
  (a conjunction containing such an equality looks up the index and filters
  the candidates with the full predicate);
* equi-joins use a hash join — on a *composite* key when several equality
  conjuncts connect the two inputs; all other joins and Cartesian products
  are nested loops.

Logical optimisation is the job of :mod:`repro.relational.optimizer`: when an
``optimizer`` is supplied, every plan handed to :meth:`Executor.execute` is
rewritten (and memoized per canonical fingerprint) before dispatch, for both
engines alike.

Each executed operator is recorded in an
:class:`~repro.relational.stats.ExecutionStats` so that evaluators can report
the number of source operators they ran (Table IV of the paper).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, repeat
from typing import Any

from repro.relational.algebra import (
    Aggregate,
    Join,
    Materialized,
    PlanNode,
    Product,
    Project,
    Provenance,
    Scan,
    Select,
    Union,
)
from repro.relational.columnar import ColumnBatch, expression_values, predicate_mask
from repro.relational.database import Database
from repro.relational.expressions import ColumnRef, Literal
from repro.relational.plancache import MaterializationPolicy, MaterializeAll, PlanCache
from repro.relational.predicates import Comparison, Predicate, conjunction
from repro.relational.relation import Relation, combine_labels, unique_labels
from repro.relational.stats import ExecutionStats
from repro.relational.types import (
    FAMILY_EMPTY,
    FAMILY_NUMERIC,
    FAMILY_STRING,
    _try_parse_number,
    column_family,
    hash_compatible,
)
from repro.relational.vector import (
    numpy_available,
    vector_distinct_indices,
    vector_group_indices,
    vector_join_indices,
    vector_product_select_positions,
    vector_select_indices,
    vector_union_distinct_indices,
)

#: Every engine this build knows about (``"vector"`` additionally needs the
#: optional NumPy dependency — see :func:`available_engines`).
ENGINES = ("row", "columnar", "parallel", "vector")

#: Engine used when none is requested (the columnar batch engine).
DEFAULT_ENGINE = "columnar"

#: Engines that evaluate plans over :class:`ColumnBatch` instances.
_BATCH_ENGINES = ("columnar", "parallel", "vector")


def _same(relation: Relation) -> Relation:
    """The row engine's results are the relations the plan cache stores."""
    return relation


def available_engines() -> tuple[str, ...]:
    """The engines usable in this environment.

    ``"vector"`` requires NumPy (an optional extra); without it the engine is
    excluded here and requesting it raises a ``ValueError`` naming exactly
    this list.
    """
    if numpy_available():
        return ENGINES
    return tuple(engine for engine in ENGINES if engine != "vector")


def check_engine(engine: str) -> None:
    """Raise ``ValueError`` unless ``engine`` is usable in this environment.

    The one engine check every constructor runs (executors and evaluators),
    so an unknown name and a missing NumPy fail with the same message at
    every boundary.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; available: {available_engines()}"
        )
    if engine == "vector" and not numpy_available():
        raise ValueError(
            "engine 'vector' requires NumPy, which is not installed; "
            f"available: {available_engines()} "
            "(install the optional extra: pip install repro[vector])"
        )


class Executor:
    """Evaluates relational-algebra plans against a database.

    When a :class:`~repro.relational.plancache.PlanCache` is supplied, the
    executor consults a materialization policy at every node: nodes the
    policy selects are answered from the cache when possible (recording a
    plan-cache hit and the operators saved in :class:`ExecutionStats`) and
    stored after execution otherwise.  This is how e-MQO's global plan and
    the batch serving API share work across source queries; without a cache
    the executor behaves exactly as before.

    ``engine`` selects the operator implementations: ``"columnar"`` (default)
    evaluates whole batches column-wise, ``"row"`` interprets tuple-at-a-time,
    ``"parallel"`` runs the columnar operators morsel-wise over a thread
    pool (tuned by ``parallel``, a
    :class:`~repro.relational.parallel.ParallelConfig`; ``ParallelConfig()``
    applies when omitted) and falls back per node to the serial columnar
    code for inputs below the sharding threshold, and ``"vector"`` (requires
    NumPy) runs dtype-specialized array kernels and falls back per node for
    columns the kernels cannot represent exactly.  A plan node the columnar
    engine has no implementation for falls back to the row implementation
    transparently.
    """

    def __init__(
        self,
        database: Database,
        stats: ExecutionStats | None = None,
        cache: PlanCache | None = None,
        policy: MaterializationPolicy | None = None,
        engine: str = DEFAULT_ENGINE,
        optimizer=None,
        parallel=None,
        pools=None,
        tracer=None,
    ):
        self.database = database
        self.stats = stats if stats is not None else ExecutionStats()
        self.cache = cache
        if policy is None and cache is not None:
            policy = MaterializeAll()
        self.policy = policy
        check_engine(engine)
        self.engine = engine
        #: True on the vector engine: operators try the NumPy kernels in
        #: :mod:`repro.relational.vector` first and fall back per node.
        self.vector = engine == "vector"
        #: optional :class:`~repro.relational.optimizer.Optimizer`; when set,
        #: every plan handed to :meth:`execute` is optimized first (memoized
        #: per canonical fingerprint inside the optimizer).
        self.optimizer = optimizer
        #: :class:`~repro.relational.parallel.ParallelConfig` driving the
        #: morsel operators; ``None`` on the serial engines.
        if engine == "parallel" and parallel is None:
            from repro.relational.parallel import ParallelConfig

            parallel = ParallelConfig()
        self.parallel = parallel if engine == "parallel" else None
        #: optional :class:`~repro.relational.parallel.PoolManager` owning the
        #: worker pools the morsel kernels run on (a session's, usually); the
        #: process-wide default serves executors without one.
        self.pools = pools
        #: optional :class:`~repro.obs.trace.Tracer`: when set, every
        #: dispatched operator runs inside an ``op:<Type>`` span (engine and
        #: rows_out attributes; the count_operator events carry rows_in/out
        #: exactly as the stats count them) and cache probes record
        #: hit/miss events.  ``None`` keeps dispatch on a no-op fast path.
        self.tracer = tracer
        # Per-execute scan snapshots: the first scan of each base relation
        # pins a relabelled view (shared rows + version token), so every
        # later scan in the same plan — a self-join, say — reads the same
        # snapshot even if a concurrent writer swaps the data mid-execution.
        self._scan_pins: dict[str, Relation] = {}
        # Version tokens captured *before* reading data (from scan pins and
        # from cache hits' recorded versions); handed to PlanCache.put so a
        # result computed over pre-write data is never recorded under a
        # post-write token.
        self._version_pins: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def execute(self, plan: PlanNode, provenance: Provenance | None = None) -> Relation:
        """Evaluate ``plan`` and return its result relation.

        ``provenance`` (of a plan over materialised leaves) is handed to the
        optimizer's memo; see :meth:`Optimizer.optimize_with_report`.
        """
        self._scan_pins = {}
        self._version_pins = {}
        if self.optimizer is not None:
            if self.tracer is not None:
                with self.tracer.span("optimize", engine=self.engine):
                    plan = self.optimizer.optimize(plan, self.stats, provenance)
            else:
                plan = self.optimizer.optimize(plan, self.stats, provenance)
        if self.engine in _BATCH_ENGINES:
            return self._evaluate_columnar(plan).to_relation()
        return self._evaluate(plan)

    def execute_query(self, plan: PlanNode) -> Relation:
        """Evaluate a complete source query (counts one source query in stats)."""
        self.stats.count_source_query()
        return self.execute(plan)

    # ------------------------------------------------------------------ #
    def _evaluate(self, node: PlanNode) -> Relation:
        if isinstance(node, Materialized):
            return node.relation
        return self._through_cache(node, self._dispatch, _same, _same)

    def _through_cache(self, node: PlanNode, dispatch, load, store):
        """``dispatch(node)``, through the plan cache if the policy selects ``node``.

        Both engines probe here: ``load`` turns a cached relation into the
        engine's result type and ``store`` turns a result back.  The probe
        computes each key once (:meth:`PlanCache.claim`), so concurrent
        executors sharing a cache never execute one sub-plan twice.
        """
        key = None if self.cache is None or self.policy is None else self.policy.cache_key(node)
        if key is None:
            return dispatch(node)
        entry = self.cache.claim(key, self.database)
        if entry is not None:
            self.stats.count_cache_hit(entry.operator_count)
            self._trace_cache("hit", operators_saved=entry.operator_count)
            self._merge_version_pins(entry.dependency_versions)
            return load(entry.relation)
        try:
            self.stats.count_cache_miss()
            self._trace_cache("miss")
            result = dispatch(node)
            self.cache.put(
                key, node, store(result), self.database, versions=self._version_pins
            )
        finally:
            self.cache.release(key)
        return result

    def _trace_cache(self, outcome: str, **attributes) -> None:
        """Record a plan-cache probe event on the current span (if traced)."""
        if self.tracer is not None:
            self.tracer.event("plan-cache", outcome=outcome, **attributes)

    def _dispatch(self, node: PlanNode) -> Relation:
        tracer = self.tracer
        if tracer is None:
            return self._dispatch_node(node)
        # One span per dispatched operator.  The count_operator events land
        # inside it (via the ambient tracer), so an indexed select's fused
        # Scan+Select pair shows up as two operator events on one span —
        # exactly the two operators the stats record.
        with tracer.span(
            f"op:{type(node).__name__}", engine=self.engine
        ) as span:
            result = self._dispatch_node(node)
            span.attributes["rows_out"] = len(result)
            return result

    def _dispatch_node(self, node: PlanNode) -> Relation:
        if isinstance(node, Scan):
            return self._evaluate_scan(node)
        if isinstance(node, Select):
            return self._evaluate_select(node)
        if isinstance(node, Project):
            return self._evaluate_project(node)
        if isinstance(node, Product):
            return self._evaluate_product(node)
        if isinstance(node, Join):
            return self._evaluate_join(node)
        if isinstance(node, Union):
            return self._evaluate_union(node)
        if isinstance(node, Aggregate):
            return self._evaluate_aggregate(node)
        raise TypeError(f"cannot execute plan node of type {type(node).__name__}")

    # -- leaves ---------------------------------------------------------- #
    def _pinned_base(self, name: str) -> Relation:
        """This execution's snapshot of base relation ``name`` (pinned once)."""
        pinned = self._scan_pins.get(name)
        if pinned is None:
            pinned = self.database.relation(name).rename({})
            self._scan_pins[name] = pinned
            self._merge_version_pins({name: pinned.version})
        return pinned

    def _pinned_scan(self, name: str, alias: str | None) -> Relation:
        """The pinned snapshot of ``name``, requalified under ``alias``."""
        relation = self._pinned_base(name)
        if alias is None or alias == relation.name:
            return relation
        return relation.prefixed(alias)

    def _merge_version_pins(self, versions: dict[str, int]) -> None:
        """Fold dependency versions into this execution's capture set.

        On a conflict (the same relation seen at two versions within one
        execution — only possible under a concurrent write) the *older*
        token wins: recording the entry as older than it might be can only
        cause a spurious recompute, never a stale serve.
        """
        pins = self._version_pins
        for name, version in versions.items():
            current = pins.get(name)
            pins[name] = version if current is None else min(current, version)

    def _evaluate_scan(self, node: Scan) -> Relation:
        relation = self._pinned_scan(node.relation, node.alias)
        self.stats.count_operator("Scan", rows_in=len(relation), rows_out=len(relation))
        return relation

    # -- selection -------------------------------------------------------- #
    def _evaluate_select(self, node: Select) -> Relation:
        indexed = self._try_indexed_select(node)
        if indexed is not None:
            return indexed
        child = self._evaluate(node.child)
        predicate = node.predicate
        rows = [row for row in child.rows if predicate.evaluate(child, row)]
        self.stats.count_operator("Select", rows_in=len(child), rows_out=len(rows))
        return Relation(child.columns, rows, name=child.name)

    def _try_indexed_select(self, node: Select) -> Relation | None:
        """Fast path: an equality conjunct over a base-relation scan uses an index.

        A single ``column = constant`` comparison is answered straight from
        the hash index (the original fast path); a conjunction whose *first*
        conjunct is such a comparison looks up the index on it and filters
        the candidates with the full predicate (the optimizer's selection
        merging produces exactly this shape, inner predicate first).  Only
        the first conjunct is eligible: in the unoptimized stacked-select
        chain that is the one selection sitting directly on the scan — the
        only place the fast path could fire — so optimized and unoptimized
        runs take index semantics on exactly the same comparison.
        """
        if not isinstance(node.child, Scan):
            return None
        scan = node.child
        try:
            base = self._pinned_base(scan.relation)
        except KeyError:
            return None
        conjuncts = node.predicate.conjuncts()
        conjunct = conjuncts[0]
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            return None
        if not (
            isinstance(conjunct.left, ColumnRef) and isinstance(conjunct.right, Literal)
        ):
            return None
        ref = conjunct.left
        if ref.qualifier is not None and ref.qualifier != scan.label:
            return None
        try:
            position = base.resolve(ref.name)
        except KeyError:
            return None
        attribute = base.columns[position].split(".", 1)[-1]
        if not self._index_semantics_exact(
            scan.relation, attribute, conjunct.right.value
        ):
            # The fast path substitutes dict-keyed lookup for coerced
            # equality; it only fires when the column profile proves the two
            # agree (e.g. a numeric column, or a string column against a
            # string literal).  This makes the generic coercing path the
            # single source of truth on every column — essential because the
            # optimizer's select-merge/pushdown move comparisons across the
            # fast-path boundary, and answers must not depend on which side
            # they land.
            return None
        # The index of the pinned snapshot (same version, same rows), not of
        # the live relation: a write landing after the pin must not leak
        # post-write rows into this execution.
        index = self.database.index_catalog.get(
            base, scan.relation, base.columns[position]
        )
        rows = self._index_lookup(index, conjunct.right.value)
        if scan.alias is None or scan.alias == base.name:
            columns, name = base.columns, base.name
        else:
            columns = [f"{scan.alias}.{label.split('.', 1)[-1]}" for label in base.columns]
            name = scan.alias
        result = Relation(columns, rows, name=name)
        if len(conjuncts) > 1:
            predicate = node.predicate
            filtered = [row for row in result.rows if predicate.evaluate(result, row)]
            result = Relation(columns, filtered, name=name)
        # The scan itself is implicit in an index lookup; record both operators
        # with the same cardinalities the generic path would, so that operator
        # *and row* counters are identical whether or not the fast path fires
        # (the invariant tests/relational/test_columnar.py pins across the
        # row, indexed-select and columnar paths).
        self.stats.count_operator("Scan", rows_in=len(base), rows_out=len(base))
        self.stats.count_operator("Select", rows_in=len(base), rows_out=len(result))
        return result

    def _index_semantics_exact(self, relation_name: str, attribute: str, literal: Any) -> bool:
        """True when an index lookup equals coerced equality for this column.

        Uses the database's version-keyed statistics catalog: a numeric (or
        empty) column agrees for every literal (``_index_lookup`` parses
        string literals with the same rules as :func:`comparable`); a string
        column agrees only for string literals (a numeric literal against
        e.g. the stored string ``"2.0"`` coerces equal but can never hash
        equal).  NaN literals never agree (``NaN = NaN`` is false under the
        predicate but can identity-match a dict key).
        """
        if literal is None or literal != literal:
            return False
        stats = self.database.stats_catalog.column(relation_name, attribute)
        if stats is None:
            return False
        if stats.family in (FAMILY_NUMERIC, FAMILY_EMPTY):
            return True
        return stats.family == FAMILY_STRING and isinstance(literal, str)

    @staticmethod
    def _index_lookup(index: Any, value: Any) -> list[tuple]:
        """Index lookup tolerant of int/str literal representation differences."""
        rows = index.lookup_rows(value)
        if rows:
            return rows
        if isinstance(value, str):
            parsed = _try_parse_number(value)
            if parsed is not None:
                rows = index.lookup_rows(parsed)
                if rows:
                    return rows
        elif isinstance(value, (int, float)):
            rows = index.lookup_rows(str(value))
            if rows:
                return rows
            if isinstance(value, int):
                rows = index.lookup_rows(float(value))
        return rows

    # -- projection -------------------------------------------------------- #
    def _evaluate_project(self, node: Project) -> Relation:
        child = self._evaluate(node.child)
        positions = [child.resolve(ref.name, ref.qualifier) for ref in node.columns]
        labels = self._unique_labels([child.columns[i] for i in positions])
        rows = [tuple(row[i] for i in positions) for row in child.rows]
        if node.distinct:
            seen: set[tuple] = set()
            unique_rows = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique_rows.append(row)
            rows = unique_rows
        self.stats.count_operator("Project", rows_in=len(child), rows_out=len(rows))
        return Relation(labels, rows, name=child.name)

    @staticmethod
    def _unique_labels(labels: list[str]) -> list[str]:
        """Deduplicate output labels (shared with the optimizer's inference)."""
        return unique_labels(labels)

    # -- product / join ---------------------------------------------------- #
    def _evaluate_product(self, node: Product) -> Relation:
        left = self._evaluate(node.left)
        right = self._evaluate(node.right)
        columns = self._combine_columns(left, right)
        rows = [lrow + rrow for lrow in left.rows for rrow in right.rows]
        self.stats.count_operator(
            "Product", rows_in=len(left) + len(right), rows_out=len(rows)
        )
        return Relation(columns, rows)

    def _evaluate_join(self, node: Join) -> Relation:
        left = self._evaluate(node.left)
        right = self._evaluate(node.right)
        columns = self._combine_columns(left, right)
        combined = Relation(columns, [])
        pairs = self._find_hash_join(node.predicate, left, right)
        if pairs:
            residual = node.predicate
            rows = []
            if len(pairs) == 1:
                left_pos, right_pos = pairs[0]
                buckets: dict[Any, list[tuple]] = defaultdict(list)
                for rrow in right.rows:
                    buckets[rrow[right_pos]].append(rrow)
                for lrow in left.rows:
                    for rrow in buckets.get(lrow[left_pos], ()):
                        candidate = lrow + rrow
                        if residual.evaluate(combined, candidate):
                            rows.append(candidate)
            else:
                # Composite key: hash on the tuple of every equality conjunct
                # between the two inputs instead of the first one alone.
                left_positions = [pair[0] for pair in pairs]
                right_positions = [pair[1] for pair in pairs]
                buckets = defaultdict(list)
                for rrow in right.rows:
                    buckets[tuple(rrow[p] for p in right_positions)].append(rrow)
                for lrow in left.rows:
                    key = tuple(lrow[p] for p in left_positions)
                    for rrow in buckets.get(key, ()):
                        candidate = lrow + rrow
                        if residual.evaluate(combined, candidate):
                            rows.append(candidate)
        else:
            rows = [
                lrow + rrow
                for lrow in left.rows
                for rrow in right.rows
                if node.predicate.evaluate(combined, lrow + rrow)
            ]
        self.stats.count_operator("Join", rows_in=len(left) + len(right), rows_out=len(rows))
        return Relation(columns, rows)

    def _evaluate_union(self, node: Union) -> Relation:
        left = self._evaluate(node.left)
        right = self._evaluate(node.right)
        if len(left.columns) != len(right.columns):
            raise ValueError(
                f"UNION requires inputs of equal arity, got {len(left.columns)} "
                f"and {len(right.columns)} columns"
            )
        rows = list(left.rows) + list(right.rows)
        if node.distinct:
            seen: set[tuple] = set()
            unique_rows = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique_rows.append(row)
            rows = unique_rows
        self.stats.count_operator("Union", rows_in=len(left) + len(right), rows_out=len(rows))
        return Relation(left.columns, rows, name=left.name)

    @staticmethod
    def _combine_columns(left: Relation, right: Relation) -> list[str]:
        """Concatenate column labels (shared with the optimizer's inference)."""
        return combine_labels(left.columns, right.columns)

    def _find_hash_join(
        self, predicate: Predicate, left, right
    ) -> list[tuple[int, int]]:
        """All ``left_col = right_col`` conjuncts usable as one composite hash key.

        When several equality conjuncts connect the same pair of inputs the
        join hashes on the tuple of all of them instead of hashing on the
        first and re-filtering the (much larger) candidate set.

        The first resolvable conjunct is always keyed (the pre-composite
        behaviour); additional conjuncts join the key only when both columns
        live in the same coercion family, because key matching uses dict
        semantics while the residual predicate pass coerces (``"2" = 2`` is
        true under :func:`~repro.relational.types.comparable` but can never
        match a hash bucket) — on mixed-representation columns those
        conjuncts stay in the residual, preserving answers exactly.
        """
        pairs: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for conjunct in predicate.conjuncts():
            if not isinstance(conjunct, Comparison) or not conjunct.is_equi_column:
                continue
            first, second = conjunct.left, conjunct.right
            sides = self._resolve_sides(first, second, left, right)
            if sides is not None and sides not in seen:
                seen.add(sides)
                pairs.append(sides)
        if len(pairs) > 1:
            kept = pairs[:1]
            for left_pos, right_pos in pairs[1:]:
                left_family = column_family(self._column_values(left, left_pos))
                right_family = column_family(self._column_values(right, right_pos))
                if hash_compatible(left_family, right_family):
                    kept.append((left_pos, right_pos))
            pairs = kept
        return pairs

    @staticmethod
    def _column_values(relation, position: int):
        """One column's values from a Relation or a ColumnBatch."""
        if isinstance(relation, ColumnBatch):
            return relation.data[position]
        return (row[position] for row in relation.rows)

    @staticmethod
    def _resolve_sides(
        first: ColumnRef, second: ColumnRef, left: Relation, right: Relation
    ) -> tuple[int, int] | None:
        def resolve(relation: Relation, ref: ColumnRef) -> int | None:
            try:
                return relation.resolve(ref.name, ref.qualifier)
            except KeyError:
                return None

        left_pos, right_pos = resolve(left, first), resolve(right, second)
        if left_pos is not None and right_pos is not None:
            return left_pos, right_pos
        left_pos, right_pos = resolve(left, second), resolve(right, first)
        if left_pos is not None and right_pos is not None:
            return left_pos, right_pos
        return None

    # -- aggregation -------------------------------------------------------- #
    def _evaluate_aggregate(self, node: Aggregate) -> Relation:
        child = self._evaluate(node.child)
        argument_label = str(node.argument) if node.argument is not None else "*"
        output_label = f"{node.function}({argument_label})"

        if not node.group_by:
            value = self._aggregate_rows(node, child, child.rows)
            rows = [(value,)]
            self.stats.count_operator("Aggregate", rows_in=len(child), rows_out=1)
            return Relation([output_label], rows)

        group_positions = [child.resolve(ref.name, ref.qualifier) for ref in node.group_by]
        group_labels = [child.columns[i] for i in group_positions]
        groups: dict[tuple, list[tuple]] = defaultdict(list)
        for row in child.rows:
            key = tuple(row[i] for i in group_positions)
            groups[key].append(row)
        rows = [
            key + (self._aggregate_rows(node, child, members),)
            for key, members in groups.items()
        ]
        self.stats.count_operator("Aggregate", rows_in=len(child), rows_out=len(rows))
        return Relation(group_labels + [output_label], rows)

    @staticmethod
    def _aggregate_rows(node: Aggregate, relation: Relation, rows: list[tuple]) -> Any:
        values = None
        if node.argument is not None:
            values = [node.argument.evaluate(relation, row) for row in rows]
        return Executor._aggregate_values(node, values, len(rows))

    # ================================================================== #
    # columnar engine
    # ================================================================== #
    def _evaluate_columnar(self, node: PlanNode) -> ColumnBatch:
        """Columnar twin of :meth:`_evaluate` (same cache/policy handling)."""
        if isinstance(node, Materialized):
            return ColumnBatch.from_relation(node.relation)
        return self._through_cache(
            node, self._dispatch_columnar, ColumnBatch.from_relation, ColumnBatch.to_relation
        )

    def _dispatch_columnar(self, node: PlanNode) -> ColumnBatch:
        tracer = self.tracer
        if tracer is None:
            return self._dispatch_columnar_node(node)
        with tracer.span(
            f"op:{type(node).__name__}", engine=self.engine
        ) as span:
            result = self._dispatch_columnar_node(node)
            span.attributes["rows_out"] = len(result)
            return result

    def _dispatch_columnar_node(self, node: PlanNode) -> ColumnBatch:
        if isinstance(node, Scan):
            return self._scan_columnar(node)
        if isinstance(node, Select):
            return self._select_columnar(node)
        if isinstance(node, Project):
            return self._project_columnar(node)
        if isinstance(node, Product):
            return self._product_columnar(node)
        if isinstance(node, Join):
            return self._join_columnar(node)
        if isinstance(node, Union):
            return self._union_columnar(node)
        if isinstance(node, Aggregate):
            return self._aggregate_columnar(node)
        # Row fallback: a node type without a columnar implementation is
        # evaluated by the row engine (unknown types still raise TypeError).
        # _dispatch_node, not _dispatch: the operator span for this node is
        # already open above, a second one would double-count it.
        return ColumnBatch.from_relation(self._dispatch_node(node))

    # -- leaves ---------------------------------------------------------- #
    def _scan_columnar(self, node: Scan) -> ColumnBatch:
        relation = self._pinned_scan(node.relation, node.alias)
        self.stats.count_operator("Scan", rows_in=len(relation), rows_out=len(relation))
        return ColumnBatch.from_relation(relation)

    # -- parallel hooks ---------------------------------------------------- #
    def _use_parallel(self, rows: int) -> bool:
        """True when an input of ``rows`` rows is large enough to shard.

        Always False on the serial engines (``self.parallel`` is ``None``);
        on the parallel engine a too-small input makes the operator fall back
        to the serial columnar implementation — per node, so one plan can mix
        sharded and serial operators freely.
        """
        return self.parallel is not None and self.parallel.shards_for(rows) > 1

    def _predicate_mask(self, predicate: Predicate, batch: ColumnBatch) -> list[bool]:
        """Row mask for ``predicate``, morsel-parallel when worthwhile."""
        if self._use_parallel(len(batch)):
            from repro.relational.parallel import parallel_predicate_mask

            return parallel_predicate_mask(
                predicate, batch, self.parallel, pools=self.pools, tracer=self.tracer
            )
        return predicate_mask(predicate, batch)

    def _filtered(self, predicate: Predicate, batch: ColumnBatch) -> ColumnBatch:
        """``batch`` filtered by ``predicate``, vector kernel first when enabled."""
        if self.vector:
            indices = vector_select_indices(predicate, batch)
            if indices is not None:
                return batch.take(indices)
        return batch.filter(self._predicate_mask(predicate, batch))

    # -- selection -------------------------------------------------------- #
    def _select_columnar(self, node: Select) -> ColumnBatch:
        indexed = self._try_indexed_select(node)
        if indexed is not None:
            return ColumnBatch.from_relation(indexed)
        if (
            self.vector
            and isinstance(node.child, Product)
            and (
                self.cache is None
                or self.policy is None
                or self.policy.cache_key(node.child) is None
            )
        ):
            # Fused path: mask the virtual product, materialise only
            # survivors.  Skipped when the Product node itself is cacheable
            # so warm-cache runs keep identical get/put behaviour.
            return self._select_over_product(node, node.child)
        child = self._evaluate_columnar(node.child)
        result = self._filtered(node.predicate, child)
        self.stats.count_operator("Select", rows_in=len(child), rows_out=len(result))
        return result

    def _select_over_product(self, node: Select, product: Product) -> ColumnBatch:
        """Selection fused over a cross product (vector engine only).

        The columnar product's cost is dominated by materialising ``n × m``
        value lists that a selective predicate immediately throws away.  When
        the whole predicate vectorises, the mask is computed over a *virtual*
        product (per-side masks repeated/tiled, cross-side comparisons
        broadcast — see :func:`vector_product_select_positions`) and only
        surviving rows are gathered from the original side columns.  Operator
        counts and gathered values are byte-identical to the unfused
        Product → Select pair; a predicate that does not fully vectorise
        materialises the product exactly as before.
        """
        left = self._evaluate_columnar(product.left)
        right = self._evaluate_columnar(product.right)
        columns = self._combine_columns(left, right)
        left_n, right_n = len(left), len(right)
        out = left_n * right_n
        positions = vector_product_select_positions(
            node.predicate, left, right, columns
        )
        self.stats.count_operator("Product", rows_in=left_n + right_n, rows_out=out)
        if positions is None:
            child = ColumnBatch(
                columns, self._product_data(left, right), length=out
            )
            result = self._filtered(node.predicate, child)
        else:
            left_rows, right_rows = positions
            data = [list(map(column.__getitem__, left_rows)) for column in left.data]
            data += [
                list(map(column.__getitem__, right_rows)) for column in right.data
            ]
            result = ColumnBatch(columns, data, length=len(left_rows))
        self.stats.count_operator("Select", rows_in=out, rows_out=len(result))
        return result

    # -- projection -------------------------------------------------------- #
    def _project_columnar(self, node: Project) -> ColumnBatch:
        child = self._evaluate_columnar(node.child)
        positions = [child.resolve(ref.name, ref.qualifier) for ref in node.columns]
        labels = self._unique_labels([child.columns[i] for i in positions])
        data = [child.data[i] for i in positions]
        length = len(child)
        if node.distinct:
            keep = (
                vector_distinct_indices(child, positions)
                if self.vector and data
                else None
            )
            if keep is None and data and self._use_parallel(length):
                from repro.relational.parallel import parallel_distinct_indices

                keep = parallel_distinct_indices(
                    data, length, self.parallel, pools=self.pools, tracer=self.tracer
                )
            if keep is None:
                seen: set[tuple] = set()
                keep = []
                if data:
                    for i, row in enumerate(zip(*data)):
                        if row not in seen:
                            seen.add(row)
                            keep.append(i)
                elif length:
                    keep.append(0)  # zero-column projection: one distinct empty row
            data = [[column[i] for i in keep] for column in data]
            length = len(keep)
        self.stats.count_operator("Project", rows_in=len(child), rows_out=length)
        return ColumnBatch(labels, data, name=child.name, length=length)

    # -- product / join ---------------------------------------------------- #
    @staticmethod
    def _product_data(left: ColumnBatch, right: ColumnBatch) -> list[list]:
        """Materialised cross-product columns (left-outer/right-inner order).

        Left columns repeat each value ``len(right)`` times in place (map/
        repeat/chain run the whole expansion at C speed); right columns tile
        whole, matching the row engine's ordering.
        """
        left_n, right_n = len(left), len(right)
        data = [
            list(chain.from_iterable(map(repeat, column, repeat(right_n))))
            for column in left.data
        ]
        data += [column * left_n for column in right.data]
        return data

    def _product_columnar(self, node: Product) -> ColumnBatch:
        left = self._evaluate_columnar(node.left)
        right = self._evaluate_columnar(node.right)
        columns = self._combine_columns(left, right)
        left_n, right_n = len(left), len(right)
        out = left_n * right_n
        self.stats.count_operator("Product", rows_in=left_n + right_n, rows_out=out)
        return ColumnBatch(columns, self._product_data(left, right), length=out)

    def _join_columnar(self, node: Join) -> ColumnBatch:
        left = self._evaluate_columnar(node.left)
        right = self._evaluate_columnar(node.right)
        columns = self._combine_columns(left, right)
        pairs = self._find_hash_join(node.predicate, left, right)
        # When the whole predicate is exactly the hash-join equalities, the
        # bucket match already decides it (None/NaN keys never satisfy an
        # equality, so they are dropped at build time) and no residual pass
        # is needed.
        pure_equi = len(pairs) >= 1 and len(pairs) == len(node.predicate.conjuncts())
        left_idx: list[int] = []
        right_idx: list[int] = []
        vectorized = (
            vector_join_indices(left, right, pairs) if self.vector and pairs else None
        )
        if vectorized is not None:
            # Factorize + searchsorted emitted the exact serial probe order;
            # None/NaN keys cannot occur on classified columns, so pure_equi
            # changes nothing here (the residual pass is still skipped).
            left_idx, right_idx = vectorized
        elif pairs and (self._use_parallel(len(left)) or self._use_parallel(len(right))):
            # Morsel-parallel build + probe (identical index order — see
            # repro.relational.parallel.operators.parallel_join_indices).
            from repro.relational.parallel import parallel_join_indices

            left_idx, right_idx = parallel_join_indices(
                left,
                right,
                pairs,
                pure_equi,
                self.parallel,
                pools=self.pools,
                tracer=self.tracer,
            )
        elif len(pairs) == 1:
            left_pos, right_pos = pairs[0]
            buckets: dict[Any, list[int]] = defaultdict(list)
            if pure_equi:
                for i, value in enumerate(right.data[right_pos]):
                    if value is not None and value == value:
                        buckets[value].append(i)
            else:
                for i, value in enumerate(right.data[right_pos]):
                    buckets[value].append(i)
            lookup = buckets.get
            for i, value in enumerate(left.data[left_pos]):
                bucket = lookup(value)
                if bucket:
                    left_idx.extend([i] * len(bucket))
                    right_idx.extend(bucket)
        elif pairs:
            # Composite key: one bucket per tuple of build-side key values.
            right_key_columns = [right.data[pair[1]] for pair in pairs]
            left_key_columns = [left.data[pair[0]] for pair in pairs]
            buckets = defaultdict(list)
            if pure_equi:
                for i, key in enumerate(zip(*right_key_columns)):
                    if all(value is not None and value == value for value in key):
                        buckets[key].append(i)
            else:
                for i, key in enumerate(zip(*right_key_columns)):
                    buckets[key].append(i)
            lookup = buckets.get
            for i, key in enumerate(zip(*left_key_columns)):
                bucket = lookup(key)
                if bucket:
                    left_idx.extend([i] * len(bucket))
                    right_idx.extend(bucket)
        else:
            left_n, right_n = len(left), len(right)
            repeat = range(right_n)
            left_idx = [i for i in range(left_n) for _ in repeat]
            right_idx = list(range(right_n)) * left_n
            pure_equi = False
        data = [list(map(column.__getitem__, left_idx)) for column in left.data]
        data += [list(map(column.__getitem__, right_idx)) for column in right.data]
        candidates = ColumnBatch(columns, data, length=len(left_idx))
        if pure_equi:
            result = candidates
        else:
            result = self._filtered(node.predicate, candidates)
        self.stats.count_operator(
            "Join", rows_in=len(left) + len(right), rows_out=len(result)
        )
        return result

    # -- union -------------------------------------------------------------- #
    def _union_columnar(self, node: Union) -> ColumnBatch:
        left = self._evaluate_columnar(node.left)
        right = self._evaluate_columnar(node.right)
        if len(left.columns) != len(right.columns):
            raise ValueError(
                f"UNION requires inputs of equal arity, got {len(left.columns)} "
                f"and {len(right.columns)} columns"
            )
        data = [l_col + r_col for l_col, r_col in zip(left.data, right.data)]
        length = len(left) + len(right)
        if node.distinct:
            if data:
                keep = (
                    vector_union_distinct_indices(left, right) if self.vector else None
                )
                if keep is None and self._use_parallel(length):
                    from repro.relational.parallel import parallel_distinct_indices

                    keep = parallel_distinct_indices(
                        data, length, self.parallel, pools=self.pools, tracer=self.tracer
                    )
                if keep is None:
                    seen: set[tuple] = set()
                    keep = []
                    for i, row in enumerate(zip(*data)):
                        if row not in seen:
                            seen.add(row)
                            keep.append(i)
                data = [[column[i] for i in keep] for column in data]
                length = len(keep)
            elif length:
                length = 1  # zero-column union: one distinct empty row
        self.stats.count_operator(
            "Union", rows_in=len(left) + len(right), rows_out=length
        )
        return ColumnBatch(left.columns, data, name=left.name, length=length)

    # -- aggregation -------------------------------------------------------- #
    def _aggregate_columnar(self, node: Aggregate) -> ColumnBatch:
        child = self._evaluate_columnar(node.child)
        argument_label = str(node.argument) if node.argument is not None else "*"
        output_label = f"{node.function}({argument_label})"
        n = len(child)

        values: list | None = None
        if node.argument is not None and n:
            const, values = expression_values(node.argument, child)
            if const:
                values = [values] * n

        if not node.group_by:
            value = self._aggregate_values(node, values, n)
            self.stats.count_operator("Aggregate", rows_in=n, rows_out=1)
            return ColumnBatch([output_label], [[value]], length=1)

        positions = [child.resolve(ref.name, ref.qualifier) for ref in node.group_by]
        group_labels = [child.columns[i] for i in positions]
        key_columns = [child.data[i] for i in positions]
        groups = (
            vector_group_indices(child, positions, key_columns, n)
            if self.vector
            else None
        )
        parallel = groups is None and self._use_parallel(n)
        if parallel:
            from repro.relational.parallel import (
                parallel_fold_groups,
                parallel_group_indices,
            )

            groups = parallel_group_indices(
                key_columns, n, self.parallel, pools=self.pools, tracer=self.tracer
            )
        elif groups is None:
            groups = defaultdict(list)
            for i, key in enumerate(zip(*key_columns)):
                groups[key].append(i)
        data: list[list] = [[] for _ in positions] + [[]]
        if parallel:
            # Grouping ran sharded; the per-group folds are independent, so
            # they parallelise too — each fold walks its members in ascending
            # row order, the exact serial accumulation (bit-equal floats).
            def fold(members: list) -> Any:
                member_values = None if values is None else [values[i] for i in members]
                return self._aggregate_values(node, member_values, len(members))

            aggregated = parallel_fold_groups(
                fold,
                list(groups.values()),
                self.parallel,
                pools=self.pools,
                tracer=self.tracer,
            )
            for key, value in zip(groups, aggregated):
                for column, part in zip(data, key):
                    column.append(part)
                data[-1].append(value)
        else:
            for key, members in groups.items():
                for column, value in zip(data, key):
                    column.append(value)
                member_values = None if values is None else [values[i] for i in members]
                data[-1].append(self._aggregate_values(node, member_values, len(members)))
        self.stats.count_operator("Aggregate", rows_in=n, rows_out=len(groups))
        return ColumnBatch(
            group_labels + [output_label], data, length=len(groups)
        )

    @staticmethod
    def _aggregate_values(node: Aggregate, values: list | None, count: int) -> Any:
        """Aggregate a vector of argument values (mirrors ``_aggregate_rows``)."""
        if node.function == "COUNT" and node.argument is None:
            return count
        values = [value for value in (values or ()) if value is not None]
        if node.function == "COUNT":
            return len(values)
        if not values:
            return None
        if node.function == "SUM":
            return sum(values)
        if node.function == "AVG":
            return sum(values) / len(values)
        if node.function == "MIN":
            return min(values)
        if node.function == "MAX":
            return max(values)
        raise ValueError(f"unsupported aggregate {node.function!r}")  # pragma: no cover


def execute(
    plan: PlanNode,
    database: Database,
    stats: ExecutionStats | None = None,
    engine: str = DEFAULT_ENGINE,
) -> Relation:
    """Convenience wrapper: evaluate ``plan`` against ``database``."""
    return Executor(database, stats, engine=engine).execute(plan)
