"""The parallel engine is byte-identical to the serial columnar engine.

Covers the morsel kernels directly (masks, join indices, grouping, dedup),
the executor's per-node fallback, and the thread pools the morsels run on
(``run_tasks``, ``PoolManager``).  Thresholds are forced to zero so the
parallel paths execute even on small test data.
"""

from __future__ import annotations

import random

import pytest

from repro.relational.algebra import (
    Aggregate,
    Join,
    Product,
    Project,
    Scan,
    Select,
    Union,
)
from repro.relational.columnar import ColumnBatch, predicate_mask
from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.expressions import col, lit
from repro.relational.parallel import (
    ROLE_MORSEL,
    ROLE_SERVING,
    ParallelConfig,
    PoolManager,
    parallel_distinct_indices,
    parallel_group_indices,
    parallel_join_indices,
    parallel_predicate_mask,
    run_tasks,
)
from repro.relational.predicates import (
    And,
    Between,
    ColumnEquals,
    Comparison,
    Equals,
    GreaterThan,
    In,
    Not,
    Or,
)
from repro.relational.relation import Relation
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.stats import ExecutionStats
from repro.relational.types import DataType

_I = DataType.INTEGER
_S = DataType.STRING

#: every parallel path fires, regardless of input size
FORCED = ParallelConfig(workers=4, min_partition_rows=0)


def make_database(rows: int = 240, seed: int = 11) -> Database:
    rng = random.Random(seed)
    schema = DatabaseSchema(
        "S",
        [
            RelationSchema.build("emp", [("id", _I), ("name", _S), ("dept", _I)]),
            RelationSchema.build("dept", [("id", _I), ("dname", _S)]),
        ],
    )
    database = Database(schema)
    emp_rows = []
    for i in range(rows):
        name = rng.choice(["ann", "bob", "cat", "2", None])
        dept = rng.choice([10, 20, 30, "10", None, float("nan")])
        emp_rows.append((i, name, dept))
    database.set_relation(
        "emp", Relation.from_schema(schema.relation("emp"), emp_rows)
    )
    database.set_relation(
        "dept",
        Relation.from_schema(
            schema.relation("dept"), [(10, "db"), (20, "os"), (30, "net"), ("10", "qa")]
        ),
    )
    return database


PLANS = {
    "select-chain": lambda: Select(
        Select(Scan("emp"), GreaterThan(col("id"), lit(20))),
        Or(Equals(col("name"), lit("ann")), Equals(col("dept"), lit("10"))),
    ),
    "select-mixed-coercion": lambda: Select(
        Scan("emp"),
        And(
            In(col("name"), ("ann", "2", "cat")),
            Not(Between(col("id"), 5, 10)),
        ),
    ),
    "join": lambda: Join(
        Scan("emp"),
        Scan("dept", alias="d"),
        ColumnEquals(col("dept", "emp"), col("id", "d")),
    ),
    "join-residual": lambda: Join(
        Scan("emp"),
        Scan("dept", alias="d"),
        And(
            ColumnEquals(col("dept", "emp"), col("id", "d")),
            GreaterThan(col("id", "emp"), lit(50)),
        ),
    ),
    "product-filter": lambda: Select(
        Product(Scan("emp", alias="a"), Scan("dept", alias="b")),
        Equals(col("dname", "b"), lit("db")),
    ),
    "project-distinct": lambda: Project(
        Scan("emp"), [col("name"), col("dept")], distinct=True
    ),
    "union-distinct": lambda: Union(
        Project(Scan("emp"), [col("name")]),
        Project(Scan("emp"), [col("name")]),
        distinct=True,
    ),
    "aggregate-grouped": lambda: Aggregate(
        Scan("emp"), "COUNT", None, group_by=[col("dept")]
    ),
    "aggregate-sum": lambda: Aggregate(
        Scan("emp"), "SUM", col("id"), group_by=[col("name")]
    ),
}


@pytest.fixture(scope="module")
def database() -> Database:
    return make_database()


class TestEngineParity:
    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_byte_identical_to_columnar(self, database, plan_name, workers):
        plan = PLANS[plan_name]()
        serial_stats, parallel_stats = ExecutionStats(), ExecutionStats()
        serial = Executor(database, serial_stats, engine="columnar").execute(plan)
        parallel = Executor(
            database,
            parallel_stats,
            engine="parallel",
            parallel=ParallelConfig(workers=workers, min_partition_rows=0),
        ).execute(plan)
        assert parallel.columns == serial.columns
        assert parallel.rows == serial.rows  # same rows, same order
        assert dict(parallel_stats.operators) == dict(serial_stats.operators)
        assert parallel_stats.rows_scanned == serial_stats.rows_scanned
        assert parallel_stats.rows_output == serial_stats.rows_output

    def test_large_threshold_falls_back_per_node(self, database):
        executor = Executor(
            database,
            engine="parallel",
            parallel=ParallelConfig(workers=4, min_partition_rows=10**6),
        )
        plan = PLANS["join-residual"]()
        serial = Executor(database, engine="columnar").execute(plan)
        assert executor.execute(plan).rows == serial.rows
        # Nothing is large enough to shard: every node took the serial path.
        assert not executor._use_parallel(len(database.relation("emp")))

    def test_select_over_scan_uses_the_shard_cache(self, database):
        """Base-relation sweeps shard through the version-keyed shard cache."""
        relation = database.relation("emp")
        relation._shard_cache[0] = None  # forget anything earlier tests cached
        executor = Executor(
            database,
            engine="parallel",
            parallel=ParallelConfig(workers=4, min_partition_rows=0),
        )
        executor.execute(PLANS["select-chain"]())
        cached = relation._shard_cache[0]
        assert cached is not None and cached[0] == relation.version
        chunked = cached[1]
        assert chunked["shards"] == 4
        # Only the select sitting directly on the scan sweeps the base
        # relation, and only its referenced column was sliced (id = 0).
        assert sorted(chunked["columns"]) == [0]
        # A second query over the same relation reuses the cached id slices
        # and adds only the newly referenced column (name = 1).
        entry_before = chunked["columns"][0]
        executor.execute(PLANS["select-mixed-coercion"]())
        chunked = relation._shard_cache[0][1]
        assert chunked["columns"][0] is entry_before
        assert 1 in chunked["columns"]
        # A different shard count replaces the cached slices instead of
        # accumulating a second full copy per column.
        other = Executor(
            database,
            engine="parallel",
            parallel=ParallelConfig(workers=2, min_partition_rows=0),
        )
        other.execute(PLANS["select-chain"]())
        chunked = relation._shard_cache[0][1]
        assert chunked["shards"] == 2 and len(chunked["spans"]) == 2

    def test_missing_config_means_the_default_config(self, database):
        executor = Executor(database, engine="parallel")
        assert executor.parallel == ParallelConfig()
        assert Executor(database, engine="columnar", parallel=FORCED).parallel is None


class TestKernels:
    def test_parallel_mask_matches_serial(self, database):
        batch = ColumnBatch.from_relation(database.relation("emp"))
        predicates = [
            Equals(col("name"), lit("ann")),
            Comparison(col("dept"), "<", lit(25)),
            Or(Equals(col("name"), lit("2")), GreaterThan(col("id"), lit(100))),
            And(In(col("dept"), (10, "10")), Not(Equals(col("name"), lit("bob")))),
            Between(col("id"), 10, 200),
        ]
        for predicate in predicates:
            assert parallel_predicate_mask(predicate, batch, FORCED) == predicate_mask(
                predicate, batch
            ), predicate.canonical()

    @pytest.mark.parametrize("pure_equi", [True, False])
    def test_join_indices_match_serial(self, database, pure_equi):
        left = ColumnBatch.from_relation(database.relation("emp"))
        right = ColumnBatch.from_relation(database.relation("dept"))
        pairs = [(2, 0)]  # emp.dept = dept.id
        left_idx, right_idx = parallel_join_indices(
            left, right, pairs, pure_equi, FORCED
        )
        # serial reference (the executor's single-pair loop)
        from collections import defaultdict

        buckets = defaultdict(list)
        for i, value in enumerate(right.data[0]):
            if pure_equi and not (value is not None and value == value):
                continue
            buckets[value].append(i)
        expected_left, expected_right = [], []
        for i, value in enumerate(left.data[2]):
            bucket = buckets.get(value)
            if bucket:
                expected_left.extend([i] * len(bucket))
                expected_right.extend(bucket)
        assert (left_idx, right_idx) == (expected_left, expected_right)

    def test_composite_join_indices_match_serial(self):
        left = ColumnBatch(["l.a", "l.b"], [[1, 2, 1, None], ["x", "y", "x", "x"]])
        right = ColumnBatch(["r.a", "r.b"], [[1, 1, 2], ["x", "x", "y"]])
        pairs = [(0, 0), (1, 1)]
        got = parallel_join_indices(left, right, pairs, True, FORCED)
        assert got == ([0, 0, 1, 2, 2], [0, 1, 2, 0, 1])

    def test_group_indices_match_serial_order(self):
        keys = [["a", "b", "a", "c", "b", "a"], [1, 1, 1, 2, 1, 1]]
        groups = parallel_group_indices(keys, 6, FORCED)
        assert list(groups.items()) == [
            (("a", 1), [0, 2, 5]),
            (("b", 1), [1, 4]),
            (("c", 2), [3]),
        ]

    def test_distinct_indices_match_serial_order(self):
        data = [["a", "b", "a", "c", "b", "a", "d"]]
        assert parallel_distinct_indices(data, 7, FORCED) == [0, 1, 3, 6]

    def test_run_tasks_serial_when_one_worker(self):
        config = ParallelConfig(workers=1)
        assert run_tasks(config, lambda x: x * 2, [(1,), (2,), (3,)]) == [2, 4, 6]


class TestRunTasks:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_results_in_submission_order(self, workers):
        pools = PoolManager()
        try:
            config = ParallelConfig(workers=workers)
            args = [(i,) for i in range(23)]
            assert run_tasks(config, lambda x: x * x, args, pools=pools) == [
                i * i for i in range(23)
            ]
            assert pools.started_pools == 1
        finally:
            pools.shutdown(wait=True)

    def test_task_error_propagates(self):
        pools = PoolManager()

        def task(i):
            if i == 2:
                raise ValueError("boom")
            return i

        try:
            with pytest.raises(ValueError, match="boom"):
                run_tasks(
                    ParallelConfig(workers=2), task, [(i,) for i in range(4)], pools=pools
                )
            assert not pools.closed
        finally:
            pools.shutdown(wait=True)


class TestPoolManager:
    def test_pools_start_lazily(self):
        pools = PoolManager()
        assert pools.started_pools == 0 and pools.queue_depth() == 0
        first = pools.thread_pool(2)
        assert pools.thread_pool(2) is first
        assert pools.started_pools == 1
        pools.shutdown(wait=True)

    def test_roles_never_share_a_pool(self):
        pools = PoolManager()
        morsel = pools.thread_pool(2, role=ROLE_MORSEL)
        serving = pools.thread_pool(2, role=ROLE_SERVING)
        assert morsel is not serving
        assert pools.started_pools == 2
        pools.shutdown(wait=True)

    def test_reopen_keeps_the_manager_usable(self):
        pools = PoolManager()
        before = pools.thread_pool(2)
        pools.shutdown(wait=True, reopen=True)
        assert not pools.closed
        after = pools.thread_pool(2)
        assert after is not before
        assert after.submit(lambda: 7).result(timeout=5) == 7
        assert pools.started_pools == 2
        pools.shutdown(wait=True)

    def test_closed_manager_refuses_new_pools(self):
        pools = PoolManager()
        pools.shutdown()
        assert pools.closed
        with pytest.raises(RuntimeError, match="closed"):
            pools.thread_pool(2)
