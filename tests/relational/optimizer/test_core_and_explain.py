"""Unit tests for the Optimizer facade (memoization) and explain()."""

import pytest

from repro.relational.algebra import Materialized, Product, Scan, Select, provenance_of
from repro.relational.database import Database
from repro.relational.executor import Executor, available_engines

ENGINES = available_engines()  # vector drops out on NumPy-less installs
from repro.relational.expressions import col
from repro.relational.optimizer import Optimizer, explain
from repro.relational.predicates import ColumnEquals, Equals
from repro.relational.relation import Relation
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.stats import ExecutionStats
from repro.relational.types import DataType

_I = DataType.INTEGER
_S = DataType.STRING


@pytest.fixture()
def database() -> Database:
    schema = DatabaseSchema(
        "S",
        [
            RelationSchema.build("emp", [("id", _I), ("name", _S), ("dept", _I)]),
            RelationSchema.build("dept", [("id", _I), ("dname", _S)]),
        ],
    )
    db = Database(schema)
    db.set_relation(
        "emp",
        Relation.from_schema(
            schema.relation("emp"),
            [(1, "ann", 10), (2, "bob", 10), (3, "cat", 20)],
        ),
    )
    db.set_relation(
        "dept",
        Relation.from_schema(schema.relation("dept"), [(10, "db"), (20, "os")]),
    )
    return db


def _join_plan():
    return Select(
        Product(Scan("emp"), Scan("dept")),
        ColumnEquals(col("emp.dept"), col("dept.id")),
    )


class TestOptimizerMemo:
    def test_memo_hit_on_identical_plan(self, database):
        optimizer = Optimizer(database)
        first = optimizer.optimize_with_report(_join_plan())
        second = optimizer.optimize_with_report(_join_plan())
        assert not first.memo_hit
        assert second.memo_hit
        assert second.plan is first.plan
        assert len(optimizer) == 1

    def test_memo_invalidated_by_mutation(self, database):
        optimizer = Optimizer(database)
        optimizer.optimize_with_report(_join_plan())
        schema = database.schema.relation("emp")
        database.set_relation(
            "emp", Relation.from_schema(schema, [(9, "zed", 20)])
        )
        report = optimizer.optimize_with_report(_join_plan())
        assert not report.memo_hit
        result = Executor(database).execute(report.plan)
        assert result.rows == [(9, "zed", 20, 20, "os")]

    def test_stats_counters_recorded(self, database):
        optimizer = Optimizer(database)
        stats = ExecutionStats()
        optimizer.optimize(_join_plan(), stats)
        optimizer.optimize(_join_plan(), stats)
        assert stats.plans_optimized == 2
        assert stats.optimizer_memo_hits == 1
        assert stats.optimizer_rules["product-to-join"] == 1
        snapshot = stats.snapshot()
        assert snapshot["plans_optimized"] == 2
        assert snapshot["optimizer_rules"]["product-to-join"] == 1

    def test_memo_is_bounded(self, database):
        optimizer = Optimizer(database, memo_size=2)
        for value in (10, 20, 30):
            optimizer.optimize_with_report(
                Select(Scan("emp"), Equals(col("emp.dept"), value))
            )
        assert len(optimizer) == 2

    @staticmethod
    def _over_leaf(leaf):
        return Select(
            Product(leaf, Scan("dept")), ColumnEquals(col("emp.dept"), col("dept.id"))
        )

    @staticmethod
    def _optimize(optimizer, plan):
        return optimizer.optimize_with_report(plan, provenance_of(plan))

    @staticmethod
    def _leaf(database, provenance):
        return Materialized(database.relation("emp"), label="u0", provenance=provenance)

    def test_materialized_leaves_hit_by_provenance(self, database):
        # Two leaves computed by one source plan hold the same rows: the
        # second plan is served from the memo, over its own leaf.
        optimizer = Optimizer(database)
        made_by = provenance_of(Scan("emp"))
        first_leaf, second_leaf = self._leaf(database, made_by), self._leaf(database, made_by)
        first = self._optimize(optimizer, self._over_leaf(first_leaf))
        second = self._optimize(optimizer, self._over_leaf(second_leaf))
        assert not first.memo_hit and second.memo_hit
        assert second.plan.canonical() == first.plan.canonical().replace(
            first_leaf.canonical(), second_leaf.canonical()
        )
        assert any(node is second_leaf for node in second.plan.walk())
        # the memo keeps a template, not the first call's intermediate
        assert not any(
            node is first_leaf for report in optimizer._memo.values() for node in report.plan.walk()
        )
        result = Executor(database).execute(second.plan)
        assert result.rows == Executor(database).execute(first.plan).rows

    def test_materialized_leaves_without_provenance_never_hit(self, database):
        optimizer = Optimizer(database)
        optimizer.optimize_with_report(self._over_leaf(self._leaf(database, None)))
        report = optimizer.optimize_with_report(self._over_leaf(self._leaf(database, None)))
        assert not report.memo_hit

    def test_write_to_a_leafs_source_misses(self, database):
        # ``emp`` is read only through the leaf, yet writing it retires the entry.
        optimizer = Optimizer(database)
        made_by = provenance_of(Scan("emp"))
        self._optimize(optimizer, self._over_leaf(self._leaf(database, made_by)))
        schema = database.schema.relation("emp")
        database.set_relation("emp", Relation.from_schema(schema, [(9, "zed", 20)]))
        report = self._optimize(optimizer, self._over_leaf(self._leaf(database, made_by)))
        assert not report.memo_hit

    def test_unknown_relation_survives(self, database):
        # A plan over a missing relation cannot be optimized, but the
        # optimizer must hand it back rather than raise.
        plan = Select(Scan("ghost"), Equals(col("ghost.x"), 1))
        report = Optimizer(database).optimize_with_report(plan)
        assert report.plan.canonical() == plan.canonical()


class TestExplain:
    def test_explain_sections(self, database):
        text = explain(_join_plan(), database)
        assert "== logical plan" in text
        assert "== optimized plan" in text
        assert "product-to-join" in text
        assert "== execution" in text
        assert "est." in text and "actual" in text

    def test_explain_without_running(self, database):
        text = explain(_join_plan(), database, run=False)
        assert "== execution" not in text
        assert "actual" not in text

    @pytest.mark.parametrize("engine", ENGINES)
    def test_explain_engines(self, database, engine):
        text = explain(_join_plan(), database, engine=engine)
        assert f"engine={engine}" in text
        # est. 3 join rows (1/NDV estimate), actual 3 rows out of the join
        assert "rows out: 3" in text

    def test_explain_analyze_adds_per_node_wall_clock(self, database):
        text = explain(_join_plan(), database, analyze=True)
        assert "== execution" in text
        # Every executed-plan annotation carries a measured duration and the
        # summary reports the total.
        executed = [line for line in text.splitlines() if "actual" in line]
        assert executed
        assert all(" ms)" in line for line in executed)
        assert "total time:" in text

    def test_explain_analyze_implies_run(self, database):
        # analyze=True overrides run=False — actual timings need execution.
        text = explain(_join_plan(), database, run=False, analyze=True)
        assert "== execution" in text
        assert "total time:" in text

    def test_explain_without_analyze_has_no_timings(self, database):
        text = explain(_join_plan(), database)
        assert "total time:" not in text
        assert " ms)" not in text
