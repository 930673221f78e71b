"""Unit tests for the plan executor."""

import pytest

from repro.relational.algebra import Aggregate, Join, Materialized, Product, Project, Scan, Select
from repro.relational.database import Database
from repro.relational.executor import Executor, execute
from repro.relational.expressions import Arithmetic, col, lit
from repro.relational.predicates import (
    And,
    ColumnEquals,
    Comparison,
    Equals,
    GreaterThan,
    TruePredicate,
)
from repro.relational.relation import Relation
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.stats import ExecutionStats
from repro.relational.types import DataType

_I = DataType.INTEGER
_S = DataType.STRING
_F = DataType.FLOAT


@pytest.fixture()
def database() -> Database:
    schema = DatabaseSchema(
        "S",
        [
            RelationSchema.build("emp", [("id", _I), ("name", _S), ("dept", _I), ("salary", _F)]),
            RelationSchema.build("dept", [("id", _I), ("dname", _S)]),
        ],
    )
    db = Database(schema)
    db.set_relation(
        "emp",
        Relation.from_schema(
            schema.relation("emp"),
            [
                (1, "ann", 10, 100.0),
                (2, "bob", 10, 200.0),
                (3, "cat", 20, 300.0),
                (4, "dan", 30, 400.0),
            ],
        ),
    )
    db.set_relation(
        "dept",
        Relation.from_schema(schema.relation("dept"), [(10, "db"), (20, "os"), (30, "net")]),
    )
    return db


class TestScanAndSelect:
    def test_scan(self, database):
        result = execute(Scan("emp"), database)
        assert len(result) == 4
        assert result.columns[0] == "emp.id"

    def test_scan_alias(self, database):
        result = execute(Scan("emp", alias="e1"), database)
        assert result.columns[0] == "e1.id"

    def test_indexed_equality_select(self, database):
        stats = ExecutionStats()
        result = execute(Select(Scan("emp"), Equals(col("emp.dept"), 10)), database, stats)
        assert {row[1] for row in result} == {"ann", "bob"}
        assert stats.operators["Select"] == 1

    def test_indexed_select_records_true_input_cardinality(self, database):
        # Regression: the indexed path used to record Scan(0, 0) and a
        # selection rows_in equal to the *post-filter* row count, making row
        # counters incomparable with the non-indexed path.  It now records
        # exactly what the generic path would: Scan(4, 4) + Select(4, 2).
        stats = ExecutionStats()
        execute(Select(Scan("emp"), Equals(col("emp.dept"), 10)), database, stats)
        assert stats.rows_scanned == 4 + 4
        assert stats.rows_output == 4 + 2

    def test_indexed_select_does_not_copy_base_relation(self, database):
        # Regression: the indexed path used to materialise the aliased base
        # relation via database.scan just to resolve one column.  The column
        # now resolves against the stored relation, so an aliased indexed
        # select must not pay an O(N) relabelling copy; observable proxy: the
        # index is built once and the result carries the aliased labels.
        plan = Select(Scan("emp", alias="e9"), Equals(col("e9.dept"), 10))
        result = execute(plan, database)
        assert result.columns[0] == "e9.id"
        assert result.name == "e9"
        assert len(result) == 2
        assert database.index_catalog.builds == 1

    def test_indexed_select_alias_mismatched_qualifier_falls_back(self, database):
        # A qualifier naming the base relation while the scan is aliased is
        # not resolvable on the indexed path; the generic path must answer.
        plan = Select(Scan("emp", alias="e1"), Equals(col("emp.dept"), 20))
        with pytest.raises(KeyError):
            execute(plan, database)

    def test_indexed_select_with_string_literal_for_int_column(self, database):
        result = execute(Select(Scan("emp"), Equals(col("emp.id"), "3")), database)
        assert len(result) == 1

    def test_non_indexed_select(self, database):
        plan = Select(Scan("emp"), GreaterThan(col("emp.salary"), 250))
        result = execute(plan, database)
        assert len(result) == 2

    def test_select_over_alias_uses_index_path(self, database):
        plan = Select(Scan("emp", alias="e1"), Equals(col("e1.dept"), 20))
        result = execute(plan, database)
        assert len(result) == 1
        assert result.columns[0] == "e1.id"

    def test_select_conjunction_not_indexed_but_correct(self, database):
        plan = Select(
            Scan("emp"),
            And(Equals(col("emp.dept"), 10), GreaterThan(col("emp.salary"), 150)),
        )
        result = execute(plan, database)
        assert [row[1] for row in result] == ["bob"]

    def test_select_true_predicate(self, database):
        result = execute(Select(Scan("emp"), TruePredicate()), database)
        assert len(result) == 4

    def test_materialized_leaf(self, database):
        relation = Relation(["x"], [(1,), (2,)])
        result = execute(Select(Materialized(relation), Equals(col("x"), 2)), database)
        assert result.rows == [(2,)]


class TestProject:
    def test_project(self, database):
        result = execute(Project(Scan("emp"), [col("emp.name")]), database)
        assert result.columns == ("emp.name",)
        assert len(result) == 4

    def test_project_distinct(self, database):
        result = execute(Project(Scan("emp"), [col("emp.dept")], distinct=True), database)
        assert len(result) == 3

    def test_project_repeated_column_gets_unique_label(self, database):
        result = execute(Project(Scan("emp"), [col("emp.name"), col("emp.name")]), database)
        assert len(set(result.columns)) == 2


class TestProductAndJoin:
    def test_product_cardinality(self, database):
        result = execute(Product(Scan("emp"), Scan("dept")), database)
        assert len(result) == 12
        assert len(result.columns) == 6

    def test_product_duplicate_labels_suffixed(self, database):
        result = execute(Product(Scan("emp"), Scan("emp")), database)
        assert len(set(result.columns)) == len(result.columns)

    def test_hash_join(self, database):
        plan = Join(Scan("emp"), Scan("dept"), ColumnEquals(col("emp.dept"), col("dept.id")))
        result = execute(plan, database)
        assert len(result) == 4

    def test_join_reversed_predicate_sides(self, database):
        plan = Join(Scan("emp"), Scan("dept"), ColumnEquals(col("dept.id"), col("emp.dept")))
        assert len(execute(plan, database)) == 4

    def test_theta_join_falls_back_to_nested_loops(self, database):
        plan = Join(
            Scan("emp"),
            Scan("dept"),
            GreaterThan(col("emp.dept"), 10) & ColumnEquals(col("emp.dept"), col("dept.id")),
        )
        result = execute(plan, database)
        assert len(result) == 2

    def test_join_with_residual_conjunct(self, database):
        predicate = And(
            ColumnEquals(col("emp.dept"), col("dept.id")),
            Equals(col("dept.dname"), "db"),
        )
        result = execute(Join(Scan("emp"), Scan("dept"), predicate), database)
        assert len(result) == 2


class TestAggregates:
    def test_count_star(self, database):
        result = execute(Aggregate(Scan("emp"), "COUNT"), database)
        assert result.rows == [(4,)]

    def test_count_ignores_nulls(self, database):
        relation = Relation(["x"], [(1,), (None,), (3,)])
        result = execute(Aggregate(Materialized(relation), "COUNT", col("x")), database)
        assert result.rows == [(2,)]

    def test_sum_avg_min_max(self, database):
        for function, expected in [("SUM", 1000.0), ("AVG", 250.0), ("MIN", 100.0), ("MAX", 400.0)]:
            result = execute(Aggregate(Scan("emp"), function, col("emp.salary")), database)
            assert result.rows == [(expected,)]

    def test_sum_over_empty_is_none(self, database):
        relation = Relation(["x"], [])
        result = execute(Aggregate(Materialized(relation), "SUM", col("x")), database)
        assert result.rows == [(None,)]

    def test_count_over_empty_is_zero(self, database):
        relation = Relation(["x"], [])
        result = execute(Aggregate(Materialized(relation), "COUNT"), database)
        assert result.rows == [(0,)]

    def test_group_by(self, database):
        plan = Aggregate(Scan("emp"), "SUM", col("emp.salary"), group_by=[col("emp.dept")])
        result = execute(plan, database)
        totals = dict(result.rows)
        assert totals == {10: 300.0, 20: 300.0, 30: 400.0}

    def test_aggregate_over_expression(self, database):
        plan = Aggregate(Scan("emp"), "SUM", Arithmetic("*", col("emp.salary"), lit(2)))
        result = execute(plan, database)
        assert result.rows == [(2000.0,)]


class TestStatsAndErrors:
    def test_stats_count_operators(self, database):
        stats = ExecutionStats()
        executor = Executor(database, stats)
        executor.execute_query(Select(Scan("emp"), Equals(col("emp.dept"), 10)))
        assert stats.source_queries == 1
        assert stats.operators["Select"] == 1
        assert stats.operators["Scan"] == 1

    def test_unknown_node_type_rejected(self, database):
        class Strange:
            pass

        with pytest.raises(TypeError):
            Executor(database).execute(Strange())

    def test_executor_uses_supplied_stats(self, database):
        stats = ExecutionStats()
        execute(Scan("emp"), database, stats)
        assert stats.rows_scanned == 4


class TestCompositeHashJoin:
    """Joins with several equality conjuncts hash on a composite key."""

    @pytest.fixture()
    def pairs_db(self) -> Database:
        schema = DatabaseSchema(
            "P",
            [
                RelationSchema.build("l", [("a", _I), ("b", _I), ("tag", _S)]),
                RelationSchema.build("r", [("a", _I), ("b", _I), ("val", _S)]),
            ],
        )
        db = Database(schema)
        db.set_relation(
            "l",
            Relation.from_schema(
                schema.relation("l"),
                [(1, 1, "x"), (1, 2, "y"), (2, 1, "z"), (None, 1, "n")],
            ),
        )
        db.set_relation(
            "r",
            Relation.from_schema(
                schema.relation("r"),
                [(1, 1, "p"), (1, 2, "q"), (2, 2, "s"), (None, 1, "m")],
            ),
        )
        return db

    def _join_plan(self):
        return Join(
            Scan("l"),
            Scan("r"),
            And(
                ColumnEquals(col("l.a"), col("r.a")),
                ColumnEquals(col("l.b"), col("r.b")),
            ),
        )

    def test_composite_key_matches_nested_loop(self, pairs_db):
        plan = self._join_plan()
        result = execute(plan, pairs_db, engine="row")
        # Only rows agreeing on *both* key columns survive; None never matches.
        assert sorted((row[2], row[5]) for row in result.rows) == [("x", "p"), ("y", "q")]

    def test_engines_agree_on_composite_join(self, pairs_db):
        plan = self._join_plan()
        row = execute(plan, pairs_db, engine="row")
        columnar = execute(plan, pairs_db, engine="columnar")
        assert row.columns == columnar.columns
        assert row.rows == columnar.rows

    def test_composite_with_residual_conjunct(self, pairs_db):
        plan = Join(
            Scan("l"),
            Scan("r"),
            And(
                ColumnEquals(col("l.a"), col("r.a")),
                ColumnEquals(col("l.b"), col("r.b")),
                Equals(col("l.tag"), "x"),
            ),
        )
        row = execute(plan, pairs_db, engine="row")
        columnar = execute(plan, pairs_db, engine="columnar")
        assert sorted((r[2], r[5]) for r in row.rows) == [("x", "p")]
        assert row.rows == columnar.rows

    def test_find_hash_join_collects_all_pairs(self, pairs_db):
        executor = Executor(pairs_db)
        left = pairs_db.relation("l")
        right = pairs_db.relation("r")
        predicate = And(
            ColumnEquals(col("l.a"), col("r.a")),
            ColumnEquals(col("l.b"), col("r.b")),
        )
        assert executor._find_hash_join(predicate, left, right) == [(0, 0), (1, 1)]


class TestIndexedSelectWithConjunction:
    def test_and_predicate_uses_index_and_filters_residual(self, database):
        stats = ExecutionStats()
        plan = Select(
            Scan("emp"),
            And(Equals(col("emp.dept"), 10), GreaterThan(col("emp.salary"), 150.0)),
        )
        result = execute(plan, database, stats)
        assert [row[1] for row in result.rows] == ["bob"]
        # Same operator and row counters as the generic path would record.
        assert stats.operators["Scan"] == 1 and stats.operators["Select"] == 1
        assert stats.rows_scanned == 4 + 4
        assert stats.rows_output == 4 + 1
        assert database.index_catalog.builds == 1

    def test_and_predicate_engines_agree(self, database):
        plan = Select(
            Scan("emp"),
            And(Equals(col("emp.dept"), 10), GreaterThan(col("emp.salary"), 150.0)),
        )
        row = execute(plan, database, engine="row")
        columnar = execute(plan, database, engine="columnar")
        assert row.rows == columnar.rows


class TestCompositeKeyCoercionGuard:
    """Mixed-representation key columns must not lose coercion matches."""

    @pytest.fixture()
    def mixed_db(self) -> Database:
        schema = DatabaseSchema(
            "M",
            [
                RelationSchema.build("a", [("x", _I), ("y", _S)]),
                RelationSchema.build("b", [("x", _I), ("y", _I)]),
            ],
        )
        db = Database(schema)
        # a.y holds the *string* "2"; b.y holds the int 2.  The coerced
        # residual accepts "2" = 2; a composite hash key would not.
        db.set_relation("a", Relation.from_schema(schema.relation("a"), [(1, "2")]))
        db.set_relation("b", Relation.from_schema(schema.relation("b"), [(1, 2)]))
        return db

    def test_secondary_mixed_conjunct_stays_in_residual(self, mixed_db):
        plan = Join(
            Scan("a"),
            Scan("b"),
            And(
                ColumnEquals(col("a.x"), col("b.x")),
                ColumnEquals(col("a.y"), col("b.y")),
            ),
        )
        reference = execute(
            Select(
                Product(Scan("a"), Scan("b")),
                And(
                    ColumnEquals(col("a.x"), col("b.x")),
                    ColumnEquals(col("a.y"), col("b.y")),
                ),
            ),
            mixed_db,
            engine="row",
        )
        for engine in ("row", "columnar"):
            result = execute(plan, mixed_db, engine=engine)
            assert result.rows == reference.rows == [(1, "2", 1, 2)], engine

    def test_only_compatible_conjuncts_join_the_key(self, mixed_db):
        executor = Executor(mixed_db)
        predicate = And(
            ColumnEquals(col("a.x"), col("b.x")),
            ColumnEquals(col("a.y"), col("b.y")),
        )
        pairs = executor._find_hash_join(
            predicate, mixed_db.relation("a"), mixed_db.relation("b")
        )
        assert pairs == [(0, 0)]


class TestIndexedSelectFirstConjunctOnly:
    def test_non_leading_equality_declines_fast_path(self, database):
        # The first conjunct is a range, so the unoptimized stacked-select
        # chain would never index; the merged form must not either.
        stats = ExecutionStats()
        plan = Select(
            Scan("emp"),
            And(GreaterThan(col("emp.salary"), 150.0), Equals(col("emp.dept"), 10)),
        )
        result = execute(plan, database, stats)
        assert [row[1] for row in result.rows] == ["bob"]
        assert database.index_catalog.builds == 0

    def test_mixed_representation_column_declines_fast_path(self):
        # Column a holds both int 2 and string "2": dict-keyed index lookup
        # and coerced equality disagree, so the conjunction fast path must
        # decline and both conjunct orders must give the generic answer.
        schema = DatabaseSchema(
            "X", [RelationSchema.build("r", [("a", _I), ("b", _I)])]
        )
        db = Database(schema)
        db.set_relation(
            "r", Relation.from_schema(schema.relation("r"), [(2, 1), ("2", 1)])
        )
        eq_first = Select(
            Scan("r"), And(Equals(col("r.a"), 2), GreaterThan(col("r.b"), 0))
        )
        eq_last = Select(
            Scan("r"), And(GreaterThan(col("r.b"), 0), Equals(col("r.a"), 2))
        )
        for engine in ("row", "columnar"):
            assert len(execute(eq_first, db, engine=engine)) == 2, engine
            assert len(execute(eq_last, db, engine=engine)) == 2, engine

    def test_numeric_column_keeps_fast_path(self, database):
        stats = ExecutionStats()
        plan = Select(
            Scan("emp"),
            And(Equals(col("emp.dept"), 10), GreaterThan(col("emp.salary"), 150.0)),
        )
        result = execute(plan, database, stats)
        assert [row[1] for row in result.rows] == ["bob"]
        assert database.index_catalog.builds == 1

    def test_single_comparison_fast_path_guarded_on_inexact_columns(self):
        # Column a stores the string "2.0": coercion parses it equal to the
        # literal 2, but a dict-keyed index lookup can never match it.  The
        # fast path must decline so the generic (coercing) path answers.
        schema = DatabaseSchema(
            "Y", [RelationSchema.build("r", [("a", _S), ("b", _I)])]
        )
        db = Database(schema)
        db.set_relation(
            "r", Relation.from_schema(schema.relation("r"), [("2.0", 1), ("x", 2)])
        )
        plan = Select(Scan("r"), Equals(col("r.a"), 2))
        for engine in ("row", "columnar"):
            result = execute(plan, db, engine=engine)
            assert result.rows == [("2.0", 1)], engine


class _WritesOnIndexRequest(Database):
    """Deletes ``emp`` row 0 when an index is first requested.

    The write lands after the executor has pinned its snapshot of ``emp`` and
    before the index lookup — a concurrent writer, made deterministic.
    """

    written = False

    def _write_once(self) -> None:
        if not self.written:
            self.written = True
            self.delete_rows("emp", [0])

    def index(self, relation_name, column):
        self._write_once()
        return super().index(relation_name, column)

    @property
    def index_catalog(self):
        self._write_once()
        return super().index_catalog


class TestIndexedSelectReadsPinnedSnapshot:
    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_write_between_pin_and_lookup_is_invisible(self, database, engine):
        # Regression: the fast path pinned ``emp`` but then looked up rows
        # through an index over the *live* relation, so a write landing in
        # between returned post-write rows under pre-write Scan counters.
        racing = _WritesOnIndexRequest(
            database.schema, {name: relation.rename({}) for name, relation in database}
        )
        indexed_stats = ExecutionStats()
        indexed = execute(
            Select(Scan("emp"), Equals(col("emp.dept"), 10)),
            racing,
            indexed_stats,
            engine=engine,
        )
        assert racing.written and len(racing.relation("emp")) == 3
        # The generic path (a literal-left comparison never takes the index)
        # over the unwritten snapshot.
        generic_stats = ExecutionStats()
        generic = execute(
            Select(Scan("emp"), Comparison(lit(10), "=", col("emp.dept"))),
            database,
            generic_stats,
            engine=engine,
        )
        assert [row[1] for row in generic.rows] == ["ann", "bob"]
        assert indexed == generic
        assert indexed_stats.snapshot() == generic_stats.snapshot()
