"""Unit tests for the columnar batch engine.

Three layers:

* :class:`ColumnBatch` container semantics (conversions, resolution, slicing);
* column-level expression/predicate compilation versus the row-wise AST
  evaluation it replaces;
* engine parity: every operator produces the same relation and the same
  :class:`ExecutionStats` counters on the row engine, the columnar engine,
  and (for eligible selections) the indexed fast path — the row-counter
  invariant the ISSUE pins.
"""

import pytest

from repro.relational.algebra import (
    Aggregate,
    Join,
    Materialized,
    Product,
    Project,
    Scan,
    Select,
    Union,
)
from repro.relational.columnar import ColumnBatch, expression_values, predicate_mask
from repro.relational.database import Database
from repro.relational.executor import (
    DEFAULT_ENGINE,
    Executor,
    available_engines,
    check_engine,
    execute,
)

ENGINES = available_engines()  # vector drops out on NumPy-less installs
from repro.relational.expressions import Arithmetic, col, lit
from repro.relational.predicates import (
    And,
    Between,
    ColumnEquals,
    Equals,
    GreaterThan,
    In,
    LessThan,
    Not,
    NotEquals,
    Or,
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
            RelationSchema.build(
                "emp", [("id", _I), ("name", _S), ("dept", _I), ("salary", _F)]
            ),
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
                (5, None, None, None),
            ],
        ),
    )
    db.set_relation(
        "dept",
        Relation.from_schema(schema.relation("dept"), [(10, "db"), (20, "os"), (30, "net")]),
    )
    return db


class TestColumnBatch:
    def test_round_trip_preserves_relation(self):
        relation = Relation(["R.a", "R.b"], [(1, "x"), (2, "y")], name="R")
        batch = ColumnBatch.from_relation(relation)
        assert batch.data == [[1, 2], ["x", "y"]]
        assert len(batch) == 2
        # from_relation remembers its source: the round trip is the identity.
        assert batch.to_relation() is relation

    def test_fresh_batch_converts_to_equal_relation(self):
        batch = ColumnBatch(["a", "b"], [[1, 2], [3, 4]])
        relation = batch.to_relation()
        assert relation.columns == ("a", "b")
        assert relation.rows == [(1, 3), (2, 4)]

    def test_resolution_matches_relation_semantics(self):
        batch = ColumnBatch(["R.a", "S.a", "R.b"], [[1], [2], [3]])
        assert batch.resolve("a", "R") == 0
        assert batch.resolve("b") == 2
        with pytest.raises(KeyError, match="ambiguous"):
            batch.resolve("a")
        with pytest.raises(KeyError, match="no column matches"):
            batch.resolve("zz")
        with pytest.raises(KeyError):
            batch.column_index("nope")

    def test_filter_and_take_preserve_order(self):
        batch = ColumnBatch(["a"], [[10, 20, 30, 40]])
        assert batch.filter([True, False, True, False]).data == [[10, 30]]
        assert batch.take([3, 0]).data == [[40, 10]]

    def test_zero_column_batch_keeps_row_count(self):
        batch = ColumnBatch([], [], length=3)
        relation = batch.to_relation()
        assert len(relation) == 3
        assert relation.rows == [(), (), ()]

    def test_column_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ColumnBatch(["a", "b"], [[1]])


class TestRelationColumnData:
    def test_column_data_cached_until_mutation(self):
        relation = Relation(["a"], [(1,), (2,)])
        first = relation.column_data()
        assert first == [[1, 2]]
        assert relation.column_data() is first
        relation.append((3,))
        assert relation.column_data() == [[1, 2, 3]]

    def test_prefixed_view_shares_column_cache(self):
        relation = Relation(["R.a"], [(1,), (2,)], name="R")
        data = relation.column_data()
        view = relation.prefixed("X")
        assert view.column_data() is data
        assert view.columns == ("X.a",)

    def test_from_columns_rows_are_lazy_and_correct(self):
        relation = Relation.from_columns(["a", "b"], [[1, 2], ["x", "y"]])
        assert len(relation) == 2  # no row materialisation needed
        assert relation._rows is None
        assert relation.rows == [(1, "x"), (2, "y")]
        assert relation._rows is not None

    def test_from_columns_validates_shape(self):
        with pytest.raises(ValueError):
            Relation.from_columns(["a"], [[1], [2]])
        with pytest.raises(ValueError):
            Relation.from_columns(["a", "a"], [[1], [2]])

    def test_views_are_isolated_from_later_mutation(self):
        # Regression: row sharing between a relation and its relabelled views
        # is copy-on-write — mutating one side must not leak into the other,
        # and len()/rows/column_data must stay consistent on both sides.
        base = Relation(["t.a"], [(1,), (2,)], name="t")
        view = base.prefixed("x")
        assert view.rows == [(1,), (2,)]
        base.append((3,))
        assert len(base) == 3 and base.rows == [(1,), (2,), (3,)]
        assert len(view) == 2 and view.rows == [(1,), (2,)]
        assert view.column_data() == [[1, 2]]
        assert base.column_data() == [[1, 2, 3]]
        # And the other direction: mutating the view leaves the base alone.
        other = base.prefixed("y")
        other.append((9,))
        assert len(base) == 3 and len(other) == 4
        assert base.rows == [(1,), (2,), (3,)]

    def test_lazy_views_are_isolated_too(self):
        base = Relation.from_columns(["t.a"], [[1, 2]], name="t")
        view = base.prefixed("x")
        base.append((3,))
        assert len(base) == 3 and base.rows == [(1,), (2,), (3,)]
        assert len(view) == 2 and view.rows == [(1,), (2,)]


class TestExpressionValues:
    def batch(self):
        return ColumnBatch(["R.a", "R.b"], [[1, 2, None], [10.0, 20.0, 30.0]])

    def test_column_reference(self):
        const, values = expression_values(col("R.a"), self.batch())
        assert (const, values) == (False, [1, 2, None])

    def test_literal_stays_constant(self):
        assert expression_values(lit(7), self.batch()) == (True, 7)

    def test_arithmetic_propagates_none(self):
        const, values = expression_values(
            Arithmetic("*", col("R.a"), lit(2)), self.batch()
        )
        assert (const, values) == (False, [2, 4, None])

    def test_arithmetic_column_column(self):
        const, values = expression_values(
            Arithmetic("+", col("R.a"), col("R.b")), self.batch()
        )
        assert (const, values) == (False, [11.0, 22.0, None])

    def test_constant_folding(self):
        assert expression_values(Arithmetic("+", lit(1), lit(2)), self.batch()) == (True, 3)


class TestPredicateMask:
    def batch(self):
        return ColumnBatch(
            ["R.a", "R.s"], [[1, 2, 3, None], ["x", "y", "z", None]]
        )

    def test_empty_batch_short_circuits(self):
        # An unresolvable predicate must not raise on an empty batch — the
        # row engine never evaluates predicates it has no rows for.
        empty = ColumnBatch(["R.a"], [[]])
        assert predicate_mask(Equals(col("missing"), 1), empty) == []

    def test_equality_and_none_semantics(self):
        assert predicate_mask(Equals(col("R.a"), 2), self.batch()) == [
            False, True, False, False,
        ]
        # None != constant is *false* in the engine (SQL-ish), not true.
        assert predicate_mask(NotEquals(col("R.a"), 2), self.batch()) == [
            True, False, True, False,
        ]

    def test_string_literal_coerced_against_int_column(self):
        assert predicate_mask(Equals(col("R.a"), "2"), self.batch()) == [
            False, True, False, False,
        ]

    def test_constant_on_the_left_swaps(self):
        from repro.relational.predicates import Comparison

        mask = predicate_mask(Comparison(lit(2), "<", col("R.a")), self.batch())
        assert mask == [False, False, True, False]

    def test_connectives_and_not(self):
        batch = self.batch()
        both = And(GreaterThan(col("R.a"), 1), LessThan(col("R.a"), 3))
        assert predicate_mask(both, batch) == [False, True, False, False]
        either = Or(Equals(col("R.s"), "x"), Equals(col("R.s"), "z"))
        assert predicate_mask(either, batch) == [True, False, True, False]
        assert predicate_mask(Not(Equals(col("R.a"), 1)), batch) == [
            False, True, True, True,
        ]
        assert predicate_mask(TruePredicate(), batch) == [True] * 4

    def test_in_and_between(self):
        batch = self.batch()
        assert predicate_mask(In(col("R.a"), (1, 3)), batch) == [
            True, False, True, False,
        ]
        assert predicate_mask(Between(col("R.a"), 2, 3), batch) == [
            False, True, True, False,
        ]

    def test_column_to_column_comparison(self):
        batch = ColumnBatch(["L.k", "R.k"], [[1, 2, None], [1, 3, None]])
        assert predicate_mask(ColumnEquals(col("L.k"), col("R.k")), batch) == [
            True, False, False,
        ]

    @pytest.mark.parametrize(
        "predicate",
        [
            Equals(col("R.a"), 2),
            NotEquals(col("R.a"), 2),
            GreaterThan(col("R.a"), "1"),
            In(col("R.s"), ("x", "q")),
            Between(col("R.a"), "1", "3"),
            Or(Equals(col("R.a"), 1), And(TruePredicate(), LessThan(col("R.a"), 9))),
        ],
    )
    def test_mask_matches_row_wise_evaluation(self, predicate):
        batch = self.batch()
        relation = batch.to_relation()
        expected = [predicate.evaluate(relation, row) for row in relation.rows]
        assert predicate_mask(predicate, batch) == expected


ALL_PLANS = [
    Scan("emp"),
    Scan("emp", alias="e1"),
    Select(Scan("emp"), Equals(col("emp.dept"), 10)),
    Select(Scan("emp"), GreaterThan(col("emp.salary"), 150)),
    Select(Scan("emp"), NotEquals(col("emp.name"), "ann")),
    Project(Scan("emp"), [col("emp.name"), col("emp.dept")]),
    Project(Scan("emp"), [col("emp.dept")], distinct=True),
    Product(Scan("emp"), Scan("dept")),
    Join(Scan("emp"), Scan("dept"), ColumnEquals(col("emp.dept"), col("dept.id"))),
    Join(
        Scan("emp"),
        Scan("dept"),
        And(
            ColumnEquals(col("emp.dept"), col("dept.id")),
            Equals(col("dept.dname"), "db"),
        ),
    ),
    Join(Scan("emp"), Scan("dept"), GreaterThan(col("emp.dept"), col("dept.id"))),
    Union(
        Project(Scan("emp"), [col("emp.dept")]),
        Project(Scan("dept"), [col("dept.id")]),
    ),
    Union(
        Project(Scan("emp"), [col("emp.dept")]),
        Project(Scan("dept"), [col("dept.id")]),
        distinct=False,
    ),
    Aggregate(Scan("emp"), "COUNT"),
    Aggregate(Scan("emp"), "SUM", col("emp.salary")),
    Aggregate(Scan("emp"), "AVG", col("emp.salary"), group_by=[col("emp.dept")]),
    Aggregate(
        Scan("emp"),
        "SUM",
        Arithmetic("*", col("emp.salary"), lit(2)),
        group_by=[col("emp.dept")],
    ),
    Select(
        Product(Scan("emp"), Scan("dept")),
        ColumnEquals(col("emp.dept"), col("dept.id")),
    ),
]


class TestEngineParity:
    """Row and columnar engines: identical relations, identical counters."""

    @pytest.mark.parametrize("plan", ALL_PLANS, ids=lambda plan: plan.canonical()[:60])
    def test_same_result_and_stats(self, database, plan):
        row_stats, columnar_stats = ExecutionStats(), ExecutionStats()
        row_result = execute(plan, database, row_stats, engine="row")
        columnar_result = execute(plan, database, columnar_stats, engine="columnar")
        assert columnar_result.columns == row_result.columns
        assert columnar_result.rows == row_result.rows
        assert columnar_result.name == row_result.name
        assert dict(columnar_stats.operators) == dict(row_stats.operators)
        assert columnar_stats.rows_scanned == row_stats.rows_scanned
        assert columnar_stats.rows_output == row_stats.rows_output

    def test_materialized_leaf(self, database):
        relation = Relation(["x"], [(1,), (2,), (2,)])
        plan = Select(Materialized(relation), Equals(col("x"), 2))
        assert execute(plan, database, engine="columnar").rows == [(2,), (2,)]

    def test_empty_input_operators(self, database):
        empty = Materialized(Relation(["x"], []))
        for plan in [
            Select(empty, Equals(col("x"), 1)),
            Project(empty, [col("x")], distinct=True),
            Aggregate(empty, "COUNT"),
            Aggregate(empty, "SUM", col("x"), group_by=[col("x")]),
            Join(empty, Scan("dept"), ColumnEquals(col("x"), col("dept.id"))),
        ]:
            row = execute(plan, database, engine="row")
            columnar = execute(plan, database, engine="columnar")
            assert columnar.rows == row.rows

    def test_unknown_node_type_rejected_on_both_engines(self, database):
        class Strange:
            pass

        for engine in ENGINES:
            with pytest.raises(TypeError):
                Executor(database, engine=engine).execute(Strange())

    def test_unknown_engine_rejected(self, database):
        with pytest.raises(ValueError, match="unknown engine"):
            Executor(database, engine="turbo")
        assert Executor(database).engine == DEFAULT_ENGINE == "columnar"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_check_engine_accepts_every_available_engine(self, engine):
        check_engine(engine)

    @pytest.mark.parametrize("engine", ["turbo", "Columnar", ""])
    def test_executor_and_evaluator_reject_alike(self, database, engine):
        from repro.core import make_evaluator

        with pytest.raises(ValueError) as executor_error:
            Executor(database, engine=engine)
        with pytest.raises(ValueError) as evaluator_error:
            make_evaluator("e-basic", engine=engine)
        message = str(executor_error.value)
        assert message == str(evaluator_error.value)
        assert message.startswith(f"unknown engine {engine!r}; available: ")


class TestRowCounterInvariant:
    """rows_in/rows_out identical across row, indexed-select and columnar paths."""

    PLAN = Select(Scan("emp"), Equals(col("emp.dept"), 10))

    def run(self, database, engine, use_index):
        stats = ExecutionStats()
        executor = Executor(database, stats, engine=engine)
        if not use_index:
            executor._try_indexed_select = lambda node: None
        result = executor.execute(self.PLAN)
        return result, stats

    def test_all_four_paths_agree(self, database):
        results = {}
        for engine in ENGINES:
            for use_index in (False, True):
                results[(engine, use_index)] = self.run(database, engine, use_index)
        reference_result, reference_stats = results[("row", False)]
        assert reference_stats.operators["Scan"] == 1
        assert reference_stats.operators["Select"] == 1
        for (engine, use_index), (result, stats) in results.items():
            label = f"{engine}, index={use_index}"
            assert result.rows == reference_result.rows, label
            assert dict(stats.operators) == dict(reference_stats.operators), label
            assert stats.rows_scanned == reference_stats.rows_scanned, label
            assert stats.rows_output == reference_stats.rows_output, label
        # And the values themselves: Scan(5, 5) + Select(5, 2) over 5 emp rows.
        assert reference_stats.rows_scanned == 5 + 5
        assert reference_stats.rows_output == 5 + 2
