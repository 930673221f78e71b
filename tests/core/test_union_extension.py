"""Tests for the UNION set operator (the paper's future-work extension).

The paper's conclusion lists set operators as future work; the library
supports UNION end to end — algebra node, executor, query- and operator-level
reformulation, o-sharing candidate selection — and these tests pin the whole
path down, including a hand-computed probabilistic answer on the Figures 1-3
running example.
"""

import pytest

from repro import connect
from repro.core.eunit import EUnit, candidate_operators
from repro.core.target_query import TargetQuery
from repro.relational.algebra import Materialized, Project, Scan, Select, Union
from repro.relational.database import Database
from repro.relational.executor import execute
from repro.relational.expressions import col
from repro.relational.predicates import Equals
from repro.relational.relation import Relation
from repro.relational.schema import DatabaseSchema
from repro.relational.stats import ExecutionStats


def empty_database() -> Database:
    return Database(DatabaseSchema("S", []))


class TestUnionNode:
    def test_children_roundtrip(self):
        node = Union(Scan("A"), Scan("B"), distinct=False)
        rebuilt = node.with_children([Scan("C"), Scan("D")])
        assert isinstance(rebuilt, Union)
        assert rebuilt.left.relation == "C"
        assert not rebuilt.distinct

    def test_canonical_distinguishes_all(self):
        assert "UnionAll" in Union(Scan("A"), Scan("B"), distinct=False).canonical()
        assert "Union(" in Union(Scan("A"), Scan("B")).canonical()

    def test_no_referenced_columns(self):
        assert Union(Scan("A"), Scan("B")).referenced_columns() == []


class TestUnionExecution:
    def left(self):
        return Materialized(Relation(["t.a", "t.b"], [(1, "x"), (2, "y")]))

    def right(self):
        return Materialized(Relation(["u.a", "u.b"], [(2, "y"), (3, "z")]))

    def test_distinct_union(self):
        result = execute(Union(self.left(), self.right()), empty_database())
        assert result.columns == ("t.a", "t.b")
        assert result.rows == [(1, "x"), (2, "y"), (3, "z")]

    def test_union_all_keeps_duplicates(self):
        result = execute(Union(self.left(), self.right(), distinct=False), empty_database())
        assert len(result) == 4

    def test_union_with_empty_side(self):
        empty = Materialized(Relation(["v.a", "v.b"], []))
        result = execute(Union(self.left(), empty), empty_database())
        assert len(result) == 2

    def test_arity_mismatch_rejected(self):
        bad = Materialized(Relation(["v.a"], [(1,)]))
        with pytest.raises(ValueError, match="equal arity"):
            execute(Union(self.left(), bad), empty_database())

    def test_union_operator_counted(self):
        stats = ExecutionStats()
        execute(Union(self.left(), self.right()), empty_database(), stats)
        assert stats.operators["Union"] == 1


def union_query(paper_example) -> TargetQuery:
    """π addr ((σ phone='123' Person as P1) ∪ (σ phone='456' Person as P2))."""
    plan = Project(
        Union(
            Select(Scan("Person", alias="P1"), Equals(col("P1.phone"), "123")),
            Select(Scan("Person", alias="P2"), Equals(col("P2.phone"), "456")),
        ),
        [col("P1.addr")],
    )
    return TargetQuery(plan, paper_example.target_schema, name="q-union")


class TestUnionQueries:
    def test_candidate_operators_include_union_once_children_materialise(self, paper_example):
        query = union_query(paper_example)
        kinds = [type(c.operator).__name__ for c in candidate_operators(query.plan, query)]
        assert kinds.count("Select") == 2
        assert "Union" not in kinds
        materialised = Materialized(Relation(["P1@Customer.oaddr"], []))
        plan = query.plan
        for select in [n for n in plan.walk() if isinstance(n, Select)]:
            plan = plan.replace(select, materialised if select is not None else select)
        kinds = [type(c.operator).__name__ for c in candidate_operators(plan, query)]
        assert "Union" in kinds

    def test_empty_intermediate_not_pruned_under_union(self, paper_example):
        query = union_query(paper_example)
        empty = Materialized(Relation(["P1@Customer.oaddr"], []))
        first_select = next(n for n in query.plan.walk() if isinstance(n, Select))
        plan = query.plan.replace(first_select, empty)
        unit = EUnit(plan=plan, mappings=list(paper_example.mappings))
        assert not unit.has_empty_intermediate()

    def test_hand_computed_probabilistic_answer(self, paper_example):
        """Union over the Figure 2 instance: aaa 0.8, bbb 0.5, hk 0.5."""
        query = union_query(paper_example)
        with connect(paper_example, method="basic") as session:
            result = session.query(query)
        assert result.answers.probability(("aaa",)) == pytest.approx(0.8)
        assert result.answers.probability(("bbb",)) == pytest.approx(0.5)
        assert result.answers.probability(("hk",)) == pytest.approx(0.5)
        assert len(result.answers) == 3

    @pytest.mark.parametrize("method", ["e-basic", "e-mqo", "q-sharing", "o-sharing"])
    def test_all_evaluators_agree_on_union_query(self, paper_example, method):
        query = union_query(paper_example)
        with connect(paper_example) as session:
            reference = session.query(query, method="basic")
            result = session.query(query, method=method)
        assert reference.answers.equals(result.answers), reference.answers.difference(
            result.answers
        )

    def test_union_root_output_attributes_come_from_left_branch(self, excel_scenario):
        from repro.workloads.queries import PERSON, PHONE

        plan = Union(
            Project(
                Select(Scan("PO", alias="A"), Equals(col("A.telephone"), PHONE)),
                [col("A.company")],
            ),
            Project(
                Select(Scan("PO", alias="B"), Equals(col("B.invoiceTo"), PERSON)),
                [col("B.company")],
            ),
        )
        query = TargetQuery(plan, excel_scenario.target_schema, name="union-po")
        assert [a.display for a in query.output_attributes] == ["A.company"]
        assert not query.is_aggregate

    def test_union_on_scenario(self, excel_scenario):
        from repro.workloads.queries import PERSON, PHONE

        # UNION sides must be arity-compatible, so each branch projects the
        # same single attribute before the union.
        plan = Union(
            Project(
                Select(Scan("PO", alias="A"), Equals(col("A.telephone"), PHONE)),
                [col("A.company")],
            ),
            Project(
                Select(Scan("PO", alias="B"), Equals(col("B.invoiceTo"), PERSON)),
                [col("B.company")],
            ),
        )
        query = TargetQuery(plan, excel_scenario.target_schema, name="union-po")
        with connect(excel_scenario) as session:
            reference = session.query(query, method="basic")
            result = session.query(query, method="o-sharing")
        assert reference.answers.equals(result.answers)
