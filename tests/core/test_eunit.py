"""Unit tests for e-units and candidate-operator enumeration."""

import pytest

from repro.core.eunit import (
    CandidateOperator,
    EUnit,
    apply_execution,
    candidate_operators,
    is_leaf,
    iter_materialized,
    splice_out,
)
from repro.core.target_query import TargetQuery
from repro.relational.algebra import Aggregate, Materialized, Product, Project, Scan, Select
from repro.relational.expressions import col
from repro.relational.predicates import Equals
from repro.relational.relation import Relation


def materialized(rows=((1,),), columns=("Person@Customer.ophone",)):
    return Materialized(Relation(list(columns), list(rows)))


class TestEUnit:
    def test_probability_sums_mapping_probabilities(self, paper_example):
        unit = EUnit(plan=paper_example.q0().plan, mappings=list(paper_example.mappings)[:3])
        assert unit.probability == pytest.approx(0.7)

    def test_fully_evaluated_flag(self, paper_example):
        query = paper_example.q0()
        assert not EUnit(plan=query.plan, mappings=[]).is_fully_evaluated
        unit = EUnit(plan=materialized(), mappings=[])
        assert unit.is_fully_evaluated
        assert unit.result.relation.rows == [(1,)]

    def test_result_requires_materialized_plan(self, paper_example):
        unit = EUnit(plan=paper_example.q0().plan, mappings=[])
        with pytest.raises(ValueError):
            unit.result

    def test_empty_intermediate_detection(self, paper_example):
        empty = materialized(rows=())
        plan = Select(empty, Equals(col("ophone"), "1"))
        unit = EUnit(plan=plan, mappings=[])
        assert unit.has_empty_intermediate()

    def test_empty_intermediate_ignored_when_aggregate_remains(self, paper_example):
        # COUNT over an empty relation still produces a row, so the shortcut
        # must not fire (it would change the answer from 0 to "no answer").
        empty = materialized(rows=())
        plan = Aggregate(empty, "COUNT")
        unit = EUnit(plan=plan, mappings=[])
        assert not unit.has_empty_intermediate()

    def test_spawn_extends_path_and_depth(self, paper_example):
        unit = EUnit(plan=paper_example.q0().plan, mappings=list(paper_example.mappings))
        assert (unit.path, unit.depth) == ((), 0)
        child = unit.spawn(materialized(), list(paper_example.mappings)[:1], index=2)
        grandchild = child.spawn(materialized(), [], index=0)
        assert (child.path, child.depth) == ((2,), 1)
        assert (grandchild.path, grandchild.depth) == ((2, 0), 2)


class TestCandidateOperators:
    def test_is_leaf(self):
        assert is_leaf(Scan("Person"))
        assert is_leaf(materialized())
        assert not is_leaf(Select(Scan("Person"), Equals(col("x"), 1)))

    def test_selection_chain_all_candidates(self, paper_example):
        query = paper_example.q2()
        candidates = candidate_operators(query.plan, query)
        kinds = [type(c.operator).__name__ for c in candidates]
        # Both selections are valid (the outer one via push-down); the product
        # is not valid because its left child is not a leaf.
        assert kinds.count("Select") == 2
        assert "Product" not in kinds

    def test_pushdown_leaf_identified(self, paper_example):
        query = paper_example.q2()
        candidates = candidate_operators(query.plan, query)
        outer = next(c for c in candidates if c.operator is query.plan.left)
        inner = next(c for c in candidates if c.operator is query.plan.left.child)
        assert outer.pushdown_leaf is query.plan.left.child.child
        assert inner.pushdown_leaf is None
        assert outer.effective_leaf is query.plan.left.child.child
        assert inner.effective_leaf is query.plan.left.child.child

    def test_product_candidate_when_children_are_leaves(self, paper_example):
        query = paper_example.q2()
        plan = query.plan.replace(query.plan.left, materialized())
        candidates = candidate_operators(plan, query)
        assert any(isinstance(c.operator, Product) for c in candidates)

    def test_projection_valid_only_at_leaf_and_root_safe(self, paper_example):
        query = paper_example.q0()
        # Initially the projection's child is a selection -> not a candidate.
        kinds = [type(c.operator).__name__ for c in candidate_operators(query.plan, query)]
        assert "Project" not in kinds
        # Once the selection is materialised, the projection becomes valid.
        plan = query.plan.replace(query.plan.child, materialized())
        kinds = [type(c.operator).__name__ for c in candidate_operators(plan, query)]
        assert "Project" in kinds

    def test_projection_that_drops_needed_columns_is_invalid(self, paper_example):
        schema = paper_example.target_schema
        plan = Select(
            Project(Scan("Person"), [col("pname")]),
            Equals(col("addr"), "aaa"),
        )
        query = TargetQuery(plan, schema)
        candidates = candidate_operators(query.plan, query)
        assert all(not isinstance(c.operator, Project) for c in candidates)

    def test_aggregate_candidate_over_leaf(self, paper_example):
        schema = paper_example.target_schema
        query = TargetQuery(Aggregate(Scan("Person"), "COUNT"), schema)
        candidates = candidate_operators(query.plan, query)
        assert len(candidates) == 1
        assert isinstance(candidates[0].operator, Aggregate)


class TestPlanSurgery:
    def test_splice_out_unary(self, paper_example):
        query = paper_example.q2()
        outer = query.plan.left
        spliced = splice_out(query.plan, outer)
        remaining_selects = [n for n in spliced.walk() if isinstance(n, Select)]
        assert len(remaining_selects) == 1

    def test_splice_out_rejects_binary(self, paper_example):
        query = paper_example.q2()
        with pytest.raises(ValueError):
            splice_out(query.plan, query.plan)

    def test_apply_execution_replaces_operator_subtree(self, paper_example):
        query = paper_example.q2()
        inner = query.plan.left.child
        result = materialized()
        candidate = CandidateOperator(operator=inner)
        new_plan = apply_execution(query.plan, candidate, result)
        assert any(node is result for node in new_plan.walk())
        assert all(node is not inner for node in new_plan.walk())

    def test_apply_execution_with_pushdown(self, paper_example):
        query = paper_example.q2()
        outer = query.plan.left
        leaf = outer.child.child
        result = materialized()
        candidate = CandidateOperator(operator=outer, pushdown_leaf=leaf)
        new_plan = apply_execution(query.plan, candidate, result)
        # The pushed-down selection is gone, the inner one survives and now
        # reads from the materialised result.
        selects = [n for n in new_plan.walk() if isinstance(n, Select)]
        assert len(selects) == 1
        assert selects[0].child is result

    def test_iter_materialized(self, paper_example):
        query = paper_example.q2()
        plan = query.plan.replace(query.plan.left.child.child, materialized())
        assert len(list(iter_materialized(plan))) == 1
