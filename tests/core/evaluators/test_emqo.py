"""Unit tests for the e-MQO evaluator."""

import pytest

from repro.core.evaluators.basic import BasicEvaluator
from repro.core.evaluators.ebasic import EBasicEvaluator
from repro.core.evaluators.emqo import EMQOEvaluator, MemoizingExecutor
from repro.core.evaluators.whole_query import build_global_plan
from repro.core.reformulation import reformulate_query
from repro.relational.algebra import Product, Scan, Select
from repro.relational.executor import Executor
from repro.relational.expressions import col
from repro.relational.plancache import PlanCache
from repro.relational.predicates import Equals
from repro.relational.stats import ExecutionStats


@pytest.fixture()
def evaluator(paper_example):
    return EMQOEvaluator(links=paper_example.links)


class TestGlobalPlan:
    def test_shared_subexpressions_found(self, paper_example):
        query = paper_example.q2()
        plans = [
            reformulate_query(query, mapping, paper_example.links)
            for mapping in paper_example.mappings
        ]
        global_plan = build_global_plan(plans)
        assert global_plan.materialisation_points >= 1
        assert global_plan.comparisons > 0
        # Benefits are sorted in decreasing order.
        benefits = [expression.benefit for expression in global_plan.shared]
        assert benefits == sorted(benefits, reverse=True)

    def test_disjoint_queries_share_nothing(self, paper_example):
        plans = [
            Select(Scan("Customer"), Equals(col("Customer.cname"), "Alice")),
            Select(Scan("Nation"), Equals(col("Nation.name"), "China")),
        ]
        global_plan = build_global_plan(plans)
        assert global_plan.materialisation_points == 0

    def test_comparisons_grow_quadratically(self, paper_example):
        query = paper_example.q2()
        plans = [
            reformulate_query(query, mapping, paper_example.links)
            for mapping in paper_example.mappings
        ]
        few = build_global_plan(plans[:2]).comparisons
        many = build_global_plan(plans).comparisons
        assert many > few

    def test_subexpression_repeated_within_one_query_is_shared(self):
        # Regression: occurrence seeding previously only looked at
        # *cross-query* pairs, so a subexpression repeated inside a single
        # source query (self-join branches, union arms) was never detected.
        branch = Select(Scan("Customer"), Equals(col("Customer.cname"), "Alice"))
        plan = Product(branch, branch)
        global_plan = build_global_plan([plan])
        assert global_plan.materialisation_points >= 1
        shared = {expression.canonical for expression in global_plan.shared}
        assert branch.canonical() in shared
        repeated = next(
            e for e in global_plan.shared if e.canonical == branch.canonical()
        )
        assert repeated.occurrences == 2

    def test_fast_mode_finds_same_shared_set(self, paper_example):
        query = paper_example.q2()
        plans = [
            reformulate_query(query, mapping, paper_example.links)
            for mapping in paper_example.mappings
        ]
        exhaustive = build_global_plan(plans, exhaustive=True)
        fast = build_global_plan(plans, exhaustive=False)
        assert exhaustive.selected_canonicals() == fast.selected_canonicals()
        assert fast.comparisons == 0


class TestMemoizingExecutor:
    def test_repeated_subplans_execute_once(self, paper_example):
        stats = ExecutionStats()
        executor = MemoizingExecutor(paper_example.database, stats)
        plan = Select(Scan("Customer"), Equals(col("Customer.oaddr"), "aaa"))
        first = executor.execute_query(plan)
        operators_after_first = stats.source_operators
        second = executor.execute_query(plan)
        assert first.rows == second.rows
        assert stats.source_operators == operators_after_first
        assert executor.cache_size >= 1


class TestEvaluation:
    def test_matches_basic_and_ebasic(self, paper_example, evaluator):
        basic = BasicEvaluator(links=paper_example.links)
        for query in (paper_example.q0(), paper_example.q_phone_by_addr(), paper_example.q2()):
            expected = basic.evaluate(query, paper_example.mappings, paper_example.database)
            actual = evaluator.evaluate(query, paper_example.mappings, paper_example.database)
            assert expected.answers.equals(actual.answers)

    def test_minimal_operator_count(self, paper_example, evaluator):
        ebasic = EBasicEvaluator(links=paper_example.links)
        query = paper_example.q2()
        shared = evaluator.evaluate(query, paper_example.mappings, paper_example.database)
        unshared = ebasic.evaluate(query, paper_example.mappings, paper_example.database)
        assert shared.stats.source_operators <= unshared.stats.source_operators

    def test_planning_phase_recorded(self, paper_example, evaluator):
        result = evaluator.evaluate(
            paper_example.q0(), paper_example.mappings, paper_example.database
        )
        assert "planning" in result.stats.phase_seconds
        assert "plan_comparisons" in result.details

    def test_global_plan_drives_materialisation(self, paper_example, evaluator):
        # The executor materialises what the global plan selected: every
        # shared-subexpression reuse is a recorded cache hit, and the saved
        # operators account exactly for the gap to e-basic.
        ebasic = EBasicEvaluator(links=paper_example.links)
        query = paper_example.q2()
        shared = evaluator.evaluate(query, paper_example.mappings, paper_example.database)
        unshared = ebasic.evaluate(query, paper_example.mappings, paper_example.database)
        assert shared.stats.plan_cache_hits > 0
        assert shared.details["plan_cache_hits"] == shared.stats.plan_cache_hits
        assert shared.stats.operators_saved == (
            unshared.stats.source_operators - shared.stats.source_operators
        )

    def test_repeated_branch_executes_once_within_one_query(self, paper_example):
        branch = Select(Scan("Customer"), Equals(col("Customer.oaddr"), "aaa"))
        plan = Product(branch, branch)
        global_plan = build_global_plan([plan])
        stats = ExecutionStats()
        executor = Executor(
            paper_example.database,
            stats,
            cache=PlanCache(maxsize=8),
            policy=global_plan.materialization_policy(),
        )
        executor.execute_query(plan)
        # Scan+Select execute once; the second branch is a cache hit.
        assert stats.plan_cache_hits == 1
        assert stats.operators_saved == 2
