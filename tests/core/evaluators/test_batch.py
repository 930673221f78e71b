"""Unit and equivalence tests for the batch (workload) evaluator."""

import pytest

from repro import connect
from repro.bench.harness import cold_query
from repro.core import make_evaluator
from repro.core.evaluators import build_global_plan, per_distinct_plan
from repro.core.evaluators.batch import BatchEvaluator
from repro.relational.stats import ExecutionStats
from repro.workloads import paper_query


@pytest.fixture(scope="module")
def workload(excel_scenario):
    """A serving-style workload: the Excel queries, each repeated."""
    ids = ["Q1", "Q2", "Q3", "Q1", "Q4", "Q2", "Q5", "Q1"]
    return [paper_query(qid, excel_scenario.target_schema) for qid in ids]


@pytest.fixture(scope="module")
def batch_result(excel_scenario, workload):
    with connect(excel_scenario) as session:
        return session.query_many(workload)


class TestEquivalence:
    @pytest.mark.parametrize("method", ["basic", "e-basic", "e-mqo"])
    def test_answers_match_per_query_evaluation(
        self, excel_scenario, workload, batch_result, method
    ):
        for query, result in zip(workload, batch_result.results):
            reference = cold_query(query, excel_scenario, method)
            assert reference.answers.equals(result.answers), (
                f"{method} disagrees on {query.name}: "
                f"{reference.answers.difference(result.answers)}"
            )

    def test_single_query_entry_point(self, excel_scenario):
        query = paper_query("Q2", excel_scenario.target_schema)
        evaluator = BatchEvaluator(links=excel_scenario.links)
        result = evaluator.evaluate(
            query, excel_scenario.mappings, excel_scenario.database
        )
        reference = cold_query(query, excel_scenario, "e-basic")
        assert reference.answers.equals(result.answers)

    def test_registered_in_evaluator_registry(self, excel_scenario):
        evaluator = make_evaluator("batch", links=excel_scenario.links)
        assert isinstance(evaluator, BatchEvaluator)


class TestSharing:
    def test_fewer_operators_than_independent_emqo(
        self, excel_scenario, workload, batch_result
    ):
        independent = sum(
            cold_query(query, excel_scenario, "e-mqo").stats.source_operators
            for query in workload
        )
        assert batch_result.source_operators < independent

    def test_repeated_queries_are_full_cache_hits(self, batch_result):
        # Q1 appears three times; the repeats execute zero operators.
        q1_results = [r for r in batch_result.results if r.query.name == "Q1"]
        assert len(q1_results) == 3
        assert q1_results[1].stats.source_operators == 0
        assert q1_results[2].stats.source_operators == 0
        assert q1_results[1].stats.plan_cache_hits > 0

    def test_reformulation_amortised_across_repeats(
        self, excel_scenario, workload, batch_result
    ):
        # Eight workload queries but only five distinct: clustering runs five
        # times, so total reformulations are 5*h rather than 8*h.
        assert batch_result.details["distinct_target_queries"] == 5
        assert batch_result.stats.reformulations == 5 * excel_scenario.h

    def test_cache_statistics_reported(self, batch_result):
        assert batch_result.plan_cache["hits"] > 0
        assert batch_result.stats.plan_cache_hits == batch_result.plan_cache["hits"]
        assert batch_result.stats.operators_saved > 0
        summary = batch_result.summary()
        assert summary["queries"] == 8
        assert summary["plan_cache_hits"] == batch_result.plan_cache["hits"]

    def test_exhaustive_planning_selects_same_sharing(self, excel_scenario, workload):
        # e-MQO's pairwise confirmation and batch's occurrence counting pick
        # the same materialisation points over the workload's source plans.
        plans = [
            entry.plan
            for query in workload
            for entry in per_distinct_plan(
                query, excel_scenario.mappings, excel_scenario.links, ExecutionStats()
            )
            if entry.plan is not None
        ]
        exhaustive = build_global_plan(plans, exhaustive=True)
        fast = build_global_plan(plans, exhaustive=False)
        assert exhaustive.shared == fast.shared
        assert fast.materialisation_points > 0
        assert exhaustive.comparisons > 0
        assert fast.comparisons == 0


class TestInvalidation:
    def test_cache_detached_after_evaluate_many(self, excel_scenario, workload):
        database = excel_scenario.database
        before = len(database.index_catalog._listeners)
        BatchEvaluator(links=excel_scenario.links).evaluate_many(
            workload, excel_scenario.mappings, database
        )
        assert len(database.index_catalog._listeners) == before
