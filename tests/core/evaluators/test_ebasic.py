"""Unit tests for the e-basic evaluator."""

import pytest

from repro.core.evaluators.basic import BasicEvaluator
from repro.core.evaluators.ebasic import EBasicEvaluator
from repro.core.evaluators.whole_query import per_distinct_plan
from repro.relational.stats import ExecutionStats


@pytest.fixture()
def evaluator(paper_example):
    return EBasicEvaluator(links=paper_example.links)


class TestClustering:
    def test_identical_source_queries_are_grouped(self, paper_example):
        stats = ExecutionStats()
        distinct = per_distinct_plan(
            paper_example.q0(), paper_example.mappings, paper_example.links, stats
        )
        # m1/m2/m3/m5 differ on addr between oaddr/haddr: m1,m2 share one source
        # query; m3,m5 share another; m4 is alone -> 3 distinct queries, and
        # no plan-less entry for unmatched mass.
        assert len(distinct) == 3
        assert all(entry.plan is not None for entry in distinct)
        assert stats.reformulations == 5
        probabilities = sorted(round(entry.probability, 6) for entry in distinct)
        assert probabilities == [0.2, 0.3, 0.5]

    def test_unmatched_mappings_reported(self, paper_example):
        stats = ExecutionStats()
        unmatched, *distinct = per_distinct_plan(
            paper_example.q1(), paper_example.mappings, paper_example.links, stats
        )
        assert unmatched.plan is None
        assert unmatched.probability == pytest.approx(0.1)
        assert len(distinct) == 2

    def test_mapping_counts_tracked(self, paper_example):
        stats = ExecutionStats()
        distinct = per_distinct_plan(
            paper_example.q0(), paper_example.mappings, paper_example.links, stats
        )
        assert sorted(entry.mapping_count for entry in distinct) == [1, 2, 2]


class TestEvaluation:
    def test_matches_basic_answers(self, paper_example, evaluator):
        basic = BasicEvaluator(links=paper_example.links)
        for query in (paper_example.q0(), paper_example.q_phone_by_addr(), paper_example.q2()):
            expected = basic.evaluate(query, paper_example.mappings, paper_example.database)
            actual = evaluator.evaluate(query, paper_example.mappings, paper_example.database)
            assert expected.answers.equals(actual.answers), expected.answers.difference(
                actual.answers
            )

    def test_executes_fewer_source_queries_than_basic(self, paper_example, evaluator):
        result = evaluator.evaluate(
            paper_example.q0(), paper_example.mappings, paper_example.database
        )
        assert result.stats.source_queries == 3
        assert result.details["distinct_source_queries"] == 3

    def test_rewriting_effort_unchanged(self, paper_example, evaluator):
        # e-basic still reformulates every mapping (its known weakness).
        result = evaluator.evaluate(
            paper_example.q0(), paper_example.mappings, paper_example.database
        )
        assert result.stats.reformulations == 5

    def test_null_probability_accounted(self, paper_example, evaluator):
        result = evaluator.evaluate(
            paper_example.q1(), paper_example.mappings, paper_example.database
        )
        assert result.answers.empty_probability == pytest.approx(1.0)
