"""Unit tests for the o-sharing evaluator (Algorithm 2)."""

import pytest

from repro.core.evaluators.basic import BasicEvaluator
from repro.core.evaluators.osharing import OSharingEvaluator


@pytest.fixture()
def evaluator(paper_example):
    return OSharingEvaluator(links=paper_example.links)


class TestCorrectness:
    def test_matches_basic_on_paper_queries(self, paper_example, evaluator):
        basic = BasicEvaluator(links=paper_example.links)
        for query in (
            paper_example.q0(),
            paper_example.q_phone_by_addr(),
            paper_example.q1(),
            paper_example.q2(),
        ):
            expected = basic.evaluate(query, paper_example.mappings, paper_example.database)
            actual = evaluator.evaluate(query, paper_example.mappings, paper_example.database)
            assert expected.answers.equals(actual.answers), expected.answers.difference(
                actual.answers
            )

    @pytest.mark.parametrize("strategy", ["random", "snf", "sef"])
    def test_all_strategies_give_same_answers(self, paper_example, strategy):
        basic = BasicEvaluator(links=paper_example.links)
        sharing = OSharingEvaluator(links=paper_example.links, strategy=strategy, seed=1)
        query = paper_example.q2()
        expected = basic.evaluate(query, paper_example.mappings, paper_example.database)
        actual = sharing.evaluate(query, paper_example.mappings, paper_example.database)
        assert expected.answers.equals(actual.answers)

    def test_prune_empty_flag_does_not_change_answers(self, paper_example):
        query = paper_example.q2()
        pruned = OSharingEvaluator(links=paper_example.links, prune_empty=True).evaluate(
            query, paper_example.mappings, paper_example.database
        )
        unpruned = OSharingEvaluator(links=paper_example.links, prune_empty=False).evaluate(
            query, paper_example.mappings, paper_example.database
        )
        assert pruned.answers.equals(unpruned.answers)
        assert pruned.stats.source_operators <= unpruned.stats.source_operators

    def test_aggregate_query_counts_zero_rows(self, paper_example):
        """COUNT over an empty selection must return 0, not the null answer."""
        from repro.core.target_query import TargetQuery
        from repro.relational.algebra import Aggregate, Scan, Select
        from repro.relational.expressions import col
        from repro.relational.predicates import Equals

        plan = Aggregate(
            Select(Scan("Person"), Equals(col("addr"), "no-such-address")), "COUNT"
        )
        query = TargetQuery(plan, paper_example.target_schema, name="count-q")
        basic = BasicEvaluator(links=paper_example.links)
        sharing = OSharingEvaluator(links=paper_example.links)
        expected = basic.evaluate(query, paper_example.mappings, paper_example.database)
        actual = sharing.evaluate(query, paper_example.mappings, paper_example.database)
        assert expected.answers.equals(actual.answers)
        assert expected.answers.probability((0,)) == pytest.approx(1.0)


class TestSharingBehaviour:
    def test_fewer_operators_than_basic(self, paper_example, evaluator):
        basic = BasicEvaluator(links=paper_example.links)
        query = paper_example.q2()
        shared = evaluator.evaluate(query, paper_example.mappings, paper_example.database)
        unshared = basic.evaluate(query, paper_example.mappings, paper_example.database)
        assert shared.stats.source_operators < unshared.stats.source_operators

    def test_utrace_counters_reported(self, paper_example, evaluator):
        result = evaluator.evaluate(
            paper_example.q2(), paper_example.mappings, paper_example.database
        )
        assert result.details["units_created"] >= 2
        assert result.details["max_depth"] >= 1
        assert result.details["strategy"] == "sef"
        assert result.details["representative_mappings"] >= 1

    def test_empty_intermediate_prunes_subtree(self, paper_example, evaluator):
        # q2's σ addr='hk' over oaddr (m1, m2) yields an empty relation, so the
        # corresponding branch of the u-trace is pruned (Figure 6(a)).
        result = evaluator.evaluate(
            paper_example.q2(), paper_example.mappings, paper_example.database
        )
        assert result.details["units_pruned_empty"] >= 1
        assert result.answers.empty_probability == pytest.approx(0.5)

    def test_unmatched_operator_attribute_becomes_null_answer(self, paper_example, evaluator):
        result = evaluator.evaluate(
            paper_example.q1(), paper_example.mappings, paper_example.database
        )
        assert result.answers.empty_probability == pytest.approx(1.0)

    def test_partially_matched_mappings_do_not_null_out_matched_ones(self, paper_example):
        """Regression: a mapping that cannot answer the query must not drag
        fully-matched mappings of the same source-relation cover into the null
        answer when a binary operator over a referenced scan is executed."""
        from repro.core.target_query import TargetQuery
        from repro.matching.mappings import Mapping, MappingSet
        from repro.relational.algebra import Product, Scan, Select
        from repro.relational.expressions import col
        from repro.relational.predicates import Equals

        plan = Select(
            Product(Scan("Person"), Scan("Order")), Equals(col("Person.phone"), "123")
        )
        query = TargetQuery(plan, paper_example.target_schema, name="regression")
        # Both mappings cover Person with Customer, but only the second one
        # matches the referenced phone attribute.  The unmatched mapping comes
        # first so that a cover-based grouping would pick it as representative.
        missing_phone = Mapping(
            mapping_id=91,
            correspondences={"Person.addr": "Customer.haddr", "Order.total": "C_Order.amount"},
            score=1.0,
            probability=0.5,
        )
        matched = Mapping(
            mapping_id=92,
            correspondences={"Person.phone": "Customer.ophone", "Order.total": "C_Order.amount"},
            score=1.0,
            probability=0.5,
        )
        mappings = MappingSet([missing_phone, matched])
        basic = BasicEvaluator(links=paper_example.links)
        sharing = OSharingEvaluator(links=paper_example.links)
        expected = basic.evaluate(query, mappings, paper_example.database)
        actual = sharing.evaluate(query, mappings, paper_example.database)
        assert expected.answers.probability(("123",)) == pytest.approx(0.5)
        assert expected.answers.equals(actual.answers), expected.answers.difference(
            actual.answers
        )

    def test_scenario_query_matches_basic(self, excel_scenario):
        from repro.workloads import paper_query

        query = paper_query("Q5", excel_scenario.target_schema)
        basic = BasicEvaluator(links=excel_scenario.links)
        sharing = OSharingEvaluator(links=excel_scenario.links)
        expected = basic.evaluate(query, excel_scenario.mappings, excel_scenario.database)
        actual = sharing.evaluate(query, excel_scenario.mappings, excel_scenario.database)
        assert expected.answers.equals(actual.answers)

    def test_invalid_strategy_rejected(self, paper_example):
        with pytest.raises(KeyError):
            OSharingEvaluator(links=paper_example.links, strategy="optimal")


class TestWarmSteps:
    def test_warm_call_replans_no_step(self, paragon_scenario):
        # Pushed Q10's Product step reads an intermediate of the previous
        # step; the optimizer memo knows it by what computed it, so a warm
        # call considers no join order at all.
        from repro import connect
        from repro.workloads import paper_query

        query = paper_query("Q10", paragon_scenario.target_schema)
        with connect(paragon_scenario) as session:
            cold = session.query(query)
            warm = session.query(query)
        assert cold.stats.join_orders_considered > 0
        assert warm.stats.join_orders_considered == 0
        assert warm.stats.optimizer_memo_hits > cold.stats.optimizer_memo_hits
        assert warm.answers.equals(cold.answers)
        assert list(warm.answers.items()) == list(cold.answers.items())
