"""Cross-evaluator equivalence: every algorithm must return the same answers.

This is the central correctness property of the paper — q-sharing, o-sharing
and the MQO variants are pure optimisations of *basic*.  The tests run all
evaluators on the paper's running example and on small versions of the
Table III workload and compare the probabilistic answers exactly.
"""

import pytest

from repro import Session
from repro.bench.harness import cold_query
from repro.core.evaluators import EVALUATORS
from repro.workloads import paper_query, product_query, selection_query

#: Every exact-answer method (top-k answers only its first k tuples).
ALL_METHODS = [method for method in EVALUATORS if method != "top-k"]
SHARING_METHODS = ["e-basic", "q-sharing", "o-sharing"]


def assert_all_equal(query, mappings, database, links, methods=ALL_METHODS):
    def evaluate_with(method):
        with Session(database, mappings, links=links) as session:
            return session.query(query, method=method)

    reference = evaluate_with("basic")
    # Tuple probabilities are marginals (a mapping may produce several answer
    # tuples), so they need not sum to one — but each must be a probability,
    # and the null-answer mass cannot exceed one.
    assert all(0.0 <= p <= 1.0 + 1e-9 for _, p in reference.answers.items())
    assert 0.0 <= reference.answers.empty_probability <= 1.0 + 1e-9
    for method in methods:
        if method == "basic":
            continue
        result = evaluate_with(method)
        problems = reference.answers.difference(result.answers)
        assert reference.answers.equals(result.answers), f"{method}: {problems}"


class TestPaperExampleEquivalence:
    @pytest.mark.parametrize("query_name", ["q0", "q_phone_by_addr", "q1", "q2"])
    def test_all_evaluators_agree(self, paper_example, query_name):
        query = getattr(paper_example, query_name)()
        assert_all_equal(
            query, paper_example.mappings, paper_example.database, paper_example.links
        )

    def test_subsets_of_mappings_agree(self, paper_example):
        for h in (1, 2, 3):
            subset = paper_example.mappings.subset(h)
            assert_all_equal(
                paper_example.q_phone_by_addr(),
                subset,
                paper_example.database,
                paper_example.links,
            )


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("query_id", ["Q1", "Q2", "Q3", "Q4", "Q5"])
    def test_excel_queries(self, excel_scenario, query_id):
        query = paper_query(query_id, excel_scenario.target_schema)
        assert_all_equal(
            query,
            excel_scenario.mappings,
            excel_scenario.database,
            excel_scenario.links,
        )

    @pytest.mark.parametrize("query_id", ["Q6", "Q7"])
    def test_noris_queries(self, noris_scenario, query_id):
        query = paper_query(query_id, noris_scenario.target_schema)
        assert_all_equal(
            query,
            noris_scenario.mappings,
            noris_scenario.database,
            noris_scenario.links,
        )

    @pytest.mark.parametrize("query_id", ["Q8", "Q9", "Q10"])
    def test_paragon_queries(self, paragon_scenario, query_id):
        query = paper_query(query_id, paragon_scenario.target_schema)
        assert_all_equal(
            query,
            paragon_scenario.mappings,
            paragon_scenario.database,
            paragon_scenario.links,
        )

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_selection_workload(self, excel_scenario, count):
        query = selection_query(count, excel_scenario.target_schema)
        assert_all_equal(
            query,
            excel_scenario.mappings,
            excel_scenario.database,
            excel_scenario.links,
            methods=SHARING_METHODS,
        )

    @pytest.mark.parametrize("products", [1, 2])
    def test_product_workload(self, excel_scenario, products):
        query = product_query(products, excel_scenario.target_schema)
        assert_all_equal(
            query,
            excel_scenario.mappings.subset(8),
            excel_scenario.database,
            excel_scenario.links,
            methods=SHARING_METHODS,
        )

    @pytest.mark.parametrize("strategy", ["random", "snf", "sef"])
    def test_osharing_strategies_agree_on_workload(self, excel_scenario, strategy):
        query = paper_query("Q5", excel_scenario.target_schema)
        reference = cold_query(query, excel_scenario, method="e-basic")
        result = cold_query(query, excel_scenario, method="o-sharing", strategy=strategy, seed=7)
        assert reference.answers.equals(result.answers)


class TestProbabilityConservation:
    @pytest.mark.parametrize("query_id", ["Q5", "Q10"])
    def test_aggregate_queries_conserve_probability(self, scenarios, query_id):
        # An aggregate query yields exactly one answer tuple per mapping, so
        # the tuple probabilities plus the null-answer mass must sum to one.
        from repro.workloads.queries import PAPER_QUERIES

        spec = PAPER_QUERIES[query_id]
        scenario = scenarios[spec.target]
        query = spec.build(scenario.target_schema)
        for method in ALL_METHODS:
            result = cold_query(query, scenario, method=method)
            assert result.answers.total_probability == pytest.approx(1.0)

    @pytest.mark.parametrize("query_id", ["Q1", "Q4"])
    def test_probabilities_are_well_formed(self, excel_scenario, query_id):
        query = paper_query(query_id, excel_scenario.target_schema)
        result = cold_query(query, excel_scenario, method="o-sharing")
        assert all(0.0 < p <= 1.0 + 1e-9 for _, p in result.answers.items())
        assert 0.0 <= result.answers.empty_probability <= 1.0 + 1e-9
