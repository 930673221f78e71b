"""Unit tests for the probabilistic top-k evaluator (Algorithm 4), budgeted or not."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AnytimeResult, connect
from repro.core.answer import ProbabilisticAnswer
from repro.core.evaluators import make_evaluator
from repro.core.evaluators.osharing import OSharingEvaluator, TopKEvaluator
from repro.core.utrace import interval_answers, top_k_final
from repro.datagen.scenario import build_scenario
from repro.workloads import paper_query


def exact_top_k(paper_example, query, k):
    """Reference top-k computed from the exact o-sharing answer."""
    exact = OSharingEvaluator(links=paper_example.links).evaluate(
        query, paper_example.mappings, paper_example.database
    )
    return exact.answers.top_k(k)


def _settle(answers, mass, tuples):
    if tuples:
        answers.add_tuples(tuples, mass)
    else:
        answers.add_empty(mass)


class TestTopKFinal:
    def test_table_ii_walk_through(self):
        # The paper's Table II walk-through: 0.5 of the mass settles with no
        # answer, then 0.2 on {a}, then 0.2 on {a, b, c}.  After the third
        # unit the top-1 answer is decided without visiting the last e-unit.
        answers, unexplored = ProbabilisticAnswer(), 1.0
        steps = [(0.5, []), (0.2, [("a",)]), (0.2, [("a",), ("b",), ("c",)])]
        finality = []
        for mass, tuples in steps:
            _settle(answers, mass, tuples)
            unexplored -= mass
            intervals = interval_answers(answers, unexplored)
            finality.append(top_k_final(intervals, unexplored, k=1))
        assert finality == [False, False, True]
        assert intervals[0].values == ("a",)
        assert intervals[0].lb == pytest.approx(0.4)
        assert intervals[0].ub == pytest.approx(0.5)

    def test_intervals_rank_by_lower_bound(self):
        answers = ProbabilisticAnswer.from_pairs([(("a",), 0.3), (("b",), 0.5)])
        intervals = interval_answers(answers, 0.2)
        assert [interval.values for interval in intervals] == [("b",), ("a",)]
        assert top_k_final(intervals, 0.2, k=2)
        # fewer than k tuples seen: final only once no mass is left
        assert not top_k_final(intervals, 0.2, k=3)
        assert top_k_final(interval_answers(answers, 0.0), 0.0, k=3)


#: A settle sequence: integer weights (normalised to masses summing to 1),
#: each landing on a set of answer tuples; an empty set is an unmatched group.
settle_sequences = st.lists(
    st.tuples(st.integers(min_value=1, max_value=20), st.frozensets(st.sampled_from("abcdef"))),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(settles=settle_sequences, k=st.integers(min_value=1, max_value=4))
def test_top_k_final_prefix_is_a_valid_top_k(settles, k):
    """Whenever the stop rule fires on a prefix, its first k tuples are a top-k of the whole."""
    total = sum(weight for weight, _ in settles)
    steps = [(weight / total, sorted((value,) for value in values)) for weight, values in settles]
    exact = ProbabilisticAnswer()
    for mass, tuples in steps:
        _settle(exact, mass, tuples)
    expected = exact.top_k(k)

    settled = ProbabilisticAnswer()
    for index, (mass, tuples) in enumerate(steps):
        _settle(settled, mass, tuples)
        unexplored = sum(rest for rest, _ in steps[index + 1 :])
        intervals = interval_answers(settled, unexplored)
        if not top_k_final(intervals, unexplored, k):
            continue
        returned = [interval for interval in intervals if interval.lb > 0][:k]
        assert len(returned) == len(expected)
        for interval in returned:
            assert exact.probability(interval.values) >= expected[-1].probability - 1e-9


#: Optimizer bookkeeping: each drive of a resume chain plans with its own
#: executor, so its memo hits differ from one drive's; the work does not.
_PLANNING = ("plans_optimized", "optimizer_memo_hits", "join_orders_considered", "estimated_rows")


def _work(result) -> dict:
    """Every work counter of a result's stats (wall-clock and planning excluded)."""
    snapshot = result.stats.snapshot()
    for name in ("phase_seconds",) + _PLANNING:
        snapshot.pop(name)
    return snapshot


def _assert_same_top_k(result, reference):
    """Byte-identical answers, work counters and shared ``details`` keys."""
    assert repr(result.answers) == repr(reference.answers)
    assert _work(result) == _work(reference)
    for key, value in reference.details.items():
        assert result.details[key] == value, key


@pytest.fixture(scope="module")
def excel_queries(excel_scenario):
    return [
        paper_query(query_id, excel_scenario.target_schema)
        for query_id in ("Q1", "Q2", "Q3", "Q4")
    ]


def _top_k(scenario, query, k, **options):
    return TopKEvaluator(k=k, links=scenario.links, **options).evaluate(
        query, scenario.mappings, scenario.database
    )


@settings(max_examples=40, deadline=None)
@given(
    query_index=st.integers(min_value=0, max_value=3),
    k=st.integers(min_value=1, max_value=4),
    step=st.integers(min_value=1, max_value=6),
)
def test_top_k_final_prefix_is_a_valid_top_k_through_a_budgeted_drive(
    excel_scenario, excel_queries, query_index, k, step
):
    """The same property, on a real drive: every step of a budgeted resume chain
    whose stop rule holds answers a top-k of the exact answer."""
    query = excel_queries[query_index]
    exact = OSharingEvaluator(links=excel_scenario.links).evaluate(
        query, excel_scenario.mappings, excel_scenario.database
    ).answers
    expected = exact.top_k(k)
    result = _top_k(excel_scenario, query, k, budget={"eunit_limit": step})
    while True:
        if result.converged:
            assert len(result.answers) == len(expected)
            for values in result.answers.tuples:
                assert exact.probability(values) >= expected[-1].probability - 1e-9
            break
        result = result.resume(budget={"eunit_limit": step})


class TestBudgetedTopK:
    """A budget is top-k's second stop rule: sound, a prefix, resumable."""

    @pytest.mark.parametrize("query_id", ["Q1", "Q2", "Q3", "Q4"])
    @pytest.mark.parametrize(
        "budget", [{"mapping_limit": 0}, {"mapping_limit": 8}, {"eunit_limit": 3}]
    )
    def test_intervals_contain_the_exact_probabilities(self, excel_scenario, query_id, budget):
        query = paper_query(query_id, excel_scenario.target_schema)
        exact = OSharingEvaluator(links=excel_scenario.links).evaluate(
            query, excel_scenario.mappings, excel_scenario.database
        ).answers
        result = _top_k(excel_scenario, query, 2, budget=budget)
        assert isinstance(result, AnytimeResult)
        for interval in result.intervals:
            assert interval.lb - 1e-9 <= exact.probability(interval.values) <= interval.ub + 1e-9
        seen = {interval.values for interval in result.intervals}
        for values, probability in exact.items():
            if values not in seen:
                assert probability <= result.unexplored_mass + 1e-9
        for values, lb in result.answers.items():
            assert result.interval_for(values).lb == lb

    @pytest.mark.parametrize("query_id", ["Q1", "Q2", "Q3", "Q4"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_resume_chain_equals_unbudgeted_top_k(self, excel_scenario, query_id, k):
        query = paper_query(query_id, excel_scenario.target_schema)
        reference = _top_k(excel_scenario, query, k)
        result = _top_k(excel_scenario, query, k, budget={"mapping_limit": 0})
        assert result.stats.source_operators == 0
        steps = 0
        while not result.converged:
            before = result.stats.source_operators
            result = result.resume(budget={"eunit_limit": 2})
            assert result.stats.source_operators >= before
            steps += 1
            assert steps <= reference.details["units_created"]
        # resuming a converged top-k does no more work
        again = result.resume()
        assert _work(again) == _work(result)
        _assert_same_top_k(result, reference)

    @pytest.mark.parametrize("query_id", ["Q1", "Q3", "Q4"])
    def test_unreachable_budget_is_unbudgeted_top_k(self, excel_scenario, query_id):
        query = paper_query(query_id, excel_scenario.target_schema)
        reference = _top_k(excel_scenario, query, 2)
        result = _top_k(excel_scenario, query, 2, budget={"mapping_limit": 10**6})
        assert not result.stopped_by_budget
        _assert_same_top_k(result, reference)

    def test_budget_executes_a_prefix(self, excel_scenario):
        query = paper_query("Q4", excel_scenario.target_schema)
        reference = _top_k(excel_scenario, query, 1)
        result = _top_k(excel_scenario, query, 1, budget={"eunit_limit": 4})
        assert result.stopped_by_budget
        assert result.stats.source_operators <= reference.stats.source_operators
        assert result.details["units_created"] <= reference.details["units_created"]

    def test_every_entry_point_runs_the_same_top_k(self, paper_example):
        query = paper_example.q_phone_by_addr()
        with connect(paper_example) as session:
            reference = session.top_k(query, 3)
            via_query = session.query(query, method="top-k", k=3)
        direct = make_evaluator("top-k", links=paper_example.links, k=3).evaluate(
            query, paper_example.mappings, paper_example.database
        )
        for result in (via_query, direct):
            assert result.evaluator == "top-k"
            _assert_same_top_k(result, reference)
            assert result.details == reference.details


class TestTopKEvaluator:
    def test_k_must_be_positive(self, paper_example):
        with pytest.raises(ValueError):
            TopKEvaluator(k=0, links=paper_example.links)
        with pytest.raises(ValueError, match="positive k"):
            TopKEvaluator(links=paper_example.links)

    def test_k_is_keyword_only(self, paper_example):
        with pytest.raises(TypeError):
            TopKEvaluator(paper_example.links, 3)

    @pytest.mark.parametrize(
        "method, option",
        [
            ("o-sharing", {"k": 3}),
            ("o-sharing", {"budget": {"mapping_limit": 1}}),
            ("anytime", {"k": 3}),
            ("anytime", {"prune_empty": False}),
            ("top-k", {"k": 3, "prune_empty": False}),
        ],
    )
    def test_presets_reject_options_they_do_not_read(self, paper_example, method, option):
        with pytest.raises(ValueError, match="does not apply to method"):
            make_evaluator(method, links=paper_example.links, **option)

    def test_top1_matches_exact_ranking(self, paper_example):
        query = paper_example.q_phone_by_addr()
        result = TopKEvaluator(k=1, links=paper_example.links).evaluate(
            query, paper_example.mappings, paper_example.database
        )
        expected = exact_top_k(paper_example, query, 1)
        assert result.answers.tuples == [expected[0].values]
        assert result.answers.tuples == [("456",)]

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_topk_set_matches_exact_answers(self, paper_example, k):
        query = paper_example.q_phone_by_addr()
        result = TopKEvaluator(k=k, links=paper_example.links).evaluate(
            query, paper_example.mappings, paper_example.database
        )
        expected = {answer.values for answer in exact_top_k(paper_example, query, k)}
        assert set(result.answers.tuples) == expected

    def test_lower_bounds_never_exceed_exact_probability(self, paper_example):
        query = paper_example.q_phone_by_addr()
        exact = OSharingEvaluator(links=paper_example.links).evaluate(
            query, paper_example.mappings, paper_example.database
        )
        result = TopKEvaluator(k=3, links=paper_example.links).evaluate(
            query, paper_example.mappings, paper_example.database
        )
        for values, lower_bound in result.answers.items():
            assert lower_bound <= exact.answers.probability(values) + 1e-9

    def test_details_reported(self, paper_example):
        query = paper_example.q_phone_by_addr()
        result = TopKEvaluator(k=2, links=paper_example.links).evaluate(
            query, paper_example.mappings, paper_example.database
        )
        assert result.details["k"] == 2
        assert "stopped_early" in result.details
        assert result.details["candidate_tuples"] >= 2

    def test_small_k_explores_no_more_than_exact(self, paper_example):
        query = paper_example.q_phone_by_addr()
        exact = OSharingEvaluator(links=paper_example.links).evaluate(
            query, paper_example.mappings, paper_example.database
        )
        topk = TopKEvaluator(k=1, links=paper_example.links).evaluate(
            query, paper_example.mappings, paper_example.database
        )
        assert topk.stats.source_operators <= exact.stats.source_operators

    def test_scenario_topk_agrees_with_exact(self, excel_scenario):
        query = paper_query("Q4", excel_scenario.target_schema)
        exact = OSharingEvaluator(links=excel_scenario.links).evaluate(
            query, excel_scenario.mappings, excel_scenario.database
        )
        k = 3
        result = TopKEvaluator(k=k, links=excel_scenario.links).evaluate(
            query, excel_scenario.mappings, excel_scenario.database
        )
        expected_probabilities = sorted(
            (answer.probability for answer in exact.answers.top_k(k)), reverse=True
        )
        # The returned set may differ on ties, but the k-th probability and the
        # number of answers must agree with the exact ranking.
        assert len(result.answers) == len(exact.answers.top_k(k))
        exact_by_tuple = {a.values: a.probability for a in exact.answers.ranked()}
        for values, lower_bound in result.answers.items():
            assert values in exact_by_tuple
            assert lower_bound <= exact_by_tuple[values] + 1e-9
        if expected_probabilities:
            threshold = expected_probabilities[-1]
            for values in result.answers.tuples:
                assert exact_by_tuple[values] >= threshold - 1e-9


class TestTopKAgainstFullRanking:
    """Top-k must equal the k best answers of o-sharing's full ranking.

    These run on *generated* workloads (the Excel matching scenario), not the
    hand-sized paper example: the answer sets are larger, the bounds actually
    have to do work, and the prunable cases let us assert that bound pruning
    expands strictly fewer e-units than exact evaluation.
    """

    @pytest.mark.parametrize("query_id", ["Q1", "Q2", "Q3", "Q4"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_topk_equals_head_of_full_ranking(self, excel_scenario, query_id, k):
        query = paper_query(query_id, excel_scenario.target_schema)
        exact = OSharingEvaluator(links=excel_scenario.links).evaluate(
            query, excel_scenario.mappings, excel_scenario.database
        )
        result = TopKEvaluator(k=k, links=excel_scenario.links).evaluate(
            query, excel_scenario.mappings, excel_scenario.database
        )
        ranked = exact.answers.ranked()
        expected = exact.answers.top_k(k)
        assert len(result.answers) == len(expected)
        probabilities = sorted((answer.probability for answer in ranked), reverse=True)
        if len(probabilities) > k and abs(probabilities[k - 1] - probabilities[k]) < 1e-9:
            # A tie at the boundary makes the top-k *set* ambiguous; every
            # returned tuple must still rank at least as high as the k-th.
            exact_by_tuple = {answer.values: answer.probability for answer in ranked}
            for values in result.answers.tuples:
                assert exact_by_tuple[values] >= probabilities[k - 1] - 1e-9
        else:
            assert set(result.answers.tuples) == {answer.values for answer in expected}

    def test_prunable_scenario_expands_strictly_fewer_eunits(self, excel_scenario):
        # Q3 at k=1: the first partitions already decide the winner, so the
        # bound check must cut the traversal short (strictly fewer e-units
        # than o-sharing's exhaustive expansion), not merely tie it.
        query = paper_query("Q3", excel_scenario.target_schema)
        exact = OSharingEvaluator(links=excel_scenario.links).evaluate(
            query, excel_scenario.mappings, excel_scenario.database
        )
        result = TopKEvaluator(k=1, links=excel_scenario.links).evaluate(
            query, excel_scenario.mappings, excel_scenario.database
        )
        assert result.details["stopped_early"]
        assert result.details["units_created"] < exact.details["units_created"]
        assert result.stats.source_operators < exact.stats.source_operators

    @pytest.mark.parametrize("query_id", ["Q1", "Q4"])
    def test_empty_leaves_count_as_pruned_like_osharing(self, excel_scenario, query_id):
        # Regression: a fully evaluated e-unit whose result holds no answer
        # tuple used to count as "answered" here and as "pruned" in o-sharing.
        # Q1 and Q4 have such units; k beyond the number of answers makes
        # top-k walk the whole u-trace, so every counter must agree.
        query = paper_query(query_id, excel_scenario.target_schema)
        exact = OSharingEvaluator(links=excel_scenario.links).evaluate(
            query, excel_scenario.mappings, excel_scenario.database
        )
        result = TopKEvaluator(
            k=len(exact.answers) + 1, links=excel_scenario.links
        ).evaluate(query, excel_scenario.mappings, excel_scenario.database)
        assert exact.details["units_pruned_empty"] > 0
        for counter in ("eunits_created", "eunits_pruned", "mappings_evaluated"):
            assert getattr(result.stats, counter) == getattr(exact.stats, counter), counter
        for detail in ("units_created", "units_pruned_empty", "units_answered", "max_depth"):
            assert result.details[detail] == exact.details[detail], detail

    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_topk_engine_parity(self, excel_scenario, engine):
        # The differential harness sweeps only the exact-answer methods, so
        # pin top-k's engine parity here.
        query = paper_query("Q3", excel_scenario.target_schema)
        reference = TopKEvaluator(k=2, links=excel_scenario.links, engine="row").evaluate(
            query, excel_scenario.mappings, excel_scenario.database
        )
        result = TopKEvaluator(k=2, links=excel_scenario.links, engine=engine).evaluate(
            query, excel_scenario.mappings, excel_scenario.database
        )
        assert dict(result.answers.items()) == dict(reference.answers.items())
        assert result.stats.rows_scanned == reference.stats.rows_scanned
        assert result.stats.rows_output == reference.stats.rows_output


@pytest.fixture(scope="module")
def bench_excel():
    """The Fig. 12 Excel scenario, where top-1 runs some queries to the end."""
    return build_scenario(target="Excel", h=60, scale=0.03, seed=7)


@pytest.mark.parametrize("query_id, stops", [("Q1", True), ("Q3", False), ("Q4", False)])
def test_stopped_early_means_the_frontier_was_left(bench_excel, query_id, stops):
    # Regression: stopped_early used to be True whenever the last settled
    # unit drained the mass, i.e. on every drive, even one that created
    # every e-unit o-sharing creates.
    query = paper_query(query_id, bench_excel.target_schema)
    run = (query, bench_excel.mappings, bench_excel.database)
    exact = OSharingEvaluator(links=bench_excel.links).evaluate(*run)
    result = TopKEvaluator(k=1, links=bench_excel.links).evaluate(*run)
    assert result.details["stopped_early"] is stops
    if stops:
        assert result.stats.source_operators < exact.stats.source_operators
    else:
        assert result.details["units_created"] == exact.details["units_created"]


class TestDeterministicTieBreak:
    def test_equal_probability_ties_break_on_canonical_tuple_order(self):
        # Regression: ranking used to tie-break on str(values), which orders
        # ("b",) and (2,) by their ambiguous string forms.  The canonical
        # key sorts by (type name, str) per element — mixed-type ties get a
        # stable, replayable order (the anytime ranked prefix relies on it).
        answers = ProbabilisticAnswer.from_pairs(
            (values, 0.25) for values in [(2,), ("b",), ("a",), (10,)]
        )
        ranked = [interval.values for interval in interval_answers(answers, 0.0)]
        # ints (type name "int") before strs (type name "str"); 10 < 2 as text
        assert ranked == [(10,), (2,), ("a",), ("b",)]

    def test_tie_break_is_insertion_order_independent(self):
        orders = [
            [(2,), ("b",), ("a",), (10,)],
            [("a",), (10,), (2,), ("b",)],
            [(10,), ("b",), (2,), ("a",)],
        ]
        rankings = []
        for order in orders:
            answers = ProbabilisticAnswer.from_pairs((values, 0.25) for values in order)
            rankings.append([interval.values for interval in interval_answers(answers, 0.0)])
        assert rankings[0] == rankings[1] == rankings[2]

    def test_tie_break_matches_probabilistic_answer_ranking(self):
        answers = ProbabilisticAnswer.from_pairs(
            (values, 0.25) for values in [("b", 1), ("a", 2), ("a", 1), ("b", 0)]
        )
        assert [interval.values for interval in interval_answers(answers, 0.0)] == [
            ranked.values for ranked in answers.ranked()
        ]
