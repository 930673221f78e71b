"""The anytime axis: budgeted drives, sound intervals, byte-identical limits.

ARCHITECTURE.md invariant 11, pinned here:

* **no budget (or an unreachable one) ⇒ byte-identical to o-sharing exact**
  — answers compared as exact dicts (floats included) and deterministic
  counters compared field for field;
* **any deterministic budget ⇒ sound intervals** — ``lb ≤ exact ≤ ub`` for
  every tuple, monotonically tightening across ``resume()`` steps, on every
  available engine including forced-sharding parallel (hypothesis-driven);
* a ``converged`` report is a *proof*: the ranked prefix must equal the
  exact ranking.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anytime import Budget, IntervalAnswer
from repro.core.answer import PROBABILITY_TOLERANCE
from repro.core.evaluators import EVALUATORS
from repro.core.evaluators.osharing import AnytimeEvaluator, OSharingEvaluator
from repro.core.utrace import ranking_converged
from repro.relational.executor import available_engines
from repro.relational.parallel import ParallelConfig

TOL = PROBABILITY_TOLERANCE

#: The deterministic counters whose equality "byte-identical" claims cover
#: (memo hits are excluded everywhere: they depend on plan label order, which
#: legitimately differs between depth-first and priority-order exploration).
_COUNTERS = (
    "source_operators",
    "source_queries",
    "reformulations",
    "partitions_created",
    "rows_scanned",
    "rows_output",
    "eunits_created",
    "eunits_pruned",
    "mappings_evaluated",
)


def _counters(stats) -> dict:
    snapshot = {name: getattr(stats, name) for name in _COUNTERS}
    snapshot["operators"] = dict(stats.operators)
    return snapshot


def _exact(example, query, **options):
    return OSharingEvaluator(links=example.links, **options).evaluate(
        query, example.mappings, example.database
    )


def _anytime(example, query, **options):
    return AnytimeEvaluator(links=example.links, **options).evaluate(
        query, example.mappings, example.database
    )


def _queries(example):
    return [example.q0(), example.q1(), example.q2(), example.q_phone_by_addr()]


# --------------------------------------------------------------------------- #
# registration and construction
# --------------------------------------------------------------------------- #
def test_registered_as_first_class_method():
    assert EVALUATORS["anytime"] is AnytimeEvaluator
    assert AnytimeEvaluator.name == "anytime"


def test_budget_validation_is_eager_with_did_you_mean():
    with pytest.raises(ValueError, match="mapping_limit"):
        Budget(mapping_limit=-1)
    with pytest.raises(ValueError, match="wall_ms"):
        Budget(wall_ms=0)
    with pytest.raises(ValueError, match="did you mean 'mapping_limit'"):
        Budget.from_spec({"maping_limit": 5})
    with pytest.raises(ValueError, match="non-negative int"):
        Budget(mapping_limit=True)
    assert Budget.from_spec({"mapping_limit": 5}).mapping_limit == 5
    assert Budget().unbounded
    assert not Budget(eunit_limit=1).unbounded


def test_budget_capped_clamps_down_only():
    assert Budget().capped(10).mapping_limit == 10
    assert Budget(mapping_limit=50).capped(10).mapping_limit == 10
    small = Budget(mapping_limit=3)
    assert small.capped(10) is small


def test_evaluator_rejects_bad_budget_spec():
    with pytest.raises(ValueError, match="budget must be a Budget or a mapping"):
        AnytimeEvaluator(budget=17)


# --------------------------------------------------------------------------- #
# invariant 11, first half: no budget ⇒ byte-identical to o-sharing
# --------------------------------------------------------------------------- #
def test_unbudgeted_is_byte_identical_to_osharing(paper_example):
    for query in _queries(paper_example):
        exact = _exact(paper_example, query)
        result = _anytime(paper_example, query)
        assert dict(result.answers.items()) == dict(exact.answers.items())
        assert result.answers.empty_probability == exact.answers.empty_probability
        assert _counters(result.stats) == _counters(exact.stats)
        assert result.exhausted and result.converged
        assert result.unexplored_mass == 0.0
        assert result.details["units_created"] == exact.details["units_created"]


def test_unreachable_budget_is_byte_identical_to_osharing(paper_example):
    for query in _queries(paper_example):
        exact = _exact(paper_example, query)
        result = _anytime(
            paper_example,
            query,
            budget=Budget(mapping_limit=10_000, eunit_limit=10_000),
        )
        assert dict(result.answers.items()) == dict(exact.answers.items())
        assert _counters(result.stats) == _counters(exact.stats)
        assert result.exhausted and result.converged


def test_unbudgeted_matches_on_scenario_queries(excel_scenario):
    from repro.workloads import paper_query

    scenario = excel_scenario.with_mappings(16)
    for query_id in ("Q1", "Q2", "Q3", "Q4", "Q5"):
        query = paper_query(query_id, excel_scenario.target_schema)
        exact = OSharingEvaluator(links=scenario.links).evaluate(
            query, scenario.mappings, scenario.database
        )
        result = AnytimeEvaluator(links=scenario.links).evaluate(
            query, scenario.mappings, scenario.database
        )
        assert dict(result.answers.items()) == dict(exact.answers.items())
        assert _counters(result.stats) == _counters(exact.stats)


def test_strategy_options_mirror_osharing(paper_example):
    query = paper_example.q2()
    for strategy in ("sef", "snf", "random"):
        exact = _exact(paper_example, query, strategy=strategy, seed=7)
        result = _anytime(paper_example, query, strategy=strategy, seed=7)
        assert dict(result.answers.items()) == dict(exact.answers.items())
        assert _counters(result.stats) == _counters(exact.stats)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_random_strategy_does_not_depend_on_the_schedule(seed):
    # Regression: one RNG stream per evaluation made the draws follow the
    # visiting order, so on this query o-sharing and anytime explored
    # different u-traces (18 vs 20, 18 vs 17, 20 vs 19 e-units for these
    # seeds).  The draw is now a function of (seed, position in the trace).
    from repro.datagen.scenario import build_scenario
    from repro.workloads import paper_query

    scenario = build_scenario("Excel", h=16, scale=0.01, seed=7)
    query = paper_query("Q5", scenario.target_schema)
    options = dict(links=scenario.links, strategy="random", seed=seed)
    exact = OSharingEvaluator(**options).evaluate(
        query, scenario.mappings, scenario.database
    )
    result = AnytimeEvaluator(**options).evaluate(
        query, scenario.mappings, scenario.database
    )
    assert list(result.answers.items()) == list(exact.answers.items())
    assert _counters(result.stats) == _counters(exact.stats)


# --------------------------------------------------------------------------- #
# budgeted drives: determinism, soundness, progress
# --------------------------------------------------------------------------- #
def test_zero_budget_executes_nothing_and_bounds_everything(paper_example):
    query = paper_example.q2()
    result = _anytime(paper_example, query, budget=Budget(mapping_limit=0))
    assert result.stats.total_operators == 0
    assert not result.exhausted
    assert not result.converged
    assert result.unexplored_mass > 0
    assert dict(result.answers.items()) == {}
    # every as-yet-unseen tuple is bounded by [0, U]
    interval = result.interval_for(("anything", "at all"))
    assert interval.lb == 0.0 and interval.ub == result.unexplored_mass


def test_budgeted_runs_are_deterministic(paper_example):
    query = paper_example.q2()
    first = _anytime(paper_example, query, budget=Budget(eunit_limit=2))
    second = _anytime(paper_example, query, budget=Budget(eunit_limit=2))
    assert dict(first.answers.items()) == dict(second.answers.items())
    assert first.intervals == second.intervals
    assert first.unexplored_mass == second.unexplored_mass
    assert _counters(first.stats) == _counters(second.stats)


def test_budget_meters_stop_before_exceeding(paper_example):
    query = paper_example.q2()
    exact = _exact(paper_example, query)
    for limit in range(0, exact.details["units_created"] + 1):
        result = _anytime(paper_example, query, budget=Budget(eunit_limit=limit))
        # the root is free; each executed task creates exactly one child
        assert result.stats.eunits_created <= limit + 1
        assert result.stats.total_operators <= exact.stats.total_operators


def test_intervals_contain_exact_probabilities(paper_example):
    query = paper_example.q2()
    exact_map = dict(_exact(paper_example, query).answers.items())
    for limit in (0, 1, 2, 3, 5, 8):
        result = _anytime(paper_example, query, budget=Budget(mapping_limit=limit))
        for values, probability in exact_map.items():
            interval = result.interval_for(values)
            assert interval.lb <= probability + TOL
            assert probability <= interval.ub + TOL
        # no fabricated tuples: everything reported exists in the exact answer
        for interval in result.intervals:
            assert interval.values in exact_map
            assert interval.ub == interval.lb + result.unexplored_mass


def test_converged_report_proves_exact_ranking(paper_example):
    for query in _queries(paper_example):
        exact_ranked = [
            r.values for r in _exact(paper_example, query).answers.ranked()
        ]
        for limit in range(0, 12):
            result = _anytime(
                paper_example, query, budget=Budget(mapping_limit=limit)
            )
            if not result.converged:
                continue
            prefix = [interval.values for interval in result.intervals]
            assert prefix == exact_ranked[: len(prefix)]


def test_resume_tightens_monotonically_to_exact(paper_example):
    query = paper_example.q2()
    exact = _exact(paper_example, query)
    exact_map = dict(exact.answers.items())
    result = _anytime(paper_example, query, budget=Budget(eunit_limit=1))
    seen = set(exact_map)
    previous = {values: result.interval_for(values) for values in seen}
    steps = 0
    while not result.exhausted:
        result = result.resume(budget=Budget(eunit_limit=1))
        steps += 1
        assert steps < 100, "resume chain did not terminate"
        for values in seen:
            interval = result.interval_for(values)
            assert interval.lb >= previous[values].lb - TOL
            assert interval.ub <= previous[values].ub + TOL
            previous[values] = interval
    assert steps >= 1
    assert dict(result.answers.items()) == exact_map
    # cumulative stats across the whole chain equal one exact evaluation
    assert _counters(result.stats) == _counters(exact.stats)


def test_resume_without_continuation_raises():
    from repro.anytime import AnytimeResult

    bare = AnytimeResult(
        evaluator="anytime", query=None, answers=None, stats=None, details={}
    )
    with pytest.raises(RuntimeError, match="no continuation"):
        bare.resume()


def test_resume_after_write_is_a_hard_staleness_error(paper_example):
    from repro.datagen.paper_example import build_paper_example

    example = build_paper_example()  # private copy: the test writes to it
    query = example.q2()
    result = AnytimeEvaluator(links=example.links, budget=Budget(eunit_limit=1)).evaluate(
        query, example.mappings, example.database
    )
    assert not result.exhausted
    relation = sorted(example.database.relation_names)[0]
    rows = [tuple(row) for row in example.database.relation(relation).rows[:1]]
    example.database.append_rows(relation, rows)
    with pytest.raises(RuntimeError, match="stale"):
        result.resume()


def test_wall_clock_budget_is_best_effort(paper_example):
    query = paper_example.q2()
    # A generous wall budget completes (and is exact) ...
    done = _anytime(paper_example, query, budget=Budget(wall_ms=60_000))
    assert done.exhausted
    # ... and budget_ms resume shorthand maps onto the same wall budget.
    partial = _anytime(paper_example, query, budget=Budget(eunit_limit=1))
    finished = partial.resume(budget_ms=60_000)
    assert finished.exhausted
    with pytest.raises(ValueError, match="not both"):
        partial = _anytime(paper_example, query, budget=Budget(eunit_limit=1))
        partial.resume(budget=Budget(), budget_ms=5.0)


# --------------------------------------------------------------------------- #
# hypothesis: soundness and tightening across engines (forced sharding incl.)
# --------------------------------------------------------------------------- #
def _engine_options():
    options = []
    for engine in available_engines():
        options.append({"engine": engine})
    # forced sharding: every relation splits even at paper-example sizes
    options.append(
        {"engine": "parallel", "parallel": ParallelConfig(workers=2, min_partition_rows=0)}
    )
    return options


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_intervals_sound_and_tightening_on_every_engine(paper_example, data):
    options = data.draw(st.sampled_from(_engine_options()), label="engine")
    query = data.draw(
        st.sampled_from(["q0", "q1", "q2", "q_phone"]), label="query"
    )
    limit_kind = data.draw(
        st.sampled_from(["mapping_limit", "eunit_limit"]), label="limit"
    )
    limit = data.draw(st.integers(min_value=0, max_value=8), label="value")
    step = data.draw(st.integers(min_value=1, max_value=4), label="step")

    queries = {
        "q0": paper_example.q0(),
        "q1": paper_example.q1(),
        "q2": paper_example.q2(),
        "q_phone": paper_example.q_phone_by_addr(),
    }
    target = queries[query]
    exact_map = dict(_exact(paper_example, target, **options).answers.items())

    result = _anytime(
        paper_example, target, budget=Budget(**{limit_kind: limit}), **options
    )
    seen = set(exact_map)
    previous = {values: result.interval_for(values) for values in seen}
    for values, probability in exact_map.items():
        interval = result.interval_for(values)
        assert interval.lb <= probability + TOL
        assert probability <= interval.ub + TOL

    rounds = 0
    while not result.exhausted:
        result = result.resume(budget=Budget(eunit_limit=step))
        rounds += 1
        assert rounds < 200
        for values, probability in exact_map.items():
            interval = result.interval_for(values)
            assert interval.lb <= probability + TOL
            assert probability <= interval.ub + TOL
            assert interval.lb >= previous[values].lb - TOL
            assert interval.ub <= previous[values].ub + TOL
            previous[values] = interval

    assert dict(result.answers.items()) == exact_map


# --------------------------------------------------------------------------- #
# progress-model unit coverage
# --------------------------------------------------------------------------- #
def test_ranking_converged_logic():
    separated = (
        IntervalAnswer(("a",), 0.6, 0.7),
        IntervalAnswer(("b",), 0.3, 0.4),
    )
    assert ranking_converged(separated, unexplored=0.1, exhausted=False)
    overlapping = (
        IntervalAnswer(("a",), 0.6, 0.9),
        IntervalAnswer(("b",), 0.7, 1.0),
    )
    assert not ranking_converged(overlapping, unexplored=0.3, exhausted=False)
    # a new tuple could still displace the last ranked one
    assert not ranking_converged(separated, unexplored=0.35, exhausted=False)
    assert ranking_converged((), unexplored=0.0, exhausted=False)
    assert not ranking_converged((), unexplored=0.2, exhausted=False)
    assert ranking_converged(overlapping, unexplored=0.3, exhausted=True)
