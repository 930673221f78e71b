"""Cross-evaluator × cross-engine × cross-optimizer differential harness.

Randomized scenarios (hypothesis-driven) assert the reproduction's central
invariant from three directions at once:

* **algorithm equivalence** — every registered evaluator (basic, e-basic,
  e-MQO, q-sharing, o-sharing, batch) returns the same answer → probability
  map as the reference ``basic`` evaluator, within the probability tolerance
  (different algorithms may accumulate the same probabilities in different
  orders);
* **engine equivalence** — for each evaluator, the columnar and parallel
  engines return *byte-identical* answers to the row engine (exact float
  equality: the engines execute the same operators over the same tuples in
  the same order, the parallel engine by reassembling morsel results in
  span order); the parallel engine is additionally swept across shard
  counts and sharding thresholds with forced (zero-threshold) sharding;
* **optimizer equivalence** — for each whole-query evaluator × engine
  combination, the cost-based optimizer (``optimize=True``, the default)
  returns byte-identical answers to executing the reformulated plans
  verbatim (``optimize=False``): the optimizer changes how many operators
  run, never what they produce.  The u-trace methods (o-sharing, top-k,
  anytime) trace a different plan when optimizing — selections pushed below
  products — so their units settle in another order: across optimizer modes
  they agree within the probability tolerance on an equal tuple set, and
  byte for byte across engines within one mode.

* **schedule equivalence** — o-sharing, unbudgeted anytime, a one-e-unit-at-a-
  time ``resume()`` chain and exhaustive top-k are four schedules over one
  u-trace core (``repro.core.utrace``): byte-identical answers and identical
  work counters for every selection strategy (``random`` included) on every
  engine, and a budgeted drive settles a prefix of the unbudgeted one.

* **grouping equivalence** — e-basic, e-MQO and ``batch`` of one query, and
  q-sharing and *basic* over the partition representatives, are the same
  grouping over one whole-query core (``repro.core.evaluators.whole_query``)
  under different sharing rules: byte-identical answers and equal
  reformulation / source-query counts on every engine, optimizer on and off.

The sampled space covers all three target schemas, the Table III paper
queries, generated selection chains and product queries, and varying mapping
counts.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ExecutionPolicy, Session, connect
from repro.bench.harness import cold_query
from repro.core.evaluators import EVALUATORS
from repro.core.evaluators.basic import BasicEvaluator
from repro.core.evaluators.osharing import AnytimeEvaluator, OSharingEvaluator, TopKEvaluator
from repro.core.partition_tree import partition_and_represent
from repro.datagen.scenario import MatchingScenario, build_scenario
from repro.relational.executor import available_engines
from repro.relational.parallel import default_manager

# The engines axis adapts to the install: without NumPy the vector
# engine cannot be constructed, and the remaining engines must still
# agree byte-identically.
ENGINES = available_engines()
from repro.workloads import paper_query, product_query, selection_query
from test_anytime import _counters  # the counters "byte-identical" claims cover
from repro.workloads.queries import queries_for_target

#: Every exact-answer method (top-k answers only its first k tuples).
ALL_EVALUATORS = tuple(method for method in EVALUATORS if method != "top-k")

#: The methods that grow a u-trace, over a rewritten plan when optimizing.
UTRACE_METHODS = ("o-sharing", "top-k", "anytime")

#: Query ids defined per target schema (Table III).
_QUERY_IDS = {
    target: [spec.query_id for spec in queries_for_target(target)]
    for target in ("Excel", "Noris", "Paragon")
}

_SCENARIOS: dict[str, MatchingScenario] = {}


def _scenario(target: str) -> MatchingScenario:
    """Session-cached scenarios (building one is the expensive part)."""
    if target not in _SCENARIOS:
        _SCENARIOS[target] = build_scenario(target=target, h=16, scale=0.01, seed=3)
    return _SCENARIOS[target]


@st.composite
def differential_cases(draw):
    """One randomized (query, scenario, mapping-count) differential case."""
    kind = draw(st.sampled_from(("paper", "paper", "selection", "product")))
    if kind == "paper":
        target = draw(st.sampled_from(("Excel", "Noris", "Paragon")))
        scenario = _scenario(target)
        query_id = draw(st.sampled_from(_QUERY_IDS[target]))
        query = paper_query(query_id, scenario.target_schema)
        h = draw(st.sampled_from((4, 9, 16)))
        label = f"{target}:{query_id}"
    elif kind == "selection":
        scenario = _scenario("Excel")
        count = draw(st.integers(min_value=1, max_value=5))
        query = selection_query(count, scenario.target_schema)
        h = draw(st.sampled_from((4, 9, 16)))
        label = f"Excel:selections={count}"
    else:
        # Product queries blow up the basic evaluator's work; keep h small.
        scenario = _scenario("Excel")
        products = draw(st.integers(min_value=1, max_value=2))
        query = product_query(products, scenario.target_schema)
        h = draw(st.sampled_from((4, 6)))
        label = f"Excel:products={products}"
    return label, query, scenario.with_mappings(h)


def _answer_map(result):
    return dict(result.answers.items())


def _cold(scenario, **options):
    """A fresh session — nothing warm — on the process-wide worker pools."""
    return connect(scenario, pools=default_manager(), **options)


def _cold_query_many(queries, scenario, **options):
    with _cold(scenario) as session:
        return session.query_many(queries, **options)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=differential_cases())
def test_all_evaluators_engines_and_optimizer_agree(case):
    label, query, scenario = case
    reference = cold_query(query, scenario, method="basic", engine="row", optimize=False)
    for method in ALL_EVALUATORS:
        variants = {}
        for engine in ENGINES:
            for optimize in (True, False):
                result = cold_query(
                    query, scenario, method=method, engine=engine, optimize=optimize
                )
                variants[(engine, optimize)] = result
                problems = reference.answers.difference(result.answers)
                assert reference.answers.equals(result.answers), (
                    f"[{label}] {method}@{engine}(optimize={optimize}) diverges "
                    f"from basic@row(optimize=False): {problems}"
                )
        _assert_optimizer_modes_agree(label, method, variants)


def _assert_optimizer_modes_agree(label, method, variants):
    """Engines agree exactly; optimizer modes exactly, or in tolerance for u-traces.

    ``variants`` maps ``(engine, optimize)`` to a result and holds the row
    engine in both modes.
    """
    for (engine, optimize), result in variants.items():
        # a whole-query method is compared with the paper's plan, a u-trace
        # method with the row engine in its own mode
        baseline = variants[("row", optimize and method in UTRACE_METHODS)]
        assert _answer_map(result) == _answer_map(baseline), (
            f"[{label}] {method}: {engine}(optimize={optimize}) differs from row"
        )
        assert result.answers.empty_probability == baseline.answers.empty_probability, (
            f"[{label}] {method}: {engine}(optimize={optimize}) disagrees "
            f"on the empty-answer mass"
        )
    if method in UTRACE_METHODS:
        pushed, paper = variants[("row", True)].answers, variants[("row", False)].answers
        assert set(pushed.tuples) == set(paper.tuples), f"[{label}] {method}"
        assert pushed.equals(paper), (
            f"[{label}] {method}: optimizer modes differ: {pushed.difference(paper)}"
        )


@pytest.fixture(scope="module")
def table3_h60():
    """Table III's scenarios at h=60 (scale 0.03, seed 7), built on first use."""
    built = {}

    def scenario(target):
        if target not in built:
            built[target] = build_scenario(target=target, h=60, scale=0.03, seed=7)
        return built[target]

    return scenario


@pytest.mark.parametrize("target, query_id", [("Excel", "Q3"), ("Paragon", "Q9"), ("Paragon", "Q10")])
def test_utrace_optimizer_modes_agree_within_tolerance(table3_h60, target, query_id):
    # At h=60 the pushed trace settles these three queries' units in another
    # order than the paper's plan: Q3's empty mass, Q9's tuple insertion
    # order and one Q10 probability differ in their last bits.
    scenario = table3_h60(target)
    query = paper_query(query_id, scenario.target_schema)
    exact = cold_query(query, scenario, method="o-sharing")
    for method, options in (
        ("o-sharing", {}),
        ("anytime", {}),
        ("top-k", {"k": len(exact.answers) + 1}),
    ):
        variants = {
            (engine, optimize): cold_query(
                query, scenario, method=method, engine=engine, optimize=optimize, **options
            )
            for engine in ("row", "columnar")
            for optimize in (True, False)
        }
        _assert_optimizer_modes_agree(f"{target}:{query_id}@h=60", method, variants)


def _work(result) -> dict:
    """The deterministic work counters plus the u-trace's shape."""
    work = _counters(result.stats)
    work["units_answered"] = result.details["units_answered"]
    work["max_depth"] = result.details["max_depth"]
    return work


def _exact_bytes(result) -> tuple:
    """Floats, tuple insertion order, empty mass and ranking — nothing rounded."""
    answers = result.answers
    return (
        list(answers.items()),
        answers.empty_probability,
        [ranked.values for ranked in answers.ranked()],
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=differential_cases(), seed=st.integers(min_value=0, max_value=7))
def test_utrace_schedules_agree(case, seed):
    label, query, scenario = case
    run = (query, scenario.mappings, scenario.database)
    for strategy in ("sef", "snf", "random"):
        for engine in ENGINES:
            options = dict(links=scenario.links, strategy=strategy, seed=seed, engine=engine)
            where = f"[{label}] {strategy}(seed={seed})@{engine}"
            exact = OSharingEvaluator(**options).evaluate(*run)
            drained = AnytimeEvaluator(**options).evaluate(*run)
            chained = AnytimeEvaluator(budget={"eunit_limit": 1}, **options).evaluate(*run)
            while not chained.exhausted:
                chained = chained.resume(budget={"eunit_limit": 1})
            # k beyond the number of answers: the k-th bound never forms, so
            # top-k can only finish by processing all of the mass
            ranked = TopKEvaluator(k=len(exact.answers) + 1, **options).evaluate(*run)

            assert _exact_bytes(drained) == _exact_bytes(exact), where
            assert _exact_bytes(chained) == _exact_bytes(exact), where
            # top-k reads its answers off the same replayed log
            assert not ranked.details["stopped_early"], where
            assert ranked.answers.ranked() == exact.answers.ranked(), where
            for other in (drained, chained, ranked):
                assert _work(other) == _work(exact), f"{where}: {other.evaluator}"

            # budgeted prefix: half the mappings settle a prefix of what the
            # unbudgeted best-first drive settles, in the same order
            half = AnytimeEvaluator(
                budget={"mapping_limit": exact.stats.mappings_evaluated // 2}, **options
            ).evaluate(*run)
            settled = half.continuation.trace.contributions
            assert settled == drained.continuation.trace.contributions[: len(settled)], where
            assert half.stats.source_operators <= exact.stats.source_operators, where


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=differential_cases())
def test_whole_query_groupings_agree(case):
    """The whole-query core: evaluators that differ only in sharing agree byte for byte.

    e-basic, e-MQO and ``batch`` of one query run the same distinct source
    queries in the same order; q-sharing is *basic* over the partition tree's
    representatives; and a workload returns per query what ``query`` returns.
    """
    label, query, scenario = case
    representatives = partition_and_represent(query.partition_keys, scenario.mappings)
    target = scenario.target_schema
    queries = [query] + [paper_query(i, target) for i in _QUERY_IDS[target.name][:2]]
    workload = queries + queries[:2]
    for engine in ENGINES:
        for optimize in (True, False):
            options = dict(engine=engine, optimize=optimize)
            where = f"[{label}] {engine}(optimize={optimize})"
            ebasic, emqo, batch = (
                cold_query(query, scenario, method=method, **options)
                for method in ("e-basic", "e-mqo", "batch")
            )
            for other in (emqo, batch):
                assert _exact_bytes(other) == _exact_bytes(ebasic), f"{where}: {other.evaluator}"
                assert other.stats.reformulations == ebasic.stats.reformulations, where
                assert (
                    other.details["distinct_source_queries"]
                    == ebasic.details["distinct_source_queries"]
                ), where

            qsharing = cold_query(query, scenario, method="q-sharing", **options)
            basic = BasicEvaluator(links=scenario.links, **options).evaluate_mappings(
                query, representatives, scenario.database
            )
            assert _exact_bytes(qsharing) == _exact_bytes(basic), where
            assert qsharing.stats.source_queries == basic.stats.source_queries, where
            assert qsharing.stats.source_operators == basic.stats.source_operators, where

            many = _cold_query_many(workload, scenario, **options)
            singles = [cold_query(q, scenario, method="batch", **options) for q in queries]
            for result, single in zip(many.results, singles + singles[:2]):
                assert _exact_bytes(result) == _exact_bytes(single), where


@pytest.mark.parametrize("method", ALL_EVALUATORS)
def test_engines_report_identical_stats(method, paper_example):
    """Same operators, same row counters, on every engine (deterministic pin)."""
    query = paper_example.q2()
    per_engine = {}
    for engine in ENGINES:
        per_engine[engine] = cold_query(query, paper_example, method=method, engine=engine)
    row = per_engine["row"].stats
    for engine in ENGINES[1:]:
        other = per_engine[engine].stats
        assert dict(row.operators) == dict(other.operators), engine
        assert row.source_operators == other.source_operators, engine
        assert row.source_queries == other.source_queries, engine
        assert row.rows_scanned == other.rows_scanned, engine
        assert row.rows_output == other.rows_output, engine
        assert _answer_map(per_engine["row"]) == _answer_map(per_engine[engine])


@pytest.mark.parametrize("method", ALL_EVALUATORS)
@pytest.mark.parametrize("workers", (2, 4))
def test_parallel_engine_byte_identical_across_shard_counts(method, workers):
    """Forced sharding (every operator morsel-parallel) never changes answers.

    ``min_partition_rows=0`` makes every operator shard to the worker count
    regardless of input size, so this exercises the parallel kernels on every
    node of every source plan — the differential pin the parallel engine's
    per-node fallback cannot mask.
    """
    from repro.relational.parallel import ParallelConfig

    scenario = _scenario("Excel")
    query = paper_query(_QUERY_IDS["Excel"][0], scenario.target_schema)
    reference = cold_query(query, scenario, method=method, engine="columnar")
    result = cold_query(
        query,
        scenario,
        method=method,
        engine="parallel",
        parallel=ParallelConfig(workers=workers, min_partition_rows=0),
    )
    assert _answer_map(result) == _answer_map(reference)
    assert result.answers.empty_probability == reference.answers.empty_probability
    assert dict(result.stats.operators) == dict(reference.stats.operators)
    assert result.stats.rows_scanned == reference.stats.rows_scanned


#: the per-query work counters ``query_many`` must reproduce on every engine
_PER_QUERY_WORK = ("source_operators", "plan_cache_hits", "operators_saved", "source_queries")


def test_parallel_batch_workload_matches_serial():
    """Forced sharding in ``query_many``: same answers and work, query by query."""
    from repro.relational.parallel import ParallelConfig

    scenario = _scenario("Excel")
    queries = [
        paper_query(query_id, scenario.target_schema)
        for query_id in (_QUERY_IDS["Excel"] + _QUERY_IDS["Excel"])[:6]
    ]
    serial = _cold_query_many(queries, scenario, engine="columnar")
    sharded = _cold_query_many(
        queries,
        scenario,
        engine="parallel",
        parallel=ParallelConfig(workers=4, min_partition_rows=0),
    )
    assert len(sharded.results) == len(serial.results) == len(queries)
    for index, (serial_result, parallel_result) in enumerate(
        zip(serial.results, sharded.results)
    ):
        assert _exact_bytes(parallel_result) == _exact_bytes(serial_result), index
        for counter in _PER_QUERY_WORK:
            assert getattr(parallel_result.stats, counter) == getattr(
                serial_result.stats, counter
            ), (index, counter)
    assert sharded.plan_cache == serial.plan_cache


@pytest.mark.parametrize("optimize", (True, False))
@pytest.mark.parametrize("engine", ENGINES)
def test_query_many_is_deterministic_per_query(engine, optimize):
    """ARCHITECTURE invariant 7: every run, every engine, the same per-query work."""
    scenario = _scenario("Excel")
    queries = [paper_query(query_id, scenario.target_schema) for query_id in _QUERY_IDS["Excel"]]
    workload = queries + queries[:2]
    reference = _cold_query_many(workload, scenario, engine="columnar", optimize=optimize)
    runs = [
        _cold_query_many(workload, scenario, engine=engine, optimize=optimize)
        for _ in range(2)
    ]
    for run in runs:
        for index, (result, expected) in enumerate(zip(run.results, reference.results)):
            assert _exact_bytes(result) == _exact_bytes(expected), index
            assert [getattr(result.stats, name) for name in _PER_QUERY_WORK] == [
                getattr(expected.stats, name) for name in _PER_QUERY_WORK
            ], index


@pytest.mark.parametrize("method", ALL_EVALUATORS)
def test_engine_recorded_in_result_details(method, paper_example):
    result = cold_query(paper_example.q0(), paper_example, method=method)
    assert result.details["engine"] == "columnar"


def test_unknown_engine_rejected(paper_example):
    with pytest.raises(ValueError, match="unknown engine"):
        cold_query(
            paper_example.q0(), paper_example, method="basic", engine="vectorised"
        )


@pytest.mark.parametrize("method", ALL_EVALUATORS)
def test_optimize_flag_reported_in_details(method, paper_example):
    on = cold_query(paper_example.q0(), paper_example, method=method)
    off = cold_query(paper_example.q0(), paper_example, method=method, optimize=False)
    assert on.details["optimize"] is True
    assert off.details["optimize"] is False
    if method != "batch":  # batch optimizes in its workload-level planning phase
        assert on.stats.plans_optimized > 0
    assert off.stats.plans_optimized == 0


def test_batch_workload_stats_count_optimizations(paper_example):
    workload = [paper_example.q0(), paper_example.q2()]
    batch = _cold_query_many(workload, paper_example)
    assert batch.stats.plans_optimized > 0
    off = _cold_query_many(workload, paper_example, optimize=False)
    assert off.stats.plans_optimized == 0
    assert dict(batch.results[0].answers.items()) == dict(off.results[0].answers.items())
    assert dict(batch.results[1].answers.items()) == dict(off.results[1].answers.items())


# --------------------------------------------------------------------------- #
# session parity: warm Session == fresh Session, for all evaluators × engines
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("method", ALL_EVALUATORS)
@pytest.mark.parametrize("engine", ENGINES)
def test_warm_session_matches_cold_one_shot(method, engine, paper_example):
    """Byte-identical answers on warm session state, every evaluator × engine.

    The session serves the *second* round of queries from its persistent
    plan cache / optimizer memo — sharing must change how much work runs,
    never what it produces.  A cold round is one shot: a fresh session per call.
    """
    queries = [paper_example.q0(), paper_example.q2()]
    workload = queries * 2
    cold = [
        cold_query(query, paper_example, method=method, engine=engine) for query in queries
    ]
    cold_batch = _cold_query_many(workload, paper_example, engine=engine)
    policy = ExecutionPolicy(method=method, engine=engine)
    with Session(
        paper_example.database,
        paper_example.mappings,
        links=paper_example.links,
        policy=policy,
    ) as session:
        warm_first = [session.query(query) for query in queries]
        warm_second = [session.query(query) for query in queries]
        warm_batch_first = session.query_many(workload)
        warm_batch_second = session.query_many(workload)

    for one, first, second in zip(cold, warm_first, warm_second):
        assert _answer_map(one) == _answer_map(first) == _answer_map(second), (
            f"{method}@{engine}: warm session diverges from a cold one"
        )
        assert (
            one.answers.empty_probability
            == first.answers.empty_probability
            == second.answers.empty_probability
        )
    for one, first, second in zip(
        cold_batch.results, warm_batch_first.results, warm_batch_second.results
    ):
        assert _answer_map(one) == _answer_map(first) == _answer_map(second), (
            f"{method}@{engine}: warm query_many diverges from a cold one"
        )


# --------------------------------------------------------------------------- #
# instrumentation parity: trace on/off × metrics on/off changes nothing
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("method", ALL_EVALUATORS)
@pytest.mark.parametrize("engine", ENGINES)
def test_instrumentation_never_changes_answers_or_operators(
    method, engine, paper_example
):
    """The observability pinned invariant, differentially (ARCHITECTURE.md).

    The same two-query workload runs through four sessions covering the full
    trace on/off × metrics on/off grid; answers (byte-identical floats, not
    tolerance-equal), empty-answer mass, operator counts and row counters
    must all match the uninstrumented session exactly — instrumentation only
    observes, it never changes what executes.
    """
    queries = [paper_example.q0(), paper_example.q2()]
    runs = {}
    for trace in (False, True):
        for metrics in (False, True):
            policy = ExecutionPolicy(
                method=method, engine=engine, trace=trace, metrics=metrics
            )
            with Session(
                paper_example.database,
                paper_example.mappings,
                links=paper_example.links,
                policy=policy,
            ) as session:
                results = [session.query(query) for query in queries]
                batch = session.query_many(queries)
            runs[(trace, metrics)] = (results, batch)

    reference_results, reference_batch = runs[(False, False)]
    for (trace, metrics), (results, batch) in runs.items():
        label = f"{method}@{engine} trace={trace} metrics={metrics}"
        for result, reference in zip(results, reference_results):
            assert _answer_map(result) == _answer_map(reference), label
            assert (
                result.answers.empty_probability
                == reference.answers.empty_probability
            ), label
            assert dict(result.stats.operators) == dict(
                reference.stats.operators
            ), label
            assert result.stats.source_operators == reference.stats.source_operators
            assert result.stats.rows_scanned == reference.stats.rows_scanned
            assert result.stats.rows_output == reference.stats.rows_output
        for result, reference in zip(batch.results, reference_batch.results):
            assert _answer_map(result) == _answer_map(reference), label
        assert dict(batch.stats.operators) == dict(
            reference_batch.stats.operators
        ), label
        assert batch.stats.source_operators == reference_batch.stats.source_operators


@pytest.mark.parametrize("engine", ENGINES)
def test_warm_session_top_k_matches_cold_one_shot(engine, paper_example):
    with _cold(paper_example) as session:
        cold = session.top_k(paper_example.q2(), k=3, engine=engine)
    with Session(
        paper_example.database, paper_example.mappings, links=paper_example.links
    ) as session:
        warm = session.top_k(paper_example.q2(), k=3, engine=engine)
        again = session.top_k(paper_example.q2(), k=3, engine=engine)
    assert _answer_map(cold) == _answer_map(warm) == _answer_map(again)


@pytest.mark.parametrize("method", ALL_EVALUATORS)
def test_warm_session_matches_cold_on_scenario_queries(method):
    """Session parity on the bigger generated scenario (default engine)."""
    scenario = _scenario("Excel")
    queries = [
        paper_query(query_id, scenario.target_schema)
        for query_id in _QUERY_IDS["Excel"][:2]
    ]
    cold = [cold_query(query, scenario, method=method) for query in queries]
    with connect(scenario, method=method) as session:
        for round_number in range(2):
            for query, reference in zip(queries, cold):
                result = session.query(query)
                assert _answer_map(result) == _answer_map(reference), (
                    f"{method}: session round {round_number} diverges"
                )


@pytest.mark.parametrize("method", ALL_EVALUATORS)
def test_optimizer_never_executes_more(method):
    """Optimized runs execute no more operators and scan no more rows."""
    scenario = _scenario("Excel")
    query = selection_query(3, scenario.target_schema)
    on = cold_query(query, scenario, method=method)
    off = cold_query(query, scenario, method=method, optimize=False)
    assert _answer_map(on) == _answer_map(off)
    assert on.stats.source_operators <= off.stats.source_operators
    assert on.stats.rows_scanned <= off.stats.rows_scanned
