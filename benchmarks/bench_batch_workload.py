"""Batch serving workload: ``query_many`` vs N independent evaluations.

This is the Figure 11(a) scenario pushed to serving scale: a workload of
target queries (with repetition, as real traffic has) over one mapping set
and one source instance.  The batch engine amortises reformulation and
clustering across repeated queries, builds one global shared-subexpression
plan for the whole workload, and serves every query through a single bounded
plan cache — so the total number of executed source operators (and the
wall-clock time) drops well below running the best per-query algorithm
independently.
"""

from __future__ import annotations

from repro.bench.harness import cold_query
from repro.bench.reporting import format_table
from repro.relational.parallel import default_manager
from repro.session import connect
from repro.workloads.queries import PAPER_QUERIES

#: Each Excel query of Table III, repeated as serving traffic would repeat it.
WORKLOAD_QUERY_IDS = ["Q1", "Q2", "Q3", "Q4", "Q5"] * 4


def _build_workload(scenario):
    return [
        PAPER_QUERIES[qid].build(scenario.target_schema) for qid in WORKLOAD_QUERY_IDS
    ]


def _run_independent(queries, scenario):
    return [cold_query(query, scenario, method="e-mqo") for query in queries]


def _run_batch(queries, scenario):
    with connect(scenario, pools=default_manager()) as session:
        return session.query_many(queries)


def test_batch_workload(benchmark, small_excel_bench, report_writer):
    scenario = small_excel_bench
    queries = _build_workload(scenario)
    assert len(queries) >= 20

    independent = benchmark.pedantic(
        _run_independent, args=(queries, scenario), rounds=1, iterations=1
    )
    batch = _run_batch(queries, scenario)

    independent_ops = sum(result.stats.source_operators for result in independent)
    independent_seconds = sum(result.elapsed_seconds for result in independent)
    rows = [
        ["independent e-mqo", round(independent_seconds, 4), independent_ops, "-"],
        [
            "query_many",
            round(batch.total_seconds, 4),
            batch.source_operators,
            batch.plan_cache["hits"],
        ],
    ]
    text = (
        f"== Batch serving workload ({len(queries)} queries, "
        f"{batch.details['distinct_target_queries']} distinct) ==\n\n"
        + format_table(["method", "time [s]", "# source operators", "cache hits"], rows)
        + "\n\nplan cache: "
        + ", ".join(f"{k}={v}" for k, v in batch.plan_cache.items())
        + f"\noperators saved: {batch.stats.operators_saved}\n"
    )
    report_writer("batch_workload", text)

    # Answers are identical to per-query evaluation.
    for single, shared in zip(independent, batch.results):
        assert single.answers.equals(shared.answers)
    # The batch engine executes strictly fewer source operators...
    assert batch.source_operators < independent_ops
    # ...amortises reformulation across repeated queries...
    assert batch.stats.reformulations < sum(r.stats.reformulations for r in independent)
    # ...and is faster end to end (it skips ~3/4 of all execution outright).
    assert batch.total_seconds < independent_seconds
