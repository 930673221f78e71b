"""Session reuse: one warm session vs a fresh session per workload.

The serving scenario the session-first API exists for: the same 20-query
workload (5 distinct Table III queries, repeated as real traffic repeats
them) arrives again and again.  A fresh session per workload pays the full
price every time — reformulation, clustering, planning, execution.  A warm
:class:`repro.Session` keeps the plan cache, statistics catalog and
optimizer memo between workloads, so the repeat pass is answered from shared
materializations.

CI gates (operator counts are deterministic; wall-clock is reported but not
gated — this may run on a 1-core container):

* the warm session's repeat pass reports plan-cache hits;
* across both passes the warm session executes **strictly fewer** source
  operators than the same two workloads served cold;
* answers are byte-identical, pass for pass.

Emits ``BENCH_session_reuse.json`` at the repo root with operator counts and
wall-clock per series.
"""

from __future__ import annotations

from repro import ExecutionPolicy, Session
from repro.bench.reporting import format_table
from repro.obs import write_bench_artifact
from repro.workloads.queries import PAPER_QUERIES

#: Each Excel query of Table III, repeated as serving traffic would repeat it.
WORKLOAD_QUERY_IDS = ["Q1", "Q2", "Q3", "Q4", "Q5"] * 4


def _build_workload(scenario):
    return [
        PAPER_QUERIES[qid].build(scenario.target_schema) for qid in WORKLOAD_QUERY_IDS
    ]


def _run_cold(queries, scenario, passes):
    """The cold regime: a fresh session — no cross-query state — per workload."""
    return [_run_warm(queries, scenario, passes=1)[0][0] for _ in range(passes)]


def _run_warm(queries, scenario, passes):
    """The session regime: one plan cache / optimizer memo across passes."""
    with Session(
        scenario.database,
        scenario.mappings,
        links=scenario.links,
        policy=ExecutionPolicy(method="batch"),
    ) as session:
        batches = [session.query_many(queries) for _ in range(passes)]
        snapshot = session.stats.snapshot()
    return batches, snapshot


def test_session_reuse(benchmark, small_excel_bench, report_writer):
    scenario = small_excel_bench
    queries = _build_workload(scenario)
    assert len(queries) == 20
    passes = 2

    cold = benchmark.pedantic(
        _run_cold, args=(queries, scenario, passes), rounds=1, iterations=1
    )
    warm, session_snapshot = _run_warm(queries, scenario, passes)

    rows = []
    for number, (cold_batch, warm_batch) in enumerate(zip(cold, warm), start=1):
        rows.append(
            [
                f"pass {number}",
                round(cold_batch.total_seconds, 4),
                cold_batch.source_operators,
                round(warm_batch.total_seconds, 4),
                warm_batch.source_operators,
                warm_batch.stats.plan_cache_hits,
            ]
        )
    cold_ops = sum(batch.source_operators for batch in cold)
    warm_ops = sum(batch.source_operators for batch in warm)
    cold_seconds = sum(batch.total_seconds for batch in cold)
    warm_seconds = sum(batch.total_seconds for batch in warm)
    rows.append(
        [
            "total",
            round(cold_seconds, 4),
            cold_ops,
            round(warm_seconds, 4),
            warm_ops,
            sum(batch.stats.plan_cache_hits for batch in warm),
        ]
    )

    text = (
        f"== Session reuse ({len(queries)}-query workload x {passes} passes) ==\n\n"
        + format_table(
            [
                "pass",
                "cold [s]",
                "cold ops",
                "warm [s]",
                "warm ops",
                "warm cache hits",
            ],
            rows,
        )
        + "\n\nsession: "
        + ", ".join(
            f"{key}={value}"
            for key, value in session_snapshot.items()
            if key not in ("plan_cache", "seconds")
        )
        + "\n(wall-clock reported, not gated: operator counts are the "
        "deterministic metric on 1-core CI)\n"
    )
    report_writer("session_reuse", text)

    payload = {
        "workload": {"queries": len(queries), "passes": passes},
        "series": {
            "cold": {
                "passes": [
                    {
                        "seconds": batch.total_seconds,
                        "source_operators": batch.source_operators,
                    }
                    for batch in cold
                ],
                "total_source_operators": cold_ops,
                "total_seconds": cold_seconds,
            },
            "warm": {
                "passes": [
                    {
                        "seconds": batch.total_seconds,
                        "source_operators": batch.source_operators,
                        "plan_cache_hits": batch.stats.plan_cache_hits,
                    }
                    for batch in warm
                ],
                "total_source_operators": warm_ops,
                "total_seconds": warm_seconds,
            },
        },
        "session": session_snapshot,
        "gates": {
            "warm_repeat_pass_hits_cache": warm[-1].stats.plan_cache_hits > 0,
            "warm_ops_strictly_fewer_than_cold": warm_ops < cold_ops,
        },
    }
    write_bench_artifact("session_reuse", payload)

    # Answers are byte-identical in every pass.
    for cold_batch, warm_batch in zip(cold, warm):
        for one, two in zip(cold_batch.results, warm_batch.results):
            assert dict(one.answers.items()) == dict(two.answers.items())
            assert one.answers.empty_probability == two.answers.empty_probability
    # The warm repeat pass is served from the session plan cache...
    assert warm[-1].stats.plan_cache_hits > 0
    assert warm[-1].source_operators < warm[0].source_operators
    # ...and the warm session executes strictly fewer source operators than
    # the same workloads served cold (the cold passes each pay full price).
    assert warm_ops < cold_ops
