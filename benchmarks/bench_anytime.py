"""Anytime evaluation: budgeted queries vs exact o-sharing on Excel Q1-Q5.

The anytime subsystem's contract, measured: a mapping-budgeted query stops
early with sound per-tuple ``[lb, ub]`` intervals, and a chain of
``resume()`` steps refines those intervals to the exact answer without
repeating work.

CI gates (operator counts are deterministic; wall-clock is reported but not
gated — this may run on a 1-core container):

* every mapping-budgeted run executes **strictly fewer** source operators
  than the exact evaluation of the same query;
* whenever a budgeted run reports ``converged``, its interval ranking
  agrees with the exact probability ranking position for position;
* resuming a budgeted query to completion yields answers **byte-identical**
  to exact o-sharing, with cumulative operator totals equal to one exact
  evaluation (no repeated work across resume steps);
* a budget is also top-k's second stop rule: a mapping-budgeted top-k
  executes **no more** source operators than unbudgeted top-k, and its
  resume chain driven until the top ``k`` is final answers byte-identically
  to unbudgeted top-k at the same cumulative operator count.

Emits ``BENCH_anytime.json`` at the repo root with per-query operator
counts, interval widths and the resume-chain profile.
"""

from __future__ import annotations

import time

from repro import ExecutionPolicy, Session
from repro.bench.reporting import format_table
from repro.core.answer import _sort_key
from repro.datagen.scenario import build_scenario
from repro.obs import write_bench_artifact
from repro.workloads.queries import queries_for_target

QUERY_IDS = ("Q1", "Q2", "Q3", "Q4", "Q5")
TOP_K = 5
BENCH_H = 60
SCALE = 0.03
def _session(scenario, **policy_fields):
    from repro.relational.parallel import default_manager

    return Session(
        scenario.database,
        scenario.mappings,
        links=scenario.links,
        policy=ExecutionPolicy(**policy_fields),
        pools=default_manager(),
    )


def _exact_ranking(result):
    return [
        values
        for values, _ in sorted(
            result.answers.items(), key=lambda item: (-item[1], _sort_key(item[0]))
        )
    ]


def _run_query(scenario, query):
    """Exact, budgeted and resume-to-completion profiles for one query."""
    # Exact reference (o-sharing) in its own cold session.
    with _session(scenario, method="o-sharing") as session:
        started = time.perf_counter()
        exact = session.query(query)
        exact_seconds = time.perf_counter() - started

    # Full drain through the anytime evaluator: byte-identity sanity plus
    # the total mapping charge the budget sweep is scaled against.
    with _session(scenario) as session:
        drained = session.query(query, budget={})
    assert drained.exhausted and drained.converged
    assert dict(drained.answers.items()) == dict(exact.answers.items())
    # The converged interval ranking is the exact probability ranking —
    # non-vacuously exercised here (the half-charge run below rarely
    # converges on these queries).
    assert [
        interval.values for interval in drained.intervals
    ] == _exact_ranking(exact)
    full_charge = (
        drained.details["mappings_evaluated"]
        - drained.details["representative_mappings"]
    )

    # Budgeted run at half the full charge: strictly fewer operators.
    budget = {"mapping_limit": max(0, full_charge // 2)}
    with _session(scenario) as session:
        started = time.perf_counter()
        partial = session.query(query, budget=budget)
        partial_seconds = time.perf_counter() - started
    assert partial.stats.source_operators < exact.stats.source_operators, (
        f"{query.name}: budgeted run executed "
        f"{partial.stats.source_operators} operators, exact "
        f"{exact.stats.source_operators}"
    )
    if partial.converged:
        ranking = [interval.values for interval in partial.intervals]
        assert ranking == _exact_ranking(exact)[: len(ranking)], (
            f"{query.name}: converged interval ranking diverged from exact"
        )

    # Resume-to-completion in quarter-size e-unit steps.  E-unit budgets
    # guarantee progress (a mapping budget smaller than the next group's
    # size would stall); the cap turns any regression back into a stall
    # into a fast failure instead of a hung CI job.
    full_eunits = drained.details["units_created"] - 1  # root is budget-free
    step_budget = {"eunit_limit": max(1, full_eunits // 4)}
    with _session(scenario) as session:
        result = session.query(query, budget={"mapping_limit": 0})
        widths = [result.unexplored_mass]
        steps = 0
        while not result.exhausted:
            result = result.resume(budget=step_budget)
            assert result.unexplored_mass <= widths[-1]
            widths.append(result.unexplored_mass)
            steps += 1
            assert steps <= full_eunits + 1, (
                f"{query.name}: resume chain stalled without exhausting"
            )
    assert result.converged
    assert dict(result.answers.items()) == dict(exact.answers.items()), (
        f"{query.name}: resumed-to-completion answers diverged from exact"
    )
    assert repr(result.answers) == repr(exact.answers)
    assert result.stats.source_operators == exact.stats.source_operators, (
        f"{query.name}: resume chain repeated work "
        f"({result.stats.source_operators} vs {exact.stats.source_operators})"
    )

    return {
        "query": query.name,
        "exact_source_operators": exact.stats.source_operators,
        "exact_seconds": exact_seconds,
        "budget_mapping_limit": budget["mapping_limit"],
        "budgeted_source_operators": partial.stats.source_operators,
        "budgeted_seconds": partial_seconds,
        "budgeted_unexplored_mass": partial.unexplored_mass,
        "budgeted_converged": partial.converged,
        "resume_steps": steps,
        "resume_unexplored_profile": widths,
    }


def _run_budgeted_top_k(scenario, query, mapping_limit):
    """Budgeted top-k against unbudgeted top-k for one query."""
    with _session(scenario) as session:
        exact = session.top_k(query, k=TOP_K)
    with _session(scenario) as session:
        partial = session.top_k(query, k=TOP_K, budget={"mapping_limit": mapping_limit})
    assert partial.stats.source_operators <= exact.stats.source_operators, (
        f"{query.name}: budgeted top-k executed {partial.stats.source_operators} "
        f"operators, unbudgeted {exact.stats.source_operators}"
    )
    result, steps = partial, 0
    while not result.converged:
        result = result.resume(budget={"mapping_limit": mapping_limit})
        steps += 1
        assert steps <= exact.details["units_created"], (
            f"{query.name}: top-k resume chain stalled"
        )
    assert repr(result.answers) == repr(exact.answers), (
        f"{query.name}: resumed top-k answers diverged from unbudgeted top-k"
    )
    assert result.stats.source_operators == exact.stats.source_operators, (
        f"{query.name}: top-k resume chain repeated work "
        f"({result.stats.source_operators} vs {exact.stats.source_operators})"
    )
    return {
        "top_k_source_operators": exact.stats.source_operators,
        "budgeted_top_k_source_operators": partial.stats.source_operators,
        "top_k_resume_steps": steps,
    }


def test_anytime(benchmark, report_writer):
    scenario = build_scenario(target="Excel", h=BENCH_H, scale=SCALE, seed=7)
    specs = {spec.query_id: spec for spec in queries_for_target("Excel")}
    queries = [specs[query_id].build(scenario.target_schema) for query_id in QUERY_IDS]

    def run():
        entries = []
        for query in queries:
            entry = _run_query(scenario, query)
            entry.update(_run_budgeted_top_k(scenario, query, entry["budget_mapping_limit"]))
            entries.append(entry)
        return entries

    entries = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [
            entry["query"],
            entry["exact_source_operators"],
            entry["budgeted_source_operators"],
            round(entry["budgeted_unexplored_mass"], 4),
            entry["budgeted_converged"],
            entry["resume_steps"],
            entry["top_k_source_operators"],
            entry["budgeted_top_k_source_operators"],
            entry["top_k_resume_steps"],
        ]
        for entry in entries
    ]
    text = (
        f"== Anytime evaluation vs exact o-sharing (Excel Q1-Q5, h={BENCH_H}, "
        f"scale={SCALE}) ==\n\n"
        + format_table(
            [
                "query",
                "exact ops",
                "budgeted ops",
                "unexplored",
                "converged",
                "resume steps",
                f"top-{TOP_K} ops",
                f"budgeted top-{TOP_K} ops",
                "top-k resume steps",
            ],
            rows,
        )
        + "\n\nbudget = half the query's full mapping charge; resume chain "
        "refines quarter-size e-unit steps to byte-identical exact answers.\n"
        f"budgeted top-{TOP_K} uses the same mapping budget per step and "
        "resumes until the top k is final, byte-identical to unbudgeted top-k.\n"
        "(wall-clock reported, not gated: operator counts are the "
        "deterministic metric on 1-core CI)\n"
    )
    report_writer("anytime", text)

    payload = {
        "scenario": {"target": "Excel", "h": BENCH_H, "scale": SCALE, "seed": 7},
        "queries": entries,
        "gates": {
            "budgeted_strictly_fewer_operators": all(
                entry["budgeted_source_operators"]
                < entry["exact_source_operators"]
                for entry in entries
            ),
            "resume_to_completion_byte_identical": True,  # asserted per query
            "resume_cumulative_ops_equal_exact": True,  # asserted per query
            "budgeted_top_k_no_more_operators": all(
                entry["budgeted_top_k_source_operators"]
                <= entry["top_k_source_operators"]
                for entry in entries
            ),
            "top_k_resume_byte_identical": True,  # asserted per query
        },
    }
    write_bench_artifact("anytime", payload)

    assert payload["gates"]["budgeted_strictly_fewer_operators"]
    assert payload["gates"]["budgeted_top_k_no_more_operators"]
