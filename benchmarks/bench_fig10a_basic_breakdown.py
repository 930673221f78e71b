"""Figure 10(a): time breakdown of the *basic* evaluator per query.

The paper splits basic's running time into query evaluation and answer
aggregation and observes that evaluation dominates (more than 80% for every
query at the paper's scale).  The reproduction runs basic on all ten Table III
queries and reports the same breakdown from the evaluator's phase timers; at
the benchmark's much smaller scale the qualitative shape — evaluation is the
dominant phase and aggregation is negligible — is what is checked.
"""

from __future__ import annotations

from repro.bench.harness import cold_query
from repro.bench.reporting import format_table
from repro.datagen.scenario import build_scenario
from repro.workloads.queries import PAPER_QUERIES

#: basic is the slowest evaluator, so this experiment uses a reduced setting.
BASIC_H = 30
BASIC_SCALE = 0.02


def _run_breakdown():
    scenarios = {
        name: build_scenario(target=name, h=BASIC_H, scale=BASIC_SCALE, seed=7)
        for name in ("Excel", "Noris", "Paragon")
    }
    rows = []
    for spec in PAPER_QUERIES.values():
        scenario = scenarios[spec.target]
        query = spec.build(scenario.target_schema)
        # optimize=False is paper-faithful: the paper has no cost-based optimizer
        result = cold_query(query, scenario, method="basic", optimize=False)
        phases = result.stats.phase_seconds
        evaluation = phases.get("evaluation", 0.0)
        aggregation = phases.get("aggregation", 0.0)
        rewriting = phases.get("rewriting", 0.0)
        total = evaluation + aggregation + rewriting
        rows.append(
            [
                spec.query_id,
                round(evaluation, 4),
                round(aggregation, 4),
                round(rewriting, 4),
                round(evaluation / total if total else 0.0, 3),
            ]
        )
    return rows


def test_fig10a_basic_breakdown(benchmark, report_writer):
    rows = benchmark.pedantic(_run_breakdown, rounds=1, iterations=1)
    text = (
        "== Figure 10(a): basic — evaluation vs aggregation time per query ==\n\n"
        + format_table(
            ["query", "evaluation [s]", "aggregation [s]", "rewriting [s]", "evaluation share"],
            rows,
        )
    )
    report_writer("fig10a_basic_breakdown", text)

    # Paper's observation: query evaluation dominates basic's cost; answer
    # aggregation is negligible for every query.
    for _, evaluation, aggregation, _, _ in rows:
        assert evaluation >= aggregation
    shares = [row[4] for row in rows]
    assert sum(shares) / len(shares) > 0.5
