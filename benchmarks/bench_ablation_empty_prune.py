"""Ablation: o-sharing's empty-intermediate pruning (Case 2 of ``run_qt``).

When an intermediate relation of an e-unit is empty, o-sharing discards the
whole subtree of the u-trace (the answers of all its mappings are empty).  The
ablation runs o-sharing with and without the shortcut on the selective Table
III queries and measures the executed source operators saved.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentSeries, cold_query, run_method
from repro.bench.reporting import render_experiment
from repro.datagen.scenario import build_scenario
from repro.workloads.queries import PAPER_QUERIES

QUERY_IDS = ("Q1", "Q3", "Q5")
BENCH_H = 60
SCALE = 0.03


def _build_series():
    scenario = build_scenario(target="Excel", h=BENCH_H, scale=SCALE, seed=7)
    series = ExperimentSeries(title="empty-prune ablation", x_label="query")
    for query_id in QUERY_IDS:
        query = PAPER_QUERIES[query_id].build(scenario.target_schema)
        with_prune = run_method(
            "o-sharing", query, scenario, x=query_id, prune_empty=True,
            optimize=False,  # paper-faithful: the paper has no cost-based optimizer
        )
        with_prune.method = "o-sharing (prune)"
        series.add(with_prune)
        without_prune = run_method(
            "o-sharing", query, scenario, x=query_id, prune_empty=False,
            optimize=False,  # paper-faithful: the paper has no cost-based optimizer
        )
        without_prune.method = "o-sharing (no prune)"
        series.add(without_prune)
    return series


def test_ablation_empty_prune(benchmark, report_writer):
    series = benchmark.pedantic(_build_series, rounds=1, iterations=1)
    text = render_experiment(
        "Ablation: o-sharing with and without empty-intermediate pruning",
        series,
        metrics=("seconds", "source_operators"),
        notes=f"h={BENCH_H}, scale={SCALE}",
    )
    report_writer("ablation_empty_prune", text)

    for query_id in QUERY_IDS:
        pruned = series.value("o-sharing (prune)", query_id, "source_operators")
        unpruned = series.value("o-sharing (no prune)", query_id, "source_operators")
        assert pruned <= unpruned

    # The pruning is purely an optimisation: answers are identical either way.
    scenario = build_scenario(target="Excel", h=20, scale=0.01, seed=7)
    query = PAPER_QUERIES["Q1"].build(scenario.target_schema)
    with_prune = cold_query(query, scenario, method="o-sharing", prune_empty=True)
    without_prune = cold_query(query, scenario, method="o-sharing", prune_empty=False)
    assert with_prune.answers.equals(without_prune.answers)
