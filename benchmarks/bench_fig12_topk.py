"""Figure 12(a)-(c): probabilistic top-k queries vs full o-sharing.

The paper evaluates the top-k algorithm on Q4 (Excel), Q7 (Noris) and Q10
(Paragon) for k between 1 and 20.  Observations: for small k the top-k
algorithm clearly beats computing all probabilities with o-sharing, and the
advantage shrinks as k approaches the number of distinct answers (for Q10 the
two coincide at k≈10 because the query has no more than 10 distinct answers).
"""

from __future__ import annotations

from repro.bench.harness import ExperimentSeries, cold_query, point_from_result
from repro.bench.reporting import render_experiment
from repro.datagen.scenario import build_scenario
from repro.workloads.queries import PAPER_QUERIES

K_VALUES = (1, 5, 10, 15, 20)
BENCH_H = 60
SCALE = 0.03
PANELS = {"a": "Q4", "b": "Q7", "c": "Q10"}


def _build_panel(query_id: str) -> ExperimentSeries:
    spec = PAPER_QUERIES[query_id]
    scenario = build_scenario(target=spec.target, h=BENCH_H, scale=SCALE, seed=7)
    query = spec.build(scenario.target_schema)
    series = ExperimentSeries(
        title=f"Figure 12: top-k vs o-sharing ({query_id})", x_label="k"
    )
    import time

    started = time.perf_counter()
    # optimize=False is paper-faithful: the paper has no cost-based optimizer
    exact = cold_query(query, scenario, method="o-sharing", optimize=False)
    exact_seconds = time.perf_counter() - started
    for k in K_VALUES:
        started = time.perf_counter()
        topk = cold_query(query, scenario, method="top-k", k=k, optimize=False)
        elapsed = time.perf_counter() - started
        series.add(point_from_result(topk, method="top-k", x=k, seconds=elapsed))
        series.add(point_from_result(exact, method="o-sharing", x=k, seconds=exact_seconds))
    return series


def _report(panel: str, series: ExperimentSeries, report_writer) -> None:
    query_id = PANELS[panel]
    text = render_experiment(
        f"Figure 12({panel}): top-k vs o-sharing ({query_id})",
        series,
        metrics=(
            "seconds",
            "source_operators",
            "units_created",
            "stopped_early",
            "candidate_tuples",
        ),
        notes=f"k swept over {K_VALUES}; h={BENCH_H}, scale={SCALE}",
    )
    report_writer(f"fig12{panel}_topk_{query_id.lower()}", text)


def _assert_shape(series: ExperimentSeries) -> None:
    # The top-k algorithm never executes more source operators than the exact
    # o-sharing evaluation, and for k=1 it executes no more than for k=20.
    # A drive reports stopped_early exactly when it left a queued group
    # behind, whose child e-unit is then never created.
    for k in K_VALUES:
        assert series.value("top-k", k, "source_operators") <= series.value(
            "o-sharing", k, "source_operators"
        )
        assert series.value("top-k", k, "stopped_early") == (
            series.value("top-k", k, "units_created")
            < series.value("o-sharing", k, "units_created")
        )
    assert series.value("top-k", 1, "source_operators") <= series.value(
        "top-k", max(K_VALUES), "source_operators"
    )


def test_fig12a_topk_q4(benchmark, report_writer):
    series = benchmark.pedantic(_build_panel, args=("Q4",), rounds=1, iterations=1)
    _report("a", series, report_writer)
    _assert_shape(series)


def test_fig12b_topk_q7(benchmark, report_writer):
    series = benchmark.pedantic(_build_panel, args=("Q7",), rounds=1, iterations=1)
    _report("b", series, report_writer)
    _assert_shape(series)


def test_fig12c_topk_q10(benchmark, report_writer):
    series = benchmark.pedantic(_build_panel, args=("Q10",), rounds=1, iterations=1)
    _report("c", series, report_writer)
    _assert_shape(series)
