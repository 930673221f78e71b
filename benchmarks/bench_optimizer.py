"""Cost-based optimizer on/off: Figure 11(d) selections and 11(e) products.

Reruns the two operator-count sweeps of the paper's evaluation with the
cost-based optimizer enabled (the default) and disabled, for every Figure-11
method.  The assertions double as the CI regression gate: on the Figure 11(e)
products sweep the optimized run must never execute more source operators or
scan more rows than the unoptimized run, and answers must stay identical.

The measured sweeps are committed as ``BENCH_optimizer_fig11d.json`` and
``BENCH_optimizer_fig11e.json`` at the repo root; a text summary of the
speedups goes to the git-ignored ``benchmarks/results/optimizer_speedup.txt``.
"""

from __future__ import annotations

from repro.bench.harness import (
    DEFAULT_METHODS,
    ExperimentSeries,
    run_optimizer_modes,
    write_series_artifact,
)
from repro.bench.reporting import render_experiment
from repro.datagen.scenario import build_scenario
from repro.workloads.generators import product_query, selection_query

SELECTION_COUNTS = (1, 2, 3, 4, 5)
PRODUCT_COUNTS = (1, 2, 3)
SELECTIONS_H = 60
SELECTIONS_SCALE = 0.03
PRODUCTS_H = 40
PRODUCTS_SCALE = 0.02


def _selection_series() -> ExperimentSeries:
    scenario = build_scenario(
        target="Excel", h=SELECTIONS_H, scale=SELECTIONS_SCALE, seed=7
    )
    series = ExperimentSeries(
        title="Figure 11(d) with/without the cost-based optimizer",
        x_label="selection operators",
    )
    for count in SELECTION_COUNTS:
        query = selection_query(count, scenario.target_schema)
        for point in run_optimizer_modes(DEFAULT_METHODS, query, scenario, x=count):
            series.add(point)
    return series


def _product_series() -> ExperimentSeries:
    scenario = build_scenario(
        target="Excel", h=PRODUCTS_H, scale=PRODUCTS_SCALE, seed=7
    )
    series = ExperimentSeries(
        title="Figure 11(e) with/without the cost-based optimizer",
        x_label="Cartesian products",
    )
    for count in PRODUCT_COUNTS:
        query = product_query(count, scenario.target_schema)
        for point in run_optimizer_modes(DEFAULT_METHODS, query, scenario, x=count):
            series.add(point)
    return series


def _speedup_lines(series: ExperimentSeries, counts, label: str) -> list[str]:
    lines = [f"{label}:"]
    for method in DEFAULT_METHODS:
        for count in counts:
            raw_s = series.value(f"{method}@raw", count, "seconds")
            opt_s = series.value(f"{method}@opt", count, "seconds")
            raw_ops = series.value(f"{method}@raw", count, "source_operators")
            opt_ops = series.value(f"{method}@opt", count, "source_operators")
            speedup = raw_s / opt_s if opt_s else float("inf")
            lines.append(
                f"  {method:<10} x={count}: {raw_s:.3f}s -> {opt_s:.3f}s "
                f"({speedup:.2f}x), operators {raw_ops} -> {opt_ops}"
            )
    return lines


def test_optimizer_fig11d_selections(benchmark, report_writer):
    series = benchmark.pedantic(_selection_series, rounds=1, iterations=1)
    text = render_experiment(
        "Figure 11(d) selections sweep: optimizer on (@opt) vs off (@raw)",
        series,
        metrics=("seconds", "source_operators"),
        notes=f"h={SELECTIONS_H}, scale={SELECTIONS_SCALE}",
    )
    text += "\n" + "\n".join(
        _speedup_lines(series, SELECTION_COUNTS, "fig11d selections speedup")
    )
    report_writer("optimizer_fig11d", text)

    # The optimizer must never execute more operators or scan more rows.
    for method in DEFAULT_METHODS:
        for count in SELECTION_COUNTS:
            opt_ops = series.value(f"{method}@opt", count, "source_operators")
            raw_ops = series.value(f"{method}@raw", count, "source_operators")
            assert opt_ops <= raw_ops, (method, count)
            assert series.value(
                f"{method}@opt", count, "rows_scanned"
            ) <= series.value(f"{method}@raw", count, "rows_scanned"), (method, count)
    # For the whole-query evaluators, five stacked selections must collapse
    # into strictly fewer executed operators (o-sharing executes operator by
    # operator, so its tiny per-operator plans leave nothing to collapse).
    for method in ("e-basic", "q-sharing"):
        assert series.value(f"{method}@opt", 5, "source_operators") < series.value(
            f"{method}@raw", 5, "source_operators"
        ), method
    # Answers are identical either way.
    for method in DEFAULT_METHODS:
        for count in SELECTION_COUNTS:
            assert series.value(f"{method}@opt", count, "answers") == series.value(
                f"{method}@raw", count, "answers"
            )

    write_series_artifact(
        "optimizer_fig11d",
        series,
        gates={
            "optimized_never_more_operators": True,
            "optimized_never_more_rows_scanned": True,
            "answers_identical": True,
        },
        workload={"h": SELECTIONS_H, "scale": SELECTIONS_SCALE, "counts": SELECTION_COUNTS},
    )


def test_optimizer_fig11e_products(benchmark, report_writer):
    series = benchmark.pedantic(_product_series, rounds=1, iterations=1)
    text = render_experiment(
        "Figure 11(e) products sweep: optimizer on (@opt) vs off (@raw)",
        series,
        metrics=("seconds", "source_operators"),
        notes=f"h={PRODUCTS_H}, scale={PRODUCTS_SCALE}",
    )
    text += "\n" + "\n".join(
        _speedup_lines(series, PRODUCT_COUNTS, "fig11e products speedup")
    )
    report_writer("optimizer_fig11e", text)

    # CI gate: the optimized plans must never execute more operators or scan
    # more rows than the raw plans on the products sweep.
    for method in DEFAULT_METHODS:
        for count in PRODUCT_COUNTS:
            opt = series.value(f"{method}@opt", count, "source_operators")
            raw = series.value(f"{method}@raw", count, "source_operators")
            assert opt <= raw, (method, count, opt, raw)
            opt_rows = series.value(f"{method}@opt", count, "rows_scanned")
            raw_rows = series.value(f"{method}@raw", count, "rows_scanned")
            assert opt_rows <= raw_rows, (method, count, opt_rows, raw_rows)
            assert series.value(f"{method}@opt", count, "answers") == series.value(
                f"{method}@raw", count, "answers"
            )
    # And the Select+Product→Join conversion must pay off in wall-clock time
    # at the largest query for the whole-query evaluators.  The measured
    # margin is ~6x; the 1.25 slack only absorbs scheduler noise on shared
    # CI runners (the operator/row gates above stay exact).
    for method in ("e-basic", "q-sharing"):
        assert series.value(f"{method}@opt", 3) <= series.value(f"{method}@raw", 3) * 1.25

    write_series_artifact(
        "optimizer_fig11e",
        series,
        gates={
            "optimized_never_more_operators": True,
            "optimized_never_more_rows_scanned": True,
            "answers_identical": True,
            "largest_query_wallclock_slack": 1.25,
        },
        workload={"h": PRODUCTS_H, "scale": PRODUCTS_SCALE, "counts": PRODUCT_COUNTS},
    )


def test_optimizer_speedup_report(report_writer):
    """Combined speedup summary (text, under the git-ignored benchmarks/results/)."""
    selections = _selection_series()
    products = _product_series()
    lines = [
        "Cost-based optimizer: measured speedups (optimizer on vs off)",
        "=" * 62,
        "",
    ]
    lines += _speedup_lines(selections, SELECTION_COUNTS, "Figure 11(d) selections")
    lines.append("")
    lines += _speedup_lines(products, PRODUCT_COUNTS, "Figure 11(e) products")
    report_writer("optimizer_speedup", "\n".join(lines) + "\n")
