"""Columnar vs row engine on a small Figure 11(b) workload (CI smoke).

The columnar batch engine is the default; this benchmark is the guard rail
behind that choice.  It runs the Figure 11(b) setting (Q4 over the Excel
scenario) scaled down to CI size, on both execution engines, and fails when

* the columnar engine is not faster than the row engine, or
* the two engines do not return *byte-identical* probabilistic answers
  (exact float equality, not just tolerance-equality — the engines execute
  the same operators in the same order, so even the float accumulation order
  must match).

The measured table is committed as ``BENCH_engine_columnar.json`` at the repo
root (and printed to the git-ignored ``benchmarks/results/engine_columnar.txt``).
"""

from __future__ import annotations

import time

from repro.bench.harness import cold_query
from repro.bench.reporting import format_table
from repro.datagen.scenario import build_scenario
from repro.obs import write_bench_artifact
from repro.workloads.queries import PAPER_QUERIES

SMOKE_METHODS = ("e-basic", "o-sharing")
#: this benchmark isolates the row-vs-columnar difference; the parallel
#: engine has its own guard rail in bench_engine_parallel.py.
ENGINES = ("row", "columnar")
SMOKE_H = 30
SMOKE_SCALE = 0.02
ROUNDS = 3


def _measure(method, engine, query, scenario):
    best, result = None, None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        # optimize=False: this benchmark isolates the *engine* difference, so
        # both engines must execute the reformulated plans verbatim — with the
        # cost-based optimizer on, the Cartesian-product work that separates
        # the engines is largely optimized away and the comparison drowns in
        # noise at CI scale (the optimizer has its own guard rail in
        # bench_optimizer.py).
        result = cold_query(query, scenario, method=method, engine=engine, optimize=False)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_columnar_engine_beats_row_engine(benchmark, report_writer):
    scenario = build_scenario(target="Excel", h=SMOKE_H, scale=SMOKE_SCALE, seed=7)
    query = PAPER_QUERIES["Q4"].build(scenario.target_schema)

    rows = []
    for method in SMOKE_METHODS:
        timings = {}
        results = {}
        for engine in ENGINES:
            timings[engine], results[engine] = _measure(method, engine, query, scenario)

        # Byte-identical answers: same tuples, exactly the same floats.
        assert dict(results["row"].answers.items()) == dict(
            results["columnar"].answers.items()
        ), f"{method}: engines disagree on answer probabilities"
        assert (
            results["row"].answers.empty_probability
            == results["columnar"].answers.empty_probability
        )
        # Identical work accounting on both engines.
        assert (
            results["row"].stats.snapshot()["operators"]
            == results["columnar"].stats.snapshot()["operators"]
        )
        assert results["row"].stats.rows_scanned == results["columnar"].stats.rows_scanned
        assert results["row"].stats.rows_output == results["columnar"].stats.rows_output

        speedup = timings["row"] / timings["columnar"]
        rows.append([method, timings["row"], timings["columnar"], speedup])
        assert timings["columnar"] < timings["row"], (
            f"{method}: columnar engine ({timings['columnar']:.3f}s) is not faster "
            f"than the row engine ({timings['row']:.3f}s)"
        )

    table = format_table(
        ["method", "row [s]", "columnar [s]", "speedup"],
        [[m, f"{r:.3f}", f"{c:.3f}", f"{s:.2f}x"] for m, r, c, s in rows],
    )
    report_writer(
        "engine_columnar",
        "== Columnar vs row engine (Q4, Excel, CI smoke) ==\n\n"
        f"h={SMOKE_H}, scale={SMOKE_SCALE}, best of {ROUNDS} rounds\n\n" + table + "\n",
    )

    write_bench_artifact(
        "engine_columnar",
        {
            "workload": {
                "query": "Q4",
                "target": "Excel",
                "h": SMOKE_H,
                "scale": SMOKE_SCALE,
                "rounds": ROUNDS,
                "optimize": False,
            },
            "series": [
                {
                    "method": method,
                    "row_seconds": row_s,
                    "columnar_seconds": col_s,
                    "speedup": speedup,
                }
                for method, row_s, col_s, speedup in rows
            ],
            "gates": {
                "columnar_faster_than_row": True,
                "answers_byte_identical": True,
                "operator_counts_identical": True,
            },
        },
    )

    # One pedantic round through pytest-benchmark for the timing artefact.
    benchmark.pedantic(
        lambda: cold_query(query, scenario, method="e-basic", engine="columnar"),
        rounds=1,
        iterations=1,
    )
