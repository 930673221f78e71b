"""Compare evaluation algorithms and operator-selection strategies on one query.

The script runs every exact evaluator (basic, e-basic, e-MQO, q-sharing,
o-sharing) and every o-sharing strategy (Random, SNF, SEF) on the paper's
default query Q4, verifies that they all return the same probabilistic
answers, and prints a side-by-side cost comparison — a miniature version of
the paper's Figure 11 / Table IV analysis, runnable in a few seconds.

Run it with::

    python examples/strategy_comparison.py
"""

from __future__ import annotations

import time

from repro import build_scenario, connect
from repro.workloads import paper_query


def print_table(headers, rows) -> None:
    widths = [max(len(str(cell)) for cell in column) for column in zip(headers, *rows)]
    for row in (headers, ["-" * width for width in widths], *rows):
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))


def measure(query, scenario, method, **options):
    # A fresh session per run: every method starts cold, so the costs compare.
    with connect(scenario, method=method, **options) as session:
        started = time.perf_counter()
        result = session.query(query)
        elapsed = time.perf_counter() - started
    return result, elapsed


def main() -> None:
    scenario = build_scenario(target="Excel", h=60, scale=0.02)
    query = paper_query("Q4", scenario.target_schema)
    print(scenario.describe())
    print(query.describe())
    print()

    rows = []
    reference = None
    for method in ("basic", "e-basic", "e-mqo", "q-sharing", "o-sharing"):
        result, elapsed = measure(query, scenario, method)
        if reference is None:
            reference = result
        else:
            assert reference.answers.equals(result.answers), f"{method} disagrees with basic!"
        rows.append(
            [
                method,
                round(elapsed, 3),
                result.stats.source_operators,
                result.stats.source_queries,
                result.stats.reformulations,
                len(result.answers),
            ]
        )
    print("Evaluators (identical answers, different cost)")
    print_table(
        ["method", "seconds", "source operators", "source queries", "reformulations", "answers"],
        rows,
    )
    print()

    rows = []
    for strategy in ("random", "snf", "sef"):
        result, elapsed = measure(query, scenario, "o-sharing", strategy=strategy, seed=11)
        assert reference.answers.equals(result.answers)
        rows.append(
            [
                strategy.upper(),
                round(elapsed, 3),
                result.stats.source_operators,
                result.details["units_created"],
            ]
        )
    print("o-sharing operator-selection strategies (Section VI-A)")
    print_table(["strategy", "seconds", "source operators", "e-units"], rows)


if __name__ == "__main__":
    main()
