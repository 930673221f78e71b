"""Shared fixtures for the pytest-benchmark scripts in ``benchmarks/``.

The paper's claims are checked by ``benchmarks/paper/run.py``; the scripts
here measure the system's own subsystems (engines, sessions, writes,
serving, observability, anytime).  Reports are printed to stdout and written
to ``benchmarks/results/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.datagen.scenario import MatchingScenario, build_scenario

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def small_excel_bench() -> MatchingScenario:
    """The small Excel scenario the session, batch and observability benchmarks share."""
    return build_scenario(target="Excel", h=30, scale=0.02, seed=7)


@pytest.fixture(scope="session")
def report_writer():
    """Print an experiment report and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> Path:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        print(f"\n{text}")
        return path

    return write
