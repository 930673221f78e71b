"""Check every claim the system makes about itself and write the committed report.

    PYTHONPATH=src python benchmarks/system/run.py

Measures and gates every row of ``claims.py`` with the paper runner's loop
and gate evaluator (scenarios are built once, as in the paper runner), and
writes ``SYSTEM.md`` and ``BENCH_system.json`` at the repo root.  Exits 1
naming every row whose gates fail.  Takes no arguments.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.obs.artifacts import REPO_ROOT, write_bench_artifact
from repro.relational.parallel import available_cpus
from repro.relational.vector import numpy_available

# the claims tables are packages under benchmarks/ (paper, system)
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from paper.claims import PAPER  # noqa: E402
from paper.run import build, claim_record, gate_rows, markdown_table, setup_facts  # noqa: E402
from system.claims import CLAIMS  # noqa: E402


def measure(claim) -> dict:
    """A row's points, under the one configuration its terms read."""
    return {PAPER: claim.measure(claim, build)}


def facts() -> list[tuple[str, str]]:
    machine, python = setup_facts()[:2]
    return [
        machine,
        python,
        ("Usable cores", f"{available_cpus()} (engine-parallel's speedup gate needs 4)"),
        ("NumPy", "installed" if numpy_available() else "missing: no engine-vector row"),
    ]


def tables(claim, points: dict) -> list[str]:
    """One table per method: its axis points down, its metrics across."""
    lines = []
    for method in claim.methods:
        xs = [x for x in claim.values if (method, x) in points]
        metrics = [m for m in claim.metrics if any(m in points[method, x] for x in xs)]
        rows = [[x] + [points[method, x].get(m) for m in metrics] for x in xs]
        lines += [f"{method}:", "", markdown_table([claim.axis, *metrics], rows), ""]
    return lines


def render(claims, results) -> str:
    lines = [
        "# System claims",
        "",
        "Generated by `PYTHONPATH=src python benchmarks/system/run.py` from the "
        "claims table in `benchmarks/system/claims.py`; do not edit by hand.  "
        "The same numbers are in `BENCH_system.json`.  Every wall-clock gate "
        "compares two regimes measured in the same run on this machine.",
        "",
        "## Setup",
        "",
        markdown_table(["Component", "Details"], facts()),
        "",
        "## Results summary",
        "",
        markdown_table(
            ["Claim", "Subsystem", "Gates"],
            [
                [f"[{claim.id}](#{claim.id})", claim.source,
                 f"{sum(passed for _, passed in r['gates'])}/{len(r['gates'])} pass"]
                for claim, r in zip(claims, results)
            ],
        ),
        "",
        "## Failed gates",
        "",
    ]
    failed = [f"* **{claim.id}**: `{gate}`"
              for claim, r in zip(claims, results) for gate, passed in r["gates"] if not passed]
    lines += failed or ["* None."]
    lines += ["", "## Claims", ""]
    for claim, r in zip(claims, results):
        target, h, scale = claim.scenario
        lines += [
            f"### {claim.id}",
            "",
            f"{claim.source}: \"{claim.sentence}\"",
            "",
            f"Scenario: {target}, h = {h}" + (f", scale {scale}" if scale else "")
            + f"; {claim.axis} in {list(claim.values)}.",
            "",
            *[f"* {'pass' if passed else '**FAIL**'}: `{gate}`" for gate, passed in r["gates"]],
            "",
        ]
        lines += tables(claim, r["points"][PAPER])
    return "\n".join(lines)


def artifact(claims, results) -> dict:
    return {
        "setup": dict(facts()),
        "claims": [
            {
                **claim_record(claim),
                "gates": [{"gate": gate, "passed": passed} for gate, passed in r["gates"]],
                "points": [
                    {"method": method, "x": x, **r["points"][PAPER][method, x]}
                    for x in claim.values
                    for method in claim.methods
                    if (method, x) in r["points"][PAPER]
                ],
            }
            for claim, r in zip(claims, results)
        ],
    }


def main(claims=CLAIMS, out: Path = REPO_ROOT) -> int:
    """Measure, gate and report ``claims``; 1 if any gate failed."""
    results, failed = gate_rows(claims, measure)
    out = Path(out)
    (out / "SYSTEM.md").write_text(render(claims, results), encoding="utf-8")
    write_bench_artifact("system", artifact(claims, results), root=out)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("run.py takes no arguments")
    sys.exit(main())
