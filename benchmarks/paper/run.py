"""Check every claim of the paper's evaluation and write the committed report.

    PYTHONPATH=src python benchmarks/paper/run.py

Measures every row of ``claims.py`` -- each distinct scenario is built once,
and every method x query point is a cold query under both configurations
(paper-faithful: optimizer off; default: optimizer on) -- then evaluates the
gates, gives each claim a verdict per configuration, and writes
``REPRODUCTION.md`` and ``BENCH_paper.json`` at the repo root.  Exits 1 if
any gate fails; the verdicts are report-only.  Takes no arguments.
"""

from __future__ import annotations

import math
import operator
import os
import platform
import sys
import time
from functools import lru_cache
from pathlib import Path

from repro.bench import cold_query
from repro.datagen.generator import GeneratorConfig, generate_source_instance
from repro.datagen.scenario import build_scenario
from repro.obs.artifacts import REPO_ROOT, write_bench_artifact
from repro.workloads.generators import product_query, selection_query
from repro.workloads.queries import PAPER_QUERIES

# the claims tables are packages under benchmarks/ (paper, system)
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from paper.claims import (  # noqa: E402
    CLAIMS,
    CONFIGS,
    EVERY,
    GROWTH,
    LARGEST,
    MEAN,
    PAPER,
    SMALLEST,
    SPREAD,
    TOTAL,
    X,
    Claim,
    Gate,
    Term,
    ordering_pairs,
)

SEED = 7

#: The generator scale of the paper's 100 MB instance in the default setting
#: (REPRODUCTION.md, Setup, records the calibration).
PAPER_MB_SCALE = 0.04

HOLDS = "holds"
TOTAL_ONLY = "holds in total only"
COUNTS_ONLY = "holds in counts only"
DOES_NOT_HOLD = "does not hold"

#: Metrics held in memory for gates but not reported.
UNREPORTED = ("answer",)

_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


def mb_to_scale(paper_mb: float, calibration: float = PAPER_MB_SCALE) -> float:
    """Convert a paper-figure "database size (MB)" label into a generator scale.

    The paper's 100 MB instance corresponds to generator scale ``calibration``,
    and intermediate sizes scale linearly.
    """
    if paper_mb <= 0:
        raise ValueError("paper_mb must be positive")
    return paper_mb / 100.0 * calibration


# --------------------------------------------------------------------------- #
# measuring
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def build(target: str, h: int, scale: float):
    """The scenario (target, h, scale), built once per process."""
    return build_scenario(target=target, h=h, scale=scale, seed=SEED)


@lru_cache(maxsize=None)
def _sized(target: str, h: int, scale: float, paper_mb: float):
    database = generate_source_instance(
        scale=mb_to_scale(paper_mb, scale), config=GeneratorConfig(seed=SEED)
    )
    return build(target, h, scale).with_database(database, mb_to_scale(paper_mb, scale))


def point_input(claim: Claim, x):
    """The scenario, query and cache key of one axis point."""
    target, h, scale = claim.scenario
    query_id = x if claim.axis == "query" else claim.query
    target = target or PAPER_QUERIES[query_id].target
    key: tuple = (target, h, scale, query_id)
    scenario = build(target, h, scale)
    if claim.axis == "database MB":
        scenario = _sized(target, h, scale, x)
    elif claim.axis == "mappings":
        scenario = scenario.with_mappings(min(x, scenario.h))
    if claim.axis == "selections":
        query = selection_query(x, scenario.target_schema)
    elif claim.axis == "products":
        query = product_query(x, scenario.target_schema)
    else:
        query = PAPER_QUERIES[query_id].build(scenario.target_schema)
    if claim.axis not in ("query", "k"):
        key += (claim.axis, x)
    return scenario, query, key


def measure_point(query, scenario, evaluator: str, options: dict) -> dict:
    """One cold query and every metric of ``POINT_METRICS``."""
    started = time.perf_counter()
    result = cold_query(query, scenario, evaluator, **options)
    seconds = time.perf_counter() - started
    stats, details = result.stats, result.details
    phases = {name: stats.phase_seconds.get(name, 0.0)
              for name in ("evaluation", "aggregation", "rewriting")}
    total = sum(phases.values())
    return {
        "seconds": seconds,
        "source_operators": stats.source_operators,
        "reformulations": stats.reformulations,
        "rows_scanned": stats.rows_scanned,
        "answers": len(result.answers),
        "answer": result.answers,
        **{name: details.get(name) for name in
           ("plan_comparisons", "units_created", "stopped_early", "candidate_tuples")},
        **{f"{name}_s": value for name, value in phases.items()},
        "evaluation_share": phases["evaluation"] / total if total else 0.0,
    }


def measure(claim: Claim, memo: dict) -> dict:
    """{config: {(method, x): metrics}} for one claim.

    ``memo`` holds every point measured so far, keyed by what determines it,
    so a point two claims share (the same scenario, query, method and
    options) is measured once.
    """
    if claim.measure is not None:
        points = claim.measure(claim, build)
        return {config: points for config in CONFIGS}
    inputs = {x: point_input(claim, x) for x in claim.values}
    table: dict = {config: {} for config in CONFIGS}
    # one configuration's sweep at a time, in axis then method order
    for config, config_options in CONFIGS.items():
        for x, (scenario, query, key) in inputs.items():
            for label, (evaluator, options) in claim.methods.items():
                resolved = {name: x if value == X else value for name, value in options.items()}
                run_key = key + (evaluator, tuple(sorted(resolved.items())), config)
                if run_key not in memo:
                    memo[run_key] = measure_point(
                        query, scenario, evaluator, {**resolved, **config_options}
                    )
                table[config][label, x] = memo[run_key]
    return table


# --------------------------------------------------------------------------- #
# gates and verdicts
# --------------------------------------------------------------------------- #
def read(term: Term, claim: Claim, points: dict):
    """A term's value: {x: value} point by point, else one number."""
    table = points[term.config]
    if term.at == EVERY or isinstance(term.at, tuple):
        xs = claim.values if term.at == EVERY else term.at
        return {x: table[term.method, x][term.metric] for x in xs}
    series = [table[term.method, x][term.metric] for x in claim.values]
    return {
        LARGEST: lambda: series[-1],
        SMALLEST: lambda: series[0],
        TOTAL: lambda: sum(series),
        MEAN: lambda: sum(series) / len(series),
        SPREAD: lambda: max(series) - min(series),
        GROWTH: lambda: series[-1] / max(series[0], 1),
    }[term.at]()


def check(gate: Gate, claim: Claim, points: dict) -> bool:
    """Whether one gate holds on a claim's measured points."""
    left = read(gate.left, claim, points)
    right = read(gate.right, claim, points) if isinstance(gate.right, Term) else gate.right

    def compare(a, b) -> bool:
        if gate.op == "equals":
            return a.equals(b)
        return _COMPARE[gate.op](a, b * gate.factor + gate.offset)

    pointwise = left if isinstance(left, dict) else right
    if not isinstance(pointwise, dict):
        return compare(left, right)
    held = {
        x: compare(left[x] if isinstance(left, dict) else left,
                   right[x] if isinstance(right, dict) else right)
        for x in pointwise
    }
    if gate.iff is not None:
        flags = read(gate.iff, claim, points)
        return all(held[x] == bool(flags[x]) for x in held)
    return sum(held.values()) >= math.floor(len(held) * gate.share)


def verdict(ordering: str, operators: dict, seconds: dict) -> str:
    """How far a claim's ordering holds.

    ``operators`` and ``seconds`` map each method to its values along the axis.
    """
    pairs = ordering_pairs(ordering)

    def holds(values: dict, pointwise: bool) -> bool:
        if pointwise:
            return all(a <= b for cheap, dear in pairs
                       for a, b in zip(values[cheap], values[dear]))
        return all(sum(values[cheap]) <= sum(values[dear]) for cheap, dear in pairs)

    if not holds(operators, False):
        return DOES_NOT_HOLD
    if not holds(seconds, False):
        return COUNTS_ONLY
    if holds(operators, True) and holds(seconds, True):
        return HOLDS
    return TOTAL_ONLY


def series(claim: Claim, points: dict, config: str, metric: str) -> dict:
    """{method: [value at each axis point]} under one configuration."""
    return {m: [points[config][m, x][metric] for x in claim.values] for m in claim.methods}


# --------------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------------- #
def describe_term(term: Term) -> str:
    text = f"{term.method}.{term.metric}"
    if term.at in (LARGEST, SMALLEST):
        text += f"@{term.at}"
    elif term.at != EVERY and not isinstance(term.at, tuple):
        text = f"{term.at}({text})"
    return text if term.config == PAPER else f"{text} [{term.config}]"


def describe(gate: Gate, claim: Claim) -> str:
    """A gate as one line of text."""
    right = describe_term(gate.right) if isinstance(gate.right, Term) else f"{gate.right:g}"
    if gate.factor != 1:
        right = f"{gate.factor:g} x {right}"
    if gate.offset:
        right += f" + {gate.offset:g}"
    text = f"{describe_term(gate.left)} {gate.op} {right}"
    terms = (gate.left, gate.right)
    subset = next((t.at for t in terms if isinstance(t, Term) and isinstance(t.at, tuple)), None)
    if subset is not None:
        text += f" at {claim.axis} in {subset}"
    elif any(isinstance(t, Term) and t.at == EVERY for t in terms):
        text += " at every point"
    if gate.share != 1:
        text += f" (at >= {gate.share:g} of the points)"
    if gate.iff is not None:
        text += f", exactly where {describe_term(gate.iff)}"
    return text


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def markdown_table(headers, rows) -> str:
    lines = ["| " + " | ".join(map(str, headers)) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines += ["| " + " | ".join(_cell(v) for v in row) + " |" for row in rows]
    return "\n".join(lines)


def reported_metrics(claim: Claim) -> list[str]:
    """Seconds, operators and whatever else a gate reads, in table order."""
    named = {"seconds", "source_operators"} | {t.metric for g in claim.gates for t in g.terms()}
    return [m for m in claim.metrics if m in named and m not in UNREPORTED]


def setup_facts() -> list[tuple[str, str]]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return [
        ("Machine", f"{cpu}, {os.cpu_count()} logical CPUs, {platform.system()}"),
        ("Python", platform.python_version()),
        ("Engine", "pure Python, default `columnar` engine; every point is a cold "
                   "query on a fresh session"),
        ("Configurations", "paper-faithful: `optimize=False` (the paper has no "
                           "cost-based optimizer); default: `optimize=True`"),
        ("Data", f"generated purchase-order instance, seed {SEED}"),
    ]


SETUP_NOTES = f"""\
### Database size (paper MB) to generator scale

The paper runs a 100 MB TPC-H instance with 100-500 possible mappings on a
C++ engine.  This pure-Python reproduction keeps the figures' axis labels and
runs a smaller instance: a paper size of `x` MB is generator scale
`x / 100 * c`, where `c` is the scale of the 100 MB point.  `c` is
{PAPER_MB_SCALE} by default and for Fig. 10(b), and 0.03 for Fig. 11(b); the
rows measured at one size state their scale directly (0.01 to 0.04).  The
*relative* behaviour the figures show is what is checked, not absolute
times.

### Table III adjustments

Two faithful-but-necessary changes to the paper's queries
(`src/repro/workloads/queries.py`):

* selection constants on address-valued attributes use the street name
  `'Central'`, which occurs in the generated instance, where the paper prints
  `'ABC'`, so that the selections are satisfiable;
* Q3's `sigma itemNum1='00001' PO` (a typo in the paper: `PO` has no
  `itemNum`) is read as a selection on `Item1.itemNum`.

### Verdicts

A claim's ordering lists its methods from cheapest to most expensive.  Its
verdict, per configuration, is one of:

* **{HOLDS}**: the ordering holds on source operators and on wall-clock, at
  every axis point;
* **{TOTAL_ONLY}**: both hold when summed over the axis, but not at every
  point;
* **{COUNTS_ONLY}**: operators hold in total, but the wall-clock total does
  not;
* **{DOES_NOT_HOLD}**: operators fail in total.

Verdicts are reported, not gated; only the gates fail a run.  Rows without an
ordering are checked by their gates alone.
"""


def finding(claim: Claim, points: dict, config: str, outcome: str | None) -> str | None:
    """Where a claim's ordering falls short, in one sentence; ``None`` if it holds."""
    if outcome in (None, HOLDS):
        return None
    ops = series(claim, points, config, "source_operators")
    secs = series(claim, points, config, "seconds")
    # the metric the verdict turned on
    metrics = {DOES_NOT_HOLD: [ops], COUNTS_ONLY: [secs], TOTAL_ONLY: [ops, secs]}[outcome]
    for cheap, dear in ordering_pairs(claim.ordering):
        for values in metrics:
            worse = [x for x, a, b in zip(claim.values, values[cheap], values[dear]) if a > b]
            if worse and (outcome == TOTAL_ONLY or sum(values[cheap]) > sum(values[dear])):
                i = claim.values.index(worse[-1])
                name = "operators" if values is ops else "seconds"
                return (
                    f"**{claim.source}**, {config}: {outcome}.  At {claim.axis} = "
                    f"{worse[-1]}, {cheap} runs {ops[cheap][i]} operators in "
                    f"{secs[cheap][i]:.3f} s, {dear} {ops[dear][i]} in {secs[dear][i]:.3f} s "
                    f"({cheap} exceeds {dear} on {name} at {claim.axis} in {worse})."
                )
    return None


def render(claims, results) -> str:
    configs = list(CONFIGS)
    lines = [
        "# Reproduction report",
        "",
        "Generated by `PYTHONPATH=src python benchmarks/paper/run.py` from the "
        "claims table in `benchmarks/paper/claims.py`; do not edit by hand.  "
        "The same numbers are in `BENCH_paper.json`.",
        "",
        "## Setup",
        "",
        markdown_table(["Component", "Details"], setup_facts()),
        "",
        SETUP_NOTES,
        "## Results summary",
        "",
        markdown_table(
            ["Claim", "Paper", "Ordering", *[f"Verdict ({c})" for c in configs], "Gates"],
            [
                [
                    f"[{claim.id}](#{claim.id})", claim.source, claim.ordering or "-",
                    *[r["verdicts"][c] or "gates only" for c in configs],
                    f"{sum(passed for _, passed in r['gates'])}/{len(r['gates'])} pass",
                ]
                for claim, r in zip(claims, results)
            ],
        ),
        "",
        "## Key findings",
        "",
    ]
    findings = [
        text
        for claim, r in zip(claims, results)
        for c in configs
        if (text := finding(claim, r["points"], c, r["verdicts"][c]))
    ]
    findings += [
        f"**{claim.source}**: gate failed: `{gate}`."
        for claim, r in zip(claims, results)
        for gate, passed in r["gates"]
        if not passed
    ]
    lines += [f"* {text}" for text in findings] or ["* Every ordering holds."]
    lines += ["", "## Claims", ""]
    for claim, r in zip(claims, results):
        target, h, scale = claim.scenario
        lines += [
            f"### {claim.id}",
            "",
            f"{claim.source}: \"{claim.sentence}\"",
            "",
            f"Scenario: {target or 'each query’s own target'}, h = {h}, scale {scale}; "
            f"{claim.axis} in {list(claim.values)}.  Ordering: {claim.ordering or 'none'}.",
            "",
            *[f"* {'pass' if passed else '**FAIL**'}: `{gate}`"
              for gate, passed in r["gates"]],
            "",
        ]
        shown = configs[:1] if claim.measure else configs
        for metric in reported_metrics(claim):
            headers = [claim.axis] + [
                method if claim.measure else f"{method} ({c})"
                for c in shown for method in claim.methods
            ]
            rows = [
                [x] + [r["points"][c][method, x][metric] for c in shown for method in claim.methods]
                for x in claim.values
            ]
            lines += [f"{metric}:", "", markdown_table(headers, rows), ""]
    return "\n".join(lines)


def claim_record(claim: Claim) -> dict:
    """The artifact fields that describe a row (both runners' artifacts start with them)."""
    return {
        "id": claim.id,
        "source": claim.source,
        "sentence": claim.sentence,
        "scenario": dict(zip(("target", "h", "scale"), claim.scenario)),
        "axis": claim.axis,
        "values": claim.values,
        "methods": claim.methods,
    }


def artifact(claims, results) -> dict:
    return {
        "setup": dict(setup_facts()),
        "configurations": CONFIGS,
        "claims": [
            {
                **claim_record(claim),
                "ordering": claim.ordering,
                "verdicts": r["verdicts"],
                "gates": [{"gate": gate, "passed": passed} for gate, passed in r["gates"]],
                "points": {
                    config: [
                        {"method": method, "x": x,
                         **{k: v for k, v in table[method, x].items() if k not in UNREPORTED}}
                        for x in claim.values
                        for method in claim.methods
                    ]
                    for config, table in r["points"].items()
                },
            }
            for claim, r in zip(claims, results)
        ],
    }


def ordering_verdicts(claim: Claim, points: dict) -> dict:
    """The row's ordering verdict under each configuration (``None`` without one)."""
    return {
        config: verdict(
            claim.ordering,
            series(claim, points, config, "source_operators"),
            series(claim, points, config, "seconds"),
        ) if claim.ordering else None
        for config in CONFIGS
    }


def gate_rows(claims, measure, verdicts=lambda claim, points: {}):
    """Measure and gate every row of ``claims``; the results and the failed row ids.

    ``measure(claim)`` returns the row's points.  Prints one line per row,
    one per failed gate and, if any row failed, the ids of the failed rows.
    Each result holds the row's ``points``, its ``gates`` as (description,
    passed) pairs and its ``verdicts(claim, points)``.
    """
    results = []
    for claim in claims:
        started = time.perf_counter()
        points = measure(claim)
        gates = [(describe(gate, claim), check(gate, claim, points)) for gate in claim.gates]
        outcomes = verdicts(claim, points)
        results.append({"points": points, "gates": gates, "verdicts": outcomes})
        failed = [gate for gate, passed in gates if not passed]
        print(f"{claim.id:<30} {time.perf_counter() - started:6.1f} s  "
              f"gates {len(gates) - len(failed)}/{len(gates)}  "
              + "  ".join(f"{c}: {v}" for c, v in outcomes.items() if v), flush=True)
        for gate in failed:
            print(f"  FAIL {claim.id}: {gate}", flush=True)
    failed = [claim.id for claim, r in zip(claims, results)
              if not all(passed for _, passed in r["gates"])]
    if failed:
        print(f"gates failed: {', '.join(failed)}")
    return results, failed


def main(claims=CLAIMS, out: Path = REPO_ROOT) -> int:
    """Measure, gate and report ``claims``; 1 if any gate failed."""
    memo: dict = {}
    results, failed = gate_rows(claims, lambda claim: measure(claim, memo), ordering_verdicts)
    out = Path(out)
    (out / "REPRODUCTION.md").write_text(render(claims, results), encoding="utf-8")
    write_bench_artifact("paper", artifact(claims, results), root=out)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("run.py takes no arguments")
    sys.exit(main())
