"""Experiment runners used by the ``benchmarks/`` scripts.

The paper's figures plot the running time of one or more evaluation methods
against an experiment parameter (query id, database size, number of mappings,
number of operators, k).  The harness provides exactly that: run a set of
methods on a scenario/query pair, collect wall-clock time and operator counts,
and sweep a parameter to produce a series per method.

The paper's x-axes are expressed in "database size (MB)" for a 100 MB TPC-H
instance; :func:`mb_to_scale` converts those labels into the generator's scale
factor so that a benchmark can print the same axis labels as the figure while
running at a laptop-friendly size (see EXPERIMENTS.md for the calibration).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.core.evaluators.base import EvaluationResult
from repro.core.target_query import TargetQuery
from repro.datagen.generator import GeneratorConfig, generate_source_instance
from repro.datagen.scenario import MatchingScenario
from repro.obs.artifacts import series_payload, write_bench_artifact
from repro.relational.parallel import default_manager
from repro.policy import ExecutionPolicy
from repro.session import Session, connect

#: The methods compared in Figures 11(a)-(e).
DEFAULT_METHODS: tuple[str, ...] = ("e-basic", "q-sharing", "o-sharing")

#: The methods compared in Figure 10(b)-(c).
SIMPLE_METHODS: tuple[str, ...] = ("basic", "e-basic", "e-mqo")

#: How much smaller than the paper's 100 MB instance the benchmark instance
#: is, per "paper megabyte".  The paper's 100 MB corresponds to scale 1.0 of
#: the generator; running the full sweep at that size is not feasible for a
#: pure-Python engine, so the benchmarks run at ``PAPER_MB_SCALE`` of it and
#: keep the figure's axis labels.
PAPER_MB_SCALE = 0.04


def mb_to_scale(paper_mb: float, calibration: float = PAPER_MB_SCALE) -> float:
    """Convert a paper-figure "database size (MB)" label into a generator scale.

    The paper's 100 MB instance corresponds to generator scale ``calibration``
    (0.04 by default), and intermediate sizes scale linearly.
    """
    if paper_mb <= 0:
        raise ValueError("paper_mb must be positive")
    return paper_mb / 100.0 * calibration


@dataclass
class ExperimentPoint:
    """One measured point: a method evaluated at one parameter value."""

    method: str
    x: Any
    seconds: float
    source_operators: int
    source_queries: int
    answers: int
    reformulations: int = 0
    details: dict[str, Any] = field(default_factory=dict)


@dataclass
class ExperimentSeries:
    """A collection of measured points, grouped per method."""

    title: str
    x_label: str
    points: list[ExperimentPoint] = field(default_factory=list)

    def add(self, point: ExperimentPoint) -> None:
        """Record one measured point."""
        self.points.append(point)

    def methods(self) -> list[str]:
        """Distinct methods, in first-appearance order."""
        seen: list[str] = []
        for point in self.points:
            if point.method not in seen:
                seen.append(point.method)
        return seen

    def x_values(self) -> list[Any]:
        """Distinct x values, in first-appearance order."""
        seen: list[Any] = []
        for point in self.points:
            if point.x not in seen:
                seen.append(point.x)
        return seen

    def value(self, method: str, x: Any, metric: str = "seconds") -> Any:
        """The measured metric for one (method, x) combination."""
        for point in self.points:
            if point.method == method and point.x == x:
                if hasattr(point, metric):
                    return getattr(point, metric)
                return point.details.get(metric)
        raise KeyError(f"no point for method={method!r}, x={x!r}")

    def as_rows(self, metric: str = "seconds") -> list[list[Any]]:
        """Rows of ``[x, metric(method_1), metric(method_2), ...]`` for reporting."""
        rows = []
        for x in self.x_values():
            row: list[Any] = [x]
            for method in self.methods():
                try:
                    row.append(self.value(method, x, metric))
                except KeyError:
                    row.append(None)
            rows.append(row)
        return rows


# --------------------------------------------------------------------------- #
# single-point runners
# --------------------------------------------------------------------------- #
def _session(
    scenario: MatchingScenario, method: str, options: dict[str, Any], pools=None
) -> Session:
    """A session for one measured point; ``options`` are checked against ``method``.

    Cold points (a fresh session each) pass the process-wide ``pools`` so
    they keep reusing warm workers.
    """
    policy = ExecutionPolicy().with_overrides(method=method, **options)
    return connect(scenario, policy=policy, pools=pools)


def cold_query(
    query: TargetQuery, scenario: MatchingScenario, method: str, **options: Any
) -> EvaluationResult:
    """Answer one query on a fresh :class:`~repro.session.Session` (cold caches)."""
    with _session(scenario, method, options, pools=default_manager()) as session:
        return session.query(query)


def run_method(
    method: str,
    query: TargetQuery,
    scenario: MatchingScenario,
    x: Any = None,
    **options: Any,
) -> ExperimentPoint:
    """Run one method on one query and collect its measurements.

    Each point is a :func:`cold_query` (the paper's per-figure setting);
    :func:`run_session` measures the warm-session regime instead.
    """
    started = time.perf_counter()
    result = cold_query(query, scenario, method, **options)
    elapsed = time.perf_counter() - started
    return point_from_result(result, method=method, x=x, seconds=elapsed)


def point_from_result(
    result: EvaluationResult,
    method: str | None = None,
    x: Any = None,
    seconds: float | None = None,
) -> ExperimentPoint:
    """Convert an :class:`EvaluationResult` into an :class:`ExperimentPoint`."""
    details = dict(result.details)
    details.setdefault("rows_scanned", result.stats.rows_scanned)
    details.setdefault("plans_optimized", result.stats.plans_optimized)
    return ExperimentPoint(
        method=method or result.evaluator,
        x=x,
        seconds=result.elapsed_seconds if seconds is None else seconds,
        source_operators=result.stats.source_operators,
        source_queries=result.stats.source_queries,
        answers=len(result.answers),
        reformulations=result.stats.reformulations,
        details=details,
    )


def run_methods(
    methods: Sequence[str],
    query: TargetQuery,
    scenario: MatchingScenario,
    x: Any = None,
    **options: Any,
) -> list[ExperimentPoint]:
    """Run several methods on the same query and scenario."""
    return [run_method(method, query, scenario, x=x, **options) for method in methods]


def run_engines(
    methods: Sequence[str],
    engines: Sequence[str],
    query: TargetQuery,
    scenario: MatchingScenario,
    x: Any = None,
    **options: Any,
) -> list[ExperimentPoint]:
    """Run each method under each execution engine on the same query.

    The engine becomes part of the reported method label (``method@engine``)
    so a series carries the engine dimension through the standard reporting
    tables; ``point.details["engine"]`` holds it separately as well.
    """
    points = []
    for engine in engines:
        for method in methods:
            point = run_method(method, query, scenario, x=x, engine=engine, **options)
            point.method = f"{method}@{engine}"
            points.append(point)
    return points


def run_optimizer_modes(
    methods: Sequence[str],
    query: TargetQuery,
    scenario: MatchingScenario,
    x: Any = None,
    **options: Any,
) -> list[ExperimentPoint]:
    """Run each method with the cost-based optimizer on and off.

    The mode becomes part of the reported method label (``method@opt`` /
    ``method@raw``) so a series carries the optimizer dimension through the
    standard reporting tables; ``point.details["optimize"]`` holds it
    separately as well.
    """
    points = []
    for optimize, suffix in ((True, "opt"), (False, "raw")):
        for method in methods:
            point = run_method(
                method, query, scenario, x=x, optimize=optimize, **options
            )
            point.method = f"{method}@{suffix}"
            points.append(point)
    return points


def _batch_point(batch, method: str, x: Any, seconds: float | None = None) -> ExperimentPoint:
    """Turn a :class:`BatchResult` into an :class:`ExperimentPoint`.

    Shared by :func:`run_workload` and :func:`run_session` so workload-point
    details (plan-cache snapshot, operators saved) never diverge between the
    two point kinds.
    """
    details = dict(batch.details)
    details["plan_cache"] = dict(batch.plan_cache)
    details["operators_saved"] = batch.stats.operators_saved
    details["plan_cache_hits"] = batch.stats.plan_cache_hits
    return ExperimentPoint(
        method=method,
        x=x,
        seconds=batch.total_seconds if seconds is None else seconds,
        source_operators=batch.stats.source_operators,
        source_queries=batch.stats.source_queries,
        answers=sum(len(result.answers) for result in batch.results),
        reformulations=batch.stats.reformulations,
        details=details,
    )


def run_workload(
    queries: Sequence[TargetQuery],
    scenario: MatchingScenario,
    x: Any = None,
    **options: Any,
) -> ExperimentPoint:
    """Run a whole workload through ``query_many`` as one measured point.

    The point's aggregate counters cover the entire workload; the plan-cache
    snapshot and workload-level details land in ``point.details``.  Seconds
    are the phase-time sum, the same basis :func:`point_from_result` uses, so
    batch points are comparable with per-query method points.
    """
    with _session(scenario, "batch", options, pools=default_manager()) as session:
        batch = session.query_many(queries)
    return _batch_point(batch, method="batch", x=x)


def run_session(
    queries: Sequence[TargetQuery],
    scenario: MatchingScenario,
    passes: int = 2,
    x: Any = None,
    **options: Any,
) -> list[ExperimentPoint]:
    """Run a workload repeatedly through ONE warm session, one point per pass.

    This is the serving regime the session-first API exists for: the first
    pass pays for reformulation, planning and materialization; later passes
    are answered from the session's plan cache and optimizer memo.  Each
    pass becomes a point labelled ``session[p]`` (``p`` starting at 1) whose
    counters cover that pass only, so a series directly shows the warm-up
    curve; ``point.details["session"]`` carries the session-lifetime
    snapshot as of that pass.
    """
    if passes <= 0:
        raise ValueError("passes must be positive")
    points: list[ExperimentPoint] = []
    with _session(scenario, "batch", options) as session:
        for number in range(1, passes + 1):
            started = time.perf_counter()
            batch = session.query_many(queries)
            elapsed = time.perf_counter() - started
            point = _batch_point(
                batch, method=f"session[{number}]", x=x, seconds=elapsed
            )
            point.details["session"] = session.stats.snapshot()
            points.append(point)
    return points


# --------------------------------------------------------------------------- #
# perf artifacts
# --------------------------------------------------------------------------- #
def write_series_artifact(
    name: str,
    series: ExperimentSeries | Sequence[ExperimentSeries],
    gates: dict[str, Any] | None = None,
    root: Any = None,
    **extra: Any,
) -> Any:
    """Emit ``BENCH_<name>.json`` for one or more measured series.

    The benchmark scripts call this after their gates pass, so every
    CI-gated run leaves a machine-readable record
    (:mod:`repro.obs.artifacts` shapes the envelope).  ``gates`` records the
    thresholds the run was checked against; ``extra`` sections (scenario
    parameters, environment notes) are forwarded verbatim.  Returns the
    written path.
    """
    if isinstance(series, ExperimentSeries):
        payload: dict[str, Any] = {"series": series_payload(series)}
    else:
        payload = {"series": [series_payload(one) for one in series]}
    if gates is not None:
        payload["gates"] = gates
    payload.update(extra)
    return write_bench_artifact(name, payload, root=root)


# --------------------------------------------------------------------------- #
# parameter sweeps
# --------------------------------------------------------------------------- #
def sweep_mapping_count(
    methods: Sequence[str],
    query: TargetQuery,
    scenario: MatchingScenario,
    h_values: Iterable[int],
    title: str = "time vs number of mappings",
    **options: Any,
) -> ExperimentSeries:
    """Figure 10(c) / 11(c) style sweep: vary the number of possible mappings."""
    series = ExperimentSeries(title=title, x_label="mappings")
    for h in h_values:
        restricted = scenario.with_mappings(min(h, scenario.h))
        for point in run_methods(methods, query, restricted, x=h, **options):
            series.add(point)
    return series


def sweep_database_size(
    methods: Sequence[str],
    query_builder: Callable[[MatchingScenario], TargetQuery],
    scenario: MatchingScenario,
    paper_mbs: Iterable[float],
    calibration: float = PAPER_MB_SCALE,
    seed: int = 7,
    title: str = "time vs database size",
    **options: Any,
) -> ExperimentSeries:
    """Figure 10(b) / 11(b) style sweep: vary the source-instance size.

    ``paper_mbs`` are the axis labels of the paper's figure (20..100 MB); each
    is converted into a generator scale with :func:`mb_to_scale`.
    """
    series = ExperimentSeries(title=title, x_label="database size (MB)")
    for paper_mb in paper_mbs:
        scale = mb_to_scale(paper_mb, calibration)
        database = generate_source_instance(scale=scale, config=GeneratorConfig(seed=seed))
        sized = scenario.with_database(database, scale)
        query = query_builder(sized)
        for point in run_methods(methods, query, sized, x=paper_mb, **options):
            series.add(point)
    return series


def sweep_queries(
    methods: Sequence[str],
    query_ids: Sequence[str],
    scenarios: dict[str, MatchingScenario],
    title: str = "time per query",
    **options: Any,
) -> ExperimentSeries:
    """Figure 10(a) / 11(a) style sweep: one point per Table III query.

    ``scenarios`` maps a target schema name to the scenario to use for the
    queries defined on that schema.
    """
    from repro.workloads.queries import PAPER_QUERIES

    series = ExperimentSeries(title=title, x_label="query")
    for query_id in query_ids:
        spec = PAPER_QUERIES[query_id.upper()]
        scenario = scenarios[spec.target]
        query = spec.build(scenario.target_schema)
        for point in run_methods(methods, query, scenario, x=spec.query_id, **options):
            series.add(point)
    return series
