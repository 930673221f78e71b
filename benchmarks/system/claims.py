"""The system's own claims, one row per subsystem.

The rows use the paper table's :class:`~paper.claims.Claim`, :class:`Gate`
and :class:`Term` (``benchmarks/paper/claims.py``), and ``run.py`` checks
them with the paper runner's gate evaluator.  A row's ``measure(claim,
build)`` runs its experiment and returns ``{(method, x): {metric: value}}``;
a method may be recorded at only some axis points, and its gates then read
those points by name.  A check that is not a number (byte-identical
answers, a dense ``seq``, a parsed Prometheus line) is a 0/1 metric gated
``== 1``.  Wall-clock gates compare two regimes measured in the same run.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from contextlib import contextmanager

from paper.claims import EVERY, LARGEST, SMALLEST, TOTAL, Claim, Gate, Term

from repro import ExecutionPolicy, Session, connect
from repro.bench import cold_query
from repro.core.answer import _sort_key
from repro.core.target_query import TargetQuery
from repro.datagen.paper_example import build_paper_example
from repro.relational.algebra import Project, Scan
from repro.relational.expressions import col
from repro.relational.parallel import ParallelConfig, available_cpus, default_manager
from repro.relational.stats import ExecutionStats
from repro.relational.vector import numpy_available
from repro.serving import ReproServer, ServingClient, TenantQuota, TenantSpec
from repro.serving.tenants import serial_replay
from repro.workloads.queries import PAPER_QUERIES

#: The paper's running example (Figs. 1-3): five mappings, a few rows.
EXAMPLE = ("paper example", 5, 0.0)

#: Each Excel query of Table III, repeated as serving traffic repeats it.
WORKLOAD = ("Q1", "Q2", "Q3", "Q4", "Q5") * 4
WORKLOAD_LABEL = "Q1-Q5 x 4"


def ops(method: str, at=EVERY) -> Term:
    return Term(method, "source_operators", at)


def secs(method: str, at=EVERY) -> Term:
    return Term(method, "seconds", at)


def is_one(method: str, metric: str, at=EVERY) -> Gate:
    """A 0/1 check that must hold."""
    return Gate(Term(method, metric, at), "==", 1)


def same_tuples(a, b) -> int:
    """1 when two answer sets hold the same tuples with the same floats."""
    return int(dict(a.items()) == dict(b.items()))


def same_answers(a, b) -> int:
    """1 when two results' answers are byte-identical, empty-answer mass included."""
    return int(
        same_tuples(a.answers, b.answers)
        and a.answers.empty_probability == b.answers.empty_probability
    )


def best_of(rounds: int, run):
    """The fastest of ``rounds`` timed calls of ``run()``, and the last result."""
    best, result = None, None
    for _ in range(rounds):
        started = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _workload(scenario) -> list:
    return [PAPER_QUERIES[qid].build(scenario.target_schema) for qid in WORKLOAD]


def _session(source, pools=None, **policy_fields) -> Session:
    """A fresh session over a scenario or the paper example."""
    return Session(source.database, source.mappings, links=source.links,
                   policy=ExecutionPolicy(**policy_fields), pools=pools)


# --------------------------------------------------------------------------- #
# batch workload: query_many vs independent evaluations
# --------------------------------------------------------------------------- #
def measure_batch(claim: Claim, build) -> dict:
    scenario = build(*claim.scenario)
    queries = _workload(scenario)
    independent = [cold_query(query, scenario, method="e-mqo") for query in queries]
    with connect(scenario, pools=default_manager()) as session:
        batch = session.query_many(queries)
    (x,) = claim.values
    return {
        ("independent", x): {
            "queries": len(queries),
            "seconds": sum(result.elapsed_seconds for result in independent),
            "source_operators": sum(r.stats.source_operators for r in independent),
            "reformulations": sum(r.stats.reformulations for r in independent),
        },
        ("query_many", x): {
            "queries": len(queries),
            "seconds": batch.total_seconds,
            "source_operators": batch.source_operators,
            "reformulations": batch.stats.reformulations,
            "plan_cache_hits": batch.plan_cache["hits"],
            "answers_equal": int(all(
                single.answers.equals(shared.answers)
                for single, shared in zip(independent, batch.results)
            )),
        },
    }


# --------------------------------------------------------------------------- #
# session reuse: one warm session vs a fresh session per pass
# --------------------------------------------------------------------------- #
def measure_session_reuse(claim: Claim, build) -> dict:
    scenario = build(*claim.scenario)
    queries = _workload(scenario)

    def passes(n: int) -> list:
        with _session(scenario, method="batch") as s:
            return [s.query_many(queries) for _ in range(n)]

    cold = [passes(1)[0] for _ in claim.values]
    warm = passes(len(claim.values))
    points = {}
    for x, cold_batch, warm_batch in zip(claim.values, cold, warm):
        points["cold", x] = {
            "queries": len(queries),
            "seconds": cold_batch.total_seconds,
            "source_operators": cold_batch.source_operators,
        }
        points["warm", x] = {
            "queries": len(queries),
            "seconds": warm_batch.total_seconds,
            "source_operators": warm_batch.source_operators,
            "plan_cache_hits": warm_batch.stats.plan_cache_hits,
            "answers_identical": int(all(
                same_answers(one, two)
                for one, two in zip(cold_batch.results, warm_batch.results)
            )),
        }
    return points


# --------------------------------------------------------------------------- #
# warm writes: plan-cache patching vs cold recomputation
# --------------------------------------------------------------------------- #
#: Interleaved one-row appends the warm session absorbs.
K_WRITES = 6
#: The axis points after at least one write.
WRITES = tuple(range(1, K_WRITES + 1))
#: The relation every append writes.
WRITTEN = "Customer"


def _appended_row(i: int) -> tuple:
    """A Customer row (cid, cname, ophone, hphone, mobile, oaddr, haddr, nid)."""
    return (100 + i, f"W{i}", "123", "789", "555", f"w{i}", "hk", 1)


def _probes(example) -> list:
    """The repeated probe workload (monotone plans over Customer)."""
    return [example.q0(), example.q_phone_by_addr()]


def _cache_state(database) -> tuple[dict, int, int]:
    """Cached indexes and column profiles by ``(kind, relation, column)``,
    plus the index-build and profiling-pass counters."""
    entries = {("index", *key): e for key, e in database.index_catalog._indexes.items()}
    entries.update((("profile", *key), e) for key, e in database.stats_catalog._columns.items())
    return entries, database.index_catalog.builds, database.stats_catalog.collections


def _rebuild_traffic(before_state, after_state) -> dict:
    """The index builds and profiling passes one write caused.

    Each is capped by what the written relation had cached before: one
    rebuild per cached index and per profiled column at most.  An entry of
    any other relation whose object changed was rebuilt without need.
    """
    before, builds, collections = before_state
    after, builds_after, collections_after = after_state
    return {
        "index_builds": builds_after - builds,
        "cached_indexes": sum(1 for k, r, _ in before if k == "index" and r == WRITTEN),
        "profiles": collections_after - collections,
        "profiled_columns": sum(1 for k, r, _ in before if k == "profile" and r == WRITTEN),
        "other_relations_rebuilt": sum(
            1 for key, entry in after.items() if key[1] != WRITTEN and before.get(key) is not entry
        ),
    }


def measure_warm_writes(claim: Claim, build) -> dict:
    points = {}
    # cold: every checkpoint recomputes from scratch on a fresh copy
    cold_answers = {}
    for k in claim.values:
        replay = build_paper_example()
        replay.database.relation(WRITTEN).append_rows([_appended_row(i) for i in range(k)])
        started = time.perf_counter()
        results = [cold_query(probe, replay, method="e-mqo") for probe in _probes(replay)]
        points["cold", k] = {
            "seconds": time.perf_counter() - started,
            "source_operators": sum(r.stats.source_operators for r in results),
        }
        cold_answers[k] = results

    # warm: one session absorbs the appends in place
    example = build_paper_example()
    database = example.database
    traced = 0
    with _session(example, method="e-mqo") as session:
        for k in claim.values:
            cached = _cache_state(database)
            if k:
                database.append_rows(WRITTEN, [_appended_row(k - 1)])
            before = session.stats.totals.source_operators
            started = time.perf_counter()
            results = [session.query(probe) for probe in _probes(example)]
            point = {
                "seconds": time.perf_counter() - started,
                "source_operators": session.stats.totals.source_operators - before,
                "answers_identical": int(all(
                    same_answers(warm, cold) for warm, cold in zip(results, cold_answers[k])
                )),
                "entries_patched": session.stats.snapshot()["entries_patched"],
            }
            if k:
                point.update(_rebuild_traffic(cached, _cache_state(database)))
                traced += 1
            point["writes_traced"] = traced
            points["warm", k] = point

    # a probe that reads only C_Order, repeated across the writes to Customer:
    # at 0 writes its warm repeat cost, then its cost after each write
    example = build_paper_example()
    probe = TargetQuery(Project(Scan("Order"), [col("total")]), example.target_schema,
                        name="q-order-total")
    with _session(example, method="e-mqo") as session:
        session.query(probe)
        for k in claim.values:
            if k:
                example.database.append_rows(WRITTEN, [_appended_row(90 + k)])
            before = session.stats.totals.source_operators
            session.query(probe)
            points["order-probe", k] = {
                "source_operators": session.stats.totals.source_operators - before
            }
    return points


# --------------------------------------------------------------------------- #
# engines: columnar vs row, vector vs columnar, parallel vs columnar
# --------------------------------------------------------------------------- #
def _engine_points(claim: Claim, scenario, x, method: str, rounds: int) -> dict:
    """Best-of-``rounds`` cold Q4 per engine; every engine checked against the first.

    ``optimize=False``: the engines must execute the reformulated plans
    verbatim, since the optimizer erases most of the sweep work that
    separates them.
    """
    query = PAPER_QUERIES[claim.query].build(scenario.target_schema)
    points, reference = {}, None
    for label, (_, options) in claim.methods.items():
        seconds, result = best_of(rounds, lambda: cold_query(
            query, scenario, method=method, optimize=False, **options))
        point = {
            "seconds": seconds,
            "source_operators": result.stats.source_operators,
            "rows_scanned": result.stats.rows_scanned,
            "rows_output": result.stats.rows_output,
        }
        if reference is None:
            reference = (seconds, result)
        else:
            point.update(
                answers_identical=same_answers(result, reference[1]),
                operators_identical=int(
                    dict(result.stats.operators) == dict(reference[1].stats.operators)
                ),
                speedup=reference[0] / seconds,
            )
        points[label, x] = point
    return points


def measure_engines(claim: Claim, build) -> dict:
    """One evaluator per axis point over the row's scenario."""
    scenario = build(*claim.scenario)
    points = {}
    for method in claim.values:
        points.update(_engine_points(claim, scenario, method, method, rounds=3))
    return points


#: best-of rounds per vector scale: fewer where columnar runs for tens of
#: seconds (its variance there is far below the 2x gate's margin)
VECTOR_ROUNDS = {0.02: 3, 0.04: 2, 0.06: 1}


def measure_vector(claim: Claim, build) -> dict:
    """e-basic at every scale of the ladder."""
    target, h, _ = claim.scenario
    points = {}
    for scale in claim.values:
        points.update(_engine_points(claim, build(target, h, scale), scale, "e-basic",
                                     rounds=VECTOR_ROUNDS[scale]))
    return points


def _engine_gates(engine: str) -> tuple[Gate, ...]:
    """Byte-identical answers and identical work accounting at every point."""
    reference = "row" if engine == "columnar" else "columnar"
    return (
        is_one(engine, "answers_identical"),
        is_one(engine, "operators_identical"),
        Gate(Term(engine, "rows_scanned"), "==", Term(reference, "rows_scanned")),
        Gate(Term(engine, "rows_output"), "==", Term(reference, "rows_output")),
    )


ENGINE_METRICS = (
    "seconds", "source_operators", "rows_scanned", "rows_output",
    "answers_identical", "operators_identical", "speedup",
)

#: Worker threads of the parallel row, and the cores below which a >1.5x
#: speedup of pure-Python morsels over serial is not physically plausible.
PARALLEL_WORKERS = max(4, available_cpus())
PARALLEL_CORES = 4


# --------------------------------------------------------------------------- #
# observability overhead
# --------------------------------------------------------------------------- #
#: Rounds, each timing OBS_PASSES workload passes per regime (~1 s apiece).
OBS_ROUNDS = 6
OBS_PASSES = 10

#: one Prometheus text-format line: ``name{labels} value`` or ``# HELP/TYPE``
_PROM_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.eE+-]+(inf|nan)?)$"
)


def _count_operator(self, name, rows_in=0, rows_out=0):
    """``ExecutionStats.count_operator`` before tracing and metrics existed."""
    self.operators[name] += 1
    self.source_operators += 1
    self.rows_scanned += rows_in
    self.rows_output += rows_out


@contextmanager
def _phase(self, name):
    """``ExecutionStats.phase`` before tracing and metrics existed."""
    started = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - started
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed


@contextmanager
def _stats_hooks(baseline: bool):
    """``ExecutionStats`` with its pre-observability hooks, or its own.

    The baseline runs ``count_operator`` and ``phase`` as they were before
    tracing and metrics existed (no ambient-tracer read at all): the engine
    the disabled path is gated against.  The other regimes reinstall their
    own hooks, because assigning to a class drops the interpreter's
    specialisations for it: every regime then starts a pass alike.
    """
    hooks = ExecutionStats.count_operator, ExecutionStats.phase
    ExecutionStats.count_operator, ExecutionStats.phase = (
        (_count_operator, _phase) if baseline else hooks
    )
    try:
        yield
    finally:
        ExecutionStats.count_operator, ExecutionStats.phase = hooks


def _export_checks(scenario, queries) -> dict:
    """A traced session's Prometheus text, Chrome trace and span export, checked."""
    with _session(scenario, method="batch", trace=True) as session:
        session.query_many(queries)
        prometheus = session.metrics().to_prometheus()
        try:
            events = json.loads(session.tracer.chrome_trace())["traceEvents"]
            round_trips = 1
        except (ValueError, KeyError):
            events, round_trips = [], 0
        spans = [json.loads(line) for line in session.tracer.export_jsonl().splitlines()]
    return {
        "prometheus_lines_parse": int(all(
            _PROM_LINE.match(line) for line in prometheus.strip().splitlines()
        )),
        "stage_histogram_exported": int("repro_stage_seconds_bucket" in prometheus),
        "pool_depth_exported": int("repro_pool_queue_depth" in prometheus),
        "chrome_trace_round_trips": round_trips,
        "chrome_events": len(events),
        "chrome_complete_events_only": int({event["ph"] for event in events} == {"X"}),
        "operator_spans": sum(1 for span in spans if span["name"].startswith("op:")),
    }


def measure_observability(claim: Claim, build) -> dict:
    scenario = build(*claim.scenario)
    queries = _workload(scenario)

    def run(regime: str):
        """One workload pass through a fresh session: (seconds, batch)."""
        on = regime == "on"
        with _stats_hooks(baseline=regime == "baseline"):
            started = time.perf_counter()
            with _session(scenario, method="batch", trace=on, metrics=on) as session:
                batch = session.query_many(queries)
            return time.perf_counter() - started, batch

    # a round runs every regime OBS_PASSES times, interleaved pass by pass in
    # rotating order, so drift of the machine hits all regimes alike; each
    # regime keeps its fastest round
    regimes = list(claim.methods)
    best, batches = {}, {}
    for _ in range(OBS_ROUNDS):
        total = dict.fromkeys(regimes, 0.0)
        for i in range(OBS_PASSES):
            for regime in regimes[i % 3:] + regimes[:i % 3]:
                seconds, batches[regime] = run(regime)
                total[regime] += seconds
        for regime, seconds in total.items():
            best[regime] = min(seconds, best.get(regime, seconds))

    (x,) = claim.values
    reference = batches["baseline"]
    overhead_vs = {"baseline": "baseline", "off": "baseline", "on": "off"}
    points = {}
    for regime, batch in batches.items():
        points[regime, x] = {
            "queries": len(queries),
            "seconds": best[regime],
            "overhead": best[regime] / best[overhead_vs[regime]],
            "source_operators": batch.stats.source_operators,
            "rows_scanned": batch.stats.rows_scanned,
            "answers_identical": int(all(
                same_answers(one, two) for one, two in zip(batch.results, reference.results)
            )),
            "operators_identical": int(
                dict(batch.stats.operators) == dict(reference.stats.operators)
            ),
        }
    points["on", x].update(_export_checks(scenario, queries))
    return points


# --------------------------------------------------------------------------- #
# anytime and budgeted top-k
# --------------------------------------------------------------------------- #
TOP_K = 5


def _exact_ranking(result) -> list:
    return [
        values for values, _ in sorted(
            result.answers.items(), key=lambda item: (-item[1], _sort_key(item[0]))
        )
    ]


def measure_anytime(claim: Claim, build) -> dict:
    scenario = build(*claim.scenario)

    def session(**policy_fields) -> Session:
        return _session(scenario, pools=default_manager(), **policy_fields)

    points = {}
    for query_id in claim.values:
        query = PAPER_QUERIES[query_id].build(scenario.target_schema)
        with session(method="o-sharing") as s:
            started = time.perf_counter()
            exact = s.query(query)
            exact_seconds = time.perf_counter() - started
        # a full drain through the anytime evaluator: exact, with the
        # interval ranking exercised, and the mapping charge of the query
        with session() as s:
            drained = s.query(query, budget={})
        full_charge = (drained.details["mappings_evaluated"]
                       - drained.details["representative_mappings"])
        # half the full charge: strictly fewer operators
        budget = {"mapping_limit": max(0, full_charge // 2)}
        with session() as s:
            started = time.perf_counter()
            partial = s.query(query, budget=budget)
            partial_seconds = time.perf_counter() - started
        ranking = [interval.values for interval in partial.intervals]
        # resumed to completion in quarter-size e-unit steps (an e-unit
        # budget always progresses); the cap turns a stall into a failed gate
        full_eunits = drained.details["units_created"] - 1  # the root is budget-free
        step_budget = {"eunit_limit": max(1, full_eunits // 4)}
        cap, steps, monotone = full_eunits + 1, 0, True
        with session() as s:
            resumed = s.query(query, budget={"mapping_limit": 0})
            while not resumed.exhausted and steps <= cap:
                mass = resumed.unexplored_mass
                resumed = resumed.resume(budget=step_budget)
                monotone = monotone and resumed.unexplored_mass <= mass
                steps += 1
        # top-k under the same mapping budget per step, resumed until final
        with session() as s:
            top_k = s.top_k(query, k=TOP_K)
        with session() as s:
            partial_k = s.top_k(query, k=TOP_K, budget=budget)
        resumed_k, steps_k, cap_k = partial_k, 0, top_k.details["units_created"]
        while not resumed_k.converged and steps_k <= cap_k:
            resumed_k = resumed_k.resume(budget=budget)
            steps_k += 1

        points.update({
            ("exact", query_id): {
                "seconds": exact_seconds, "source_operators": exact.stats.source_operators,
            },
            ("drained", query_id): {
                "source_operators": drained.stats.source_operators,
                "exhausted": int(drained.exhausted),
                "converged": int(drained.converged),
                "answers_identical": same_tuples(drained.answers, exact.answers),
                "ranking_exact": int(
                    [interval.values for interval in drained.intervals] == _exact_ranking(exact)
                ),
            },
            ("budgeted", query_id): {
                "seconds": partial_seconds,
                "source_operators": partial.stats.source_operators,
                "unexplored_mass": partial.unexplored_mass,
                "converged": int(partial.converged),
                "ranking_agrees": int(
                    not partial.converged or ranking == _exact_ranking(exact)[: len(ranking)]
                ),
            },
            ("resumed", query_id): {
                "source_operators": resumed.stats.source_operators,
                "resume_steps": steps,
                "step_cap": cap,
                "mass_monotone": int(monotone),
                "converged": int(resumed.converged),
                "answers_identical": same_tuples(resumed.answers, exact.answers),
                "repr_identical": int(repr(resumed.answers) == repr(exact.answers)),
            },
            ("top-k", query_id): {"source_operators": top_k.stats.source_operators},
            ("budgeted top-k", query_id): {"source_operators": partial_k.stats.source_operators},
            ("resumed top-k", query_id): {
                "source_operators": resumed_k.stats.source_operators,
                "resume_steps": steps_k,
                "step_cap": cap_k,
                "repr_identical": int(repr(resumed_k.answers) == repr(top_k.answers)),
            },
        })
    return points


# --------------------------------------------------------------------------- #
# serving load
# --------------------------------------------------------------------------- #
#: Per-tenant request scripts (catalog names), cycled by every client.
SCRIPTS = {
    "excel": ["q0", "q1", "q0", "q_phone"],
    "noris": ["q1", "q2", "q1"],
    "sales": ["q2", "q0", "q2", "q2", "q_phone"],
}
CLIENTS_PER_TENANT = 3
SERVING_ROUNDS = 4
STORM = ("stormy",)
STORM_BURST = 64


def _spec(name: str, quota: TenantQuota | None = None) -> TenantSpec:
    example = build_paper_example()
    return TenantSpec(
        name=name,
        database=example.database,
        mappings=example.mappings,
        links=example.links,
        # e-mqo keeps the per-tenant plan cache in play
        policy=ExecutionPolicy(method="e-mqo"),
        catalog={"q0": example.q0(), "q1": example.q1(), "q2": example.q2(),
                 "q_phone": example.q_phone_by_addr()},
        quota=quota if quota is not None else TenantQuota(queue_limit=64),
    )


async def _warm_client(server, tenant: str, script) -> list:
    """One client: sequential request/response, each request's latency taped."""
    client = await ServingClient.connect(*server.address)
    transcript = []
    try:
        for _ in range(SERVING_ROUNDS):
            for query in script:
                started = time.perf_counter()
                response = await client.query(tenant, query)
                latency = time.perf_counter() - started
                request = {"op": "query", "tenant": tenant, "query": query}
                transcript.append((request, response, client.frames[response["id"]], latency))
        return transcript
    finally:
        await client.close()


async def _warm_phase():
    async with ReproServer([_spec(name) for name in SCRIPTS]) as server:
        transcripts = await asyncio.gather(*(
            _warm_client(server, tenant, script)
            for tenant, script in SCRIPTS.items()
            for _ in range(CLIENTS_PER_TENANT)
        ))
        caches = {name: tenant.session.stats.plan_cache for name, tenant in server.tenants.items()}
    return [entry for transcript in transcripts for entry in transcript], caches


async def _storm_phase():
    (tenant,) = STORM
    async with ReproServer([_spec(tenant, quota=TenantQuota(queue_limit=2))]) as server:
        client = await ServingClient.connect(*server.address)
        try:
            futures = [await client.send("query", tenant=tenant, query="q0")
                       for _ in range(STORM_BURST)]
            responses = [await future for future in futures]
            health = await client.healthz()
        finally:
            await client.close()
    return responses, health


def _percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))]


def measure_serving(claim: Claim, build) -> dict:
    """9 concurrent TCP clients over 3 tenants, then an over-quota burst."""
    entries, caches = asyncio.run(_warm_phase())
    points = {}
    for name in SCRIPTS:
        mine = sorted((e for e in entries if e[0]["tenant"] == name),
                      key=lambda e: e[1].get("seq", 0))
        seqs = [response.get("seq") for _, response, _, _ in mine]
        requests = [{**request, "id": response["id"]} for request, response, _, _ in mine]
        latencies = [latency for *_, latency in mine]
        points["warm", name] = {
            "requests": len(mine),
            "failed": sum(1 for _, response, _, _ in mine if not response["ok"]),
            "seq_dense": int(seqs == list(range(1, len(seqs) + 1))),
            "replay_identical": int(
                [frame for _, _, frame, _ in mine] == serial_replay(_spec(name), requests)
            ),
            "plan_cache_hits": caches[name]["hits"],
            "hit_rate": caches[name]["hit_rate"],
            "p50_ms": _percentile(latencies, 0.50) * 1000,
            "p99_ms": _percentile(latencies, 0.99) * 1000,
        }
    responses, health = asyncio.run(_storm_phase())
    shed = [response for response in responses if not response["ok"]]
    points["storm", STORM[0]] = {
        "requests": len(responses),
        "served": len(responses) - len(shed),
        "shed": len(shed),
        "refusals_overloaded": int(all(r["error"]["code"] == "overloaded" for r in shed)),
        "retry_after_positive": int(all(r["error"].get("retry_after_seconds", 0) > 0 for r in shed)),
        "healthz_ok": int(health["result"]["status"] == "ok"),
    }
    return points


# --------------------------------------------------------------------------- #
# the table
# --------------------------------------------------------------------------- #
WARM_TENANTS = tuple(SCRIPTS)

CLAIMS: tuple[Claim, ...] = (
    Claim(
        id="batch-workload",
        source="query_many (repro.Session)",
        sentence=(
            "Serving a 20-query workload through one query_many call answers "
            "exactly what 20 independent e-MQO evaluations answer, with fewer "
            "source operators, fewer reformulations and less wall-clock."
        ),
        scenario=("Excel", 30, 0.02),
        axis="workload",
        values=(WORKLOAD_LABEL,),
        methods={"independent": ("e-mqo", {}), "query_many": ("batch", {})},
        gates=(
            Gate(Term("query_many", "queries"), ">=", 20),
            is_one("query_many", "answers_equal"),
            Gate(ops("query_many"), "<", ops("independent")),
            Gate(Term("query_many", "reformulations"), "<", Term("independent", "reformulations")),
            Gate(secs("query_many"), "<", secs("independent")),
        ),
        metrics=("queries", "seconds", "source_operators", "reformulations",
                 "plan_cache_hits", "answers_equal"),
        measure=measure_batch,
    ),
    Claim(
        id="session-reuse",
        source="warm repro.Session",
        sentence=(
            "A warm session serves the repeat pass of a workload from its plan "
            "cache, and over two passes executes fewer source operators than a "
            "fresh session per pass, with byte-identical answers."
        ),
        scenario=("Excel", 30, 0.02),
        axis="pass",
        values=(1, 2),
        methods={"cold": ("batch", {}), "warm": ("batch", {})},
        gates=(
            Gate(Term("warm", "queries"), "==", 20),
            is_one("warm", "answers_identical"),
            Gate(Term("warm", "plan_cache_hits", LARGEST), ">", 0),
            Gate(ops("warm", LARGEST), "<", ops("warm", SMALLEST)),
            Gate(ops("warm", TOTAL), "<", ops("cold", TOTAL)),
        ),
        metrics=("queries", "seconds", "source_operators", "plan_cache_hits",
                 "answers_identical"),
        measure=measure_session_reuse,
    ),
    Claim(
        id="warm-writes",
        source="plan-cache patching (PlanCache.apply_write)",
        sentence=(
            "A warm session absorbing one-row appends patches its plan-cache "
            "entries: it executes fewer operators than recomputing cold after "
            "every write, answers byte-identically at every checkpoint, rebuilds "
            "indexes and column profiles lazily and only for the written "
            "relation, and keeps the entries of relations it did not write."
        ),
        scenario=EXAMPLE,
        axis="writes absorbed",
        values=(0, *WRITES),
        methods={"cold": ("e-mqo", {}), "warm": ("e-mqo", {}), "order-probe": ("e-mqo", {})},
        gates=(
            is_one("warm", "answers_identical"),
            Gate(ops("warm", TOTAL), "<", ops("cold", TOTAL)),
            Gate(Term("warm", "entries_patched", LARGEST), ">", 0),
            Gate(Term("warm", "writes_traced", LARGEST), "==", K_WRITES),
            Gate(Term("warm", "index_builds", WRITES), "<=", Term("warm", "cached_indexes", WRITES)),
            Gate(Term("warm", "profiles", WRITES), "<=", Term("warm", "profiled_columns", WRITES)),
            Gate(Term("warm", "other_relations_rebuilt", WRITES), "==", 0),
            Gate(ops("order-probe", WRITES), "==", ops("order-probe", SMALLEST)),
        ),
        metrics=("seconds", "source_operators", "answers_identical", "entries_patched",
                 "writes_traced", "index_builds", "cached_indexes", "profiles",
                 "profiled_columns", "other_relations_rebuilt"),
        measure=measure_warm_writes,
    ),
    Claim(
        id="engine-columnar",
        source='engine="columnar" vs "row"',
        sentence=(
            "The columnar engine, the default, is faster than the row engine on "
            "the Fig. 11(b) setting and returns byte-identical answers with "
            "identical operator and row counts."
        ),
        scenario=("Excel", 30, 0.02),
        axis="method",
        values=("e-basic", "o-sharing"),
        methods={"row": ("engine", {"engine": "row"}),
                 "columnar": ("engine", {"engine": "columnar"})},
        gates=(
            *_engine_gates("columnar"),
            Gate(secs("columnar"), "<", secs("row")),
        ),
        metrics=ENGINE_METRICS,
        measure=measure_engines,
    ),
    *(
        (Claim(
            id="engine-vector",
            source='engine="vector" vs "columnar"',
            sentence=(
                "The NumPy vector engine returns byte-identical answers with "
                "identical operator and row counts at every size, and is at "
                "least 2x faster than columnar at the largest size."
            ),
            scenario=("Excel", 30, 0.06),
            axis="scale",
            values=tuple(VECTOR_ROUNDS),
            methods={"columnar": ("engine", {"engine": "columnar"}),
                     "vector": ("engine", {"engine": "vector"})},
            gates=(
                *_engine_gates("vector"),
                Gate(Term("vector", "speedup", LARGEST), ">=", 2.0),
            ),
            metrics=ENGINE_METRICS,
            measure=measure_vector,
        ),)
        # without NumPy the vector engine does not exist
        if numpy_available() else ()
    ),
    Claim(
        id="engine-parallel",
        source='engine="parallel" vs "columnar"',
        sentence=(
            "The threaded-morsel parallel engine returns byte-identical answers "
            "with identical operator and row counts, and on at least 4 usable "
            "cores beats serial columnar by more than 1.5x for some method."
        ),
        scenario=("Excel", 60, 0.03),
        axis="method",
        values=("e-basic", "o-sharing"),
        methods={
            "columnar": ("engine", {"engine": "columnar"}),
            "parallel": ("engine", {
                "engine": "parallel",
                "parallel": ParallelConfig(workers=PARALLEL_WORKERS, min_partition_rows=1024),
            }),
        },
        gates=(
            *_engine_gates("parallel"),
            # CPython threads cannot beat serial without real cores
            *((Gate(Term("parallel", "speedup"), ">", 1.5, share=0.5),)
              if available_cpus() >= PARALLEL_CORES else ()),
        ),
        metrics=ENGINE_METRICS,
        measure=measure_engines,
    ),
    Claim(
        id="observability",
        source="trace=True, metrics=True (repro.obs)",
        sentence=(
            "Tracing and metrics observe without changing answers or operator "
            "counts; fully on they cost at most 1.25x the off regime, off costs "
            "at most 1.05x the engine without instrumentation hooks, and the "
            "Prometheus and Chrome-trace exports are well formed."
        ),
        scenario=("Excel", 30, 0.02),
        axis="workload",
        values=(WORKLOAD_LABEL,),
        methods={"baseline": ("batch", {}), "off": ("batch", {}),
                 "on": ("batch", {"trace": True, "metrics": True})},
        gates=(
            Gate(Term("on", "queries"), "==", 20),
            *(
                gate
                for regime in ("off", "on")
                for gate in (
                    is_one(regime, "answers_identical"),
                    is_one(regime, "operators_identical"),
                    Gate(ops(regime), "==", ops("baseline")),
                    Gate(Term(regime, "rows_scanned"), "==", Term("baseline", "rows_scanned")),
                )
            ),
            Gate(Term("on", "overhead"), "<=", 1.25),
            Gate(Term("off", "overhead"), "<=", 1.05),
            is_one("on", "prometheus_lines_parse"),
            is_one("on", "stage_histogram_exported"),
            is_one("on", "pool_depth_exported"),
            is_one("on", "chrome_trace_round_trips"),
            Gate(Term("on", "chrome_events"), ">", 0),
            is_one("on", "chrome_complete_events_only"),
            Gate(Term("on", "operator_spans"), ">", 0),
        ),
        metrics=("queries", "seconds", "overhead", "source_operators", "rows_scanned",
                 "answers_identical", "operators_identical", "prometheus_lines_parse",
                 "stage_histogram_exported", "pool_depth_exported",
                 "chrome_trace_round_trips", "chrome_events",
                 "chrome_complete_events_only", "operator_spans"),
        measure=measure_observability,
    ),
    Claim(
        id="anytime",
        source="Session.query(budget=...), Session.top_k(budget=...)",
        sentence=(
            "A mapping-budgeted query executes fewer operators than exact "
            "o-sharing, and resuming it to completion answers byte-identically "
            "at exactly the exact operator count; a budgeted top-k executes no "
            "more than unbudgeted top-k and resumes to its answer at its cost."
        ),
        scenario=("Excel", 60, 0.03),
        axis="query",
        values=("Q1", "Q2", "Q3", "Q4", "Q5"),
        methods={
            "exact": ("o-sharing", {}),
            "drained": ("anytime", {"budget": {}}),
            "budgeted": ("anytime", {"budget": "half the mapping charge"}),
            "resumed": ("anytime", {"resume": "quarter e-unit steps"}),
            "top-k": ("top-k", {"k": TOP_K}),
            "budgeted top-k": ("top-k", {"k": TOP_K, "budget": "half the mapping charge"}),
            "resumed top-k": ("top-k", {"k": TOP_K, "resume": "same budget per step"}),
        },
        gates=(
            is_one("drained", "exhausted"),
            is_one("drained", "converged"),
            is_one("drained", "answers_identical"),
            is_one("drained", "ranking_exact"),
            Gate(ops("budgeted"), "<", ops("exact")),
            is_one("budgeted", "ranking_agrees"),
            is_one("resumed", "mass_monotone"),
            Gate(Term("resumed", "resume_steps"), "<=", Term("resumed", "step_cap")),
            is_one("resumed", "converged"),
            is_one("resumed", "answers_identical"),
            is_one("resumed", "repr_identical"),
            Gate(ops("resumed"), "==", ops("exact")),
            Gate(ops("budgeted top-k"), "<=", ops("top-k")),
            Gate(Term("resumed top-k", "resume_steps"), "<=", Term("resumed top-k", "step_cap")),
            is_one("resumed top-k", "repr_identical"),
            Gate(ops("resumed top-k"), "==", ops("top-k")),
        ),
        metrics=("seconds", "source_operators", "exhausted", "converged", "unexplored_mass",
                 "answers_identical", "ranking_exact", "ranking_agrees", "resume_steps",
                 "step_cap", "mass_monotone", "repr_identical"),
        measure=measure_anytime,
    ),
    Claim(
        id="serving-load",
        source="ReproServer over localhost TCP",
        sentence=(
            "Under 9 concurrent clients over 3 tenants every response frame is "
            "byte-identical to a serial replay in seq order and every tenant's "
            "plan cache stays warm; an over-quota burst is shed with structured "
            "overloaded refusals while the server stays healthy."
        ),
        scenario=EXAMPLE,
        axis="tenant",
        values=(*WARM_TENANTS, *STORM),
        methods={"warm": ("e-mqo", {"clients": CLIENTS_PER_TENANT, "rounds": SERVING_ROUNDS}),
                 "storm": ("e-mqo", {"queue_limit": 2, "burst": STORM_BURST})},
        gates=(
            Gate(Term("warm", "failed", WARM_TENANTS), "==", 0),
            is_one("warm", "seq_dense", WARM_TENANTS),
            is_one("warm", "replay_identical", WARM_TENANTS),
            Gate(Term("warm", "plan_cache_hits", WARM_TENANTS), ">", 0),
            Gate(Term("warm", "hit_rate", WARM_TENANTS), ">=", 0.2),
            Gate(Term("storm", "shed", STORM), ">", 0),
            is_one("storm", "refusals_overloaded", STORM),
            is_one("storm", "retry_after_positive", STORM),
            is_one("storm", "healthz_ok", STORM),
        ),
        metrics=("requests", "failed", "seq_dense", "replay_identical", "plan_cache_hits",
                 "hit_rate", "p50_ms", "p99_ms", "served", "shed", "refusals_overloaded",
                 "retry_after_positive", "healthz_ok"),
        measure=measure_serving,
    ),
)
