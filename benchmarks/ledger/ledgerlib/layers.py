"""The traced run: benchmark-owned spans around every layer -> per-layer metrics.

Layers are measured from outside.  ``Spans`` records name, start, end, parent
and a shared query id for every call the benchmark makes into a layer's public
functions; counters are read from the ``ExecutionStats``/``SessionStats`` the
public API already returns.  The run has six parts:

1. set-up stages (generator, matcher + k-best, session open, server start);
2. warm rounds with tracing off and with ``ExecutionPolicy(trace=True)`` -
   their ratio is ``obs.trace_overhead_ratio``; the sessions' own span trees
   are adopted under the round spans; one more traced round gives the counts;
3. the *layer drill*: the e-basic pipeline of every (scenario, query) walked
   through ``partition``/``reformulate_query``/``Optimizer``/``Executor`` (one
   pass per available engine)/``extract_answers``;
4. *evaluator probes*: every evaluation method called whole on every query,
   split by the phases its ``result.stats`` reports;
5. a write probe (``Database.append_rows``/``delete_rows`` under warm caches);
6. a wire probe (protocol, in-process tenant, one and two clients over TCP).

Parts 3-6 run on the workload's own scenarios and policy on every workload, so
every per-layer metric is a measurement everywhere; which of them a workload's
end-to-end numbers actually depend on is the README's interaction table.
Counts are taken over exactly one round (or one drill), so they repeat exactly
for a fixed seed on the in-process workloads.
"""

from __future__ import annotations

import asyncio
import json
import random
from collections import Counter
from contextlib import contextmanager
from statistics import median
from time import perf_counter

from ledgerlib.phases import op_table, timed_rounds
from ledgerlib.workloads import (
    DATA_SEED,
    QUEUE_LIMIT,
    WRITE_RELATION,
    ScenarioSpec,
    WorkloadSpec,
    build,
    one_cpu,
    open_workload,
    write_rows,
)
from repro import ExecutionPolicy
from repro.core import ProbabilisticAnswer, extract_answers, partition, reformulate_query, represent
from repro.core.reformulation import UnmatchedAttributeError
from repro.datagen.generator import GeneratorConfig, generate_source_instance
from repro.relational import ExecutionStats, Executor
from repro.relational.executor import available_engines
from repro.relational.optimizer import Optimizer
from repro.serving import (
    ReproServer,
    ServingClient,
    Tenant,
    TenantQuota,
    TenantSpec,
    encode_response,
    parse_request,
)

METHODS = ("e-basic", "q-sharing", "e-mqo", "o-sharing", "top-k", "anytime", "batch")
OPERATORS = ("Scan", "Select", "Product", "Join", "Project", "Aggregate")
PROBE_K = 5
PROBE_MAPPING_LIMIT = 20
PROBE_REPEATS = 3
PROBE_REPEAT_BELOW_S = 0.1
#: Engine/plan pairs predicted slower than this are skipped by the drill.
DRILL_PAIR_LIMIT_S = 5.0
WRITE_LOOPS = 3
#: Ops at most this slow (p50 of the untraced rounds) are re-run between the
#: write probe's writes, so that the caches a write patches are populated.
WRITE_PROBE_READ_MS = 20.0


class Spans:
    """In-memory span recorder; written out once, when the run ends."""

    def __init__(self):
        self.epoch = perf_counter()
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, qid: str | None = None, **attributes):
        parent = self._open[-1] if self._open else None
        if qid is None and parent is not None:
            qid = self.records[parent]["qid"]
        record = {"id": len(self.records), "parent": parent, "qid": qid, "name": name,
                  "start": 0.0, "end": 0.0, **attributes}
        self.records.append(record)
        self._open.append(record["id"])
        record["start"] = perf_counter() - self.epoch
        try:
            yield record
        finally:
            record["end"] = perf_counter() - self.epoch
            self._open.pop()

    def adopt(self, root, parent: int, qid: str) -> None:
        """Copy one finished ``repro.obs`` span tree under ``parent``."""
        pending = [(root, parent)]
        while pending:
            span, parent_id = pending.pop()
            start = span.start - self.epoch
            record = {"id": len(self.records), "parent": parent_id, "qid": qid,
                      "name": span.name, "start": start, "end": start + span.duration,
                      "source": "repro.obs"}
            self.records.append(record)
            pending.extend((child, record["id"]) for child in span.children)

    def busy(self, name: str, **match) -> float:
        return sum(
            r["end"] - r["start"] for r in self.records
            if r["name"] == name and all(r.get(k) == v for k, v in match.items())
        )

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")


def seconds(record: dict) -> float:
    return record["end"] - record["start"]


@contextmanager
def guarded(notes: list, what: str):
    """A layer that no longer exists costs its metrics, not the run."""
    try:
        yield
    except Exception as error:  # noqa: BLE001 - recorded and reported
        notes.append(f"{what}: {type(error).__name__}: {error}")


def totals(workload) -> Counter:
    """The workload sessions' lifetime counters, flattened and summed."""
    flat: Counter = Counter()
    for session in workload.sessions.values():
        stats = session.stats
        snapshot = stats.totals.snapshot()
        for name in ("rows_scanned", "source_operators", "plans_optimized",
                     "optimizer_memo_hits"):
            flat[name] += snapshot[name]
        for operator, count in snapshot["operators"].items():
            flat[f"op.{operator}"] += count
        for name in ("hits", "misses", "operators_saved", "patches", "invalidations"):
            flat[f"plancache.{name}"] += stats.plan_cache[name]
    return flat


def answers_returned(entries) -> int:
    """Answer tuples the logged ops returned (what the rows were scanned for)."""
    count = 0
    for entry in entries:
        if "frame" in entry:  # a wire response
            result = json.loads(entry["frame"]).get("result", {})
            count += len(result.get("answers", {}).get("tuples", ()))
        elif "payload" in entry:
            payload = entry["payload"]
            count += len(payload[0] if entry["check"] == "anytime" else payload)
    return count


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# --------------------------------------------------------------------------- #
# part 3: the layer drill
# --------------------------------------------------------------------------- #
def drill(spans: Spans, workload, metrics: dict, notes: list) -> None:
    engines = available_engines()
    optimize = {s.key: s.policy.get("optimize", True) for s in workload.spec.scenarios}
    counts: Counter = Counter()
    drilled = walls = 0.0
    for (key, query_id), query in workload.queries.items():
        scenario = workload.scenarios[key]
        with spans.span("drill", qid=f"drill:{key}.{query_id}") as root:
            with spans.span("core.partition_tree"):
                partitions = partition(query.partition_keys, scenario.mappings)
                represent(partitions)
            counts["partitions"] += len(partitions)
            counts["mappings"] += len(scenario.mappings)

            distinct: dict = {}
            for mapping in scenario.mappings:
                with spans.span("core.reformulation"):
                    try:
                        plan = reformulate_query(query, mapping, scenario.links)
                    except UnmatchedAttributeError:
                        continue
                    canonical = plan.canonical()
                entry = distinct.setdefault(canonical, [plan, mapping, 0.0])
                entry[2] += mapping.probability
            counts["reformulations"] += len(scenario.mappings)
            counts["plans"] += len(distinct)

            optimizer = Optimizer(scenario.database)
            optimizer_stats = ExecutionStats()
            plans = []
            for plan, mapping, probability in distinct.values():
                for memo in ("cold", "warm"):
                    with spans.span("relational.optimizer", memo=memo):
                        optimized = optimizer.optimize(plan, optimizer_stats)
                plans.append((optimized if optimize[key] else plan, mapping, probability))
            counts["rules"] += sum(optimizer_stats.optimizer_rules.values())

            results = {}
            columnar_seconds: dict = {}
            for engine in ("columnar", *(e for e in engines if e != "columnar")):
                for index, (plan, _, _) in enumerate(plans):
                    # The only prediction available from outside: the same
                    # plan's measured time on the reference engine.
                    if columnar_seconds.get(index, 0.0) > DRILL_PAIR_LIMIT_S:
                        notes.append(f"drill skipped {engine} on {key}.{query_id} "
                                     f"plan {index} (columnar took "
                                     f"{columnar_seconds[index]:.1f} s)")
                        continue
                    executor = Executor(scenario.database, ExecutionStats(), engine=engine)
                    with spans.span("relational.executor", engine=engine) as record:
                        relation = executor.execute_query(plan)
                    if engine == "columnar":
                        columnar_seconds[index] = seconds(record)
                        results[index] = relation

            answers = ProbabilisticAnswer()
            with spans.span("core.answer"):
                for index, (_, mapping, probability) in enumerate(plans):
                    tuples = extract_answers(query, mapping, results[index])
                    if tuples:
                        answers.add_tuples(tuples, probability)
                    else:
                        answers.add_empty(probability)
            counts["tuples"] += len(answers)

        # What the drill covers of the real thing: the same query through the
        # e-basic evaluator on the workload's (warm) session.
        session = workload.sessions[key]
        session.query(query, method="e-basic", engine="columnar")
        calls = []
        for _ in range(3):
            started = perf_counter()
            session.query(query, method="e-basic", engine="columnar")
            calls.append(perf_counter() - started)
        walls += median(calls)
        children = [r for r in spans.records if r["parent"] == root["id"]]
        drilled += sum(
            seconds(r) for r in children
            if r["name"] in ("core.reformulation", "core.answer")
            or (r["name"] == "relational.optimizer" and r["memo"] == "warm")
            or (r["name"] == "relational.executor" and r["engine"] == "columnar")
        )

    metrics["partition_tree.busy_s"] = spans.busy("core.partition_tree")
    metrics["partition_tree.partitions"] = counts["partitions"]
    metrics["partition_tree.mappings_per_partition"] = ratio(
        counts["mappings"], counts["partitions"])
    metrics["reformulation.busy_s"] = spans.busy("core.reformulation")
    metrics["reformulation.calls"] = counts["reformulations"]
    metrics["reformulation.distinct_ratio"] = ratio(counts["plans"], counts["reformulations"])
    metrics["optimizer.busy_s"] = spans.busy("relational.optimizer")
    metrics["optimizer.plans"] = counts["plans"]
    metrics["optimizer.rules_fired"] = counts["rules"]
    for engine in engines:
        metrics[f"executor.{engine}.busy_s"] = spans.busy("relational.executor", engine=engine)
    metrics["answer.busy_s"] = spans.busy("core.answer")
    metrics["answer.tuples"] = counts["tuples"]
    metrics["harness.drill_coverage"] = ratio(drilled, walls)


# --------------------------------------------------------------------------- #
# part 4: evaluator probes
# --------------------------------------------------------------------------- #
def _probe_call(session, method: str, query):
    if method == "top-k":
        return session.top_k(query, k=PROBE_K)
    if method == "anytime":
        return session.query(query, budget={"mapping_limit": PROBE_MAPPING_LIMIT})
    return session.query(query, method=method)


def _probe(spans: Spans, qid: str, method: str, call, repeats: int):
    """One evaluator call under a span: (the span, the call's stats).

    A cheap call is made ``repeats`` times: the first one on a session
    also builds the evaluator and fills its caches, and one collector pause is
    a large part of a millisecond.  The fastest call's span is returned (its
    ``phases`` are the evaluator's own account of it: the span's children),
    with the first call's counters: how often a call is repeated depends on the
    clock, and a count must not.
    """
    first = None
    attempts = []
    while True:
        with spans.span("core.evaluators", qid=qid, method=method) as record:
            stats = call().stats
        record["phases"] = dict(stats.phase_seconds)
        record["source_operators"] = stats.source_operators
        first = first or stats
        attempts.append(record)
        if seconds(record) > PROBE_REPEAT_BELOW_S or len(attempts) == repeats:
            return min(attempts, key=seconds), first


def evaluator_probes(spans: Spans, workload, metrics: dict, notes: list,
                     repeats: int) -> None:
    operators: Counter = Counter()
    for method in METHODS:
        sums: Counter = Counter()
        with guarded(notes, f"evaluators.{method}"):
            if method == "batch":
                calls = [
                    (key, lambda s=workload.sessions[key], qs=[
                        q for (k, _), q in workload.queries.items() if k == key
                    ]: s.query_many(qs))
                    for key in workload.scenarios
                ]
            else:
                calls = [
                    (f"{key}.{query_id}", lambda s=workload.sessions[key], q=query:
                     _probe_call(s, method, q))
                    for (key, query_id), query in workload.queries.items()
                ]
            for name, call in calls:
                record, stats = _probe(spans, f"probe:{method}:{name}", method, call, repeats)
                phases = record["phases"]
                sums["busy_s"] += seconds(record)
                for phase in ("rewriting", "evaluation", "aggregation"):
                    sums[f"{phase}_s"] += phases.get(phase, 0.0)
                sums["unattributed_s"] += max(seconds(record) - sum(phases.values()), 0.0)
                sums["source_operators"] += stats.source_operators
                if method == "o-sharing":
                    metrics["evaluators.eunits_created"] = (
                        metrics.get("evaluators.eunits_created", 0) + stats.eunits_created)
                    metrics["evaluators.eunits_pruned"] = (
                        metrics.get("evaluators.eunits_pruned", 0) + stats.eunits_pruned)
            for name in ("busy_s", "rewriting_s", "evaluation_s", "aggregation_s",
                         "unattributed_s", "source_operators"):
                metrics[f"evaluators.{method}.{name}"] = sums[name]
            operators[method] = sums["source_operators"]
    if operators["o-sharing"]:
        metrics["anytime.operators_vs_exact"] = ratio(
            operators["anytime"], operators["o-sharing"])


def dispatch_overhead(workload, metrics: dict) -> None:
    """``Session.query`` wall minus what its own phases account for."""
    probe = workload.spec.probe
    session = workload.sessions[probe.scenario]
    query = workload.queries[probe.scenario, probe.query]
    overheads = []
    for _ in range(50):
        started = perf_counter()
        result = session.query(query, **probe.overrides)
        wall = perf_counter() - started
        overheads.append((wall - result.stats.total_seconds) * 1e3)
    metrics["session.dispatch_overhead_ms"] = median(overheads)


# --------------------------------------------------------------------------- #
# part 5: the write probe
# --------------------------------------------------------------------------- #
def write_probe(spans: Spans, workload, ops: dict, metrics: dict) -> None:
    """Time in-process writes under the caches the warm rounds populated."""
    rng = random.Random(f"{workload.seed}:write-probe")
    before = totals(workload)
    appends, deletes = [], []
    for key, scenario in workload.scenarios.items():
        rows, positions = write_rows(scenario, rng)
        reads = workload.light_reads(key, ops, WRITE_PROBE_READ_MS)
        for loop in range(WRITE_LOOPS):
            with spans.span("write-probe", qid=f"write:{key}:{loop}"):
                with spans.span("relational.database", write="append") as record:
                    scenario.database.append_rows(WRITE_RELATION, rows)
                appends.append(seconds(record))
                for read in reads:
                    read()
                with spans.span("relational.database", write="delete") as record:
                    scenario.database.delete_rows(WRITE_RELATION, positions)
                deletes.append(seconds(record))
                for read in reads:
                    read()
    after = totals(workload)
    metrics["database.append_s"] = median(appends)
    metrics["database.delete_s"] = median(deletes)
    metrics["plancache.entries_patched"] = after["plancache.patches"] - before["plancache.patches"]
    metrics["plancache.entries_invalidated"] = (
        after["plancache.invalidations"] - before["plancache.invalidations"])


# --------------------------------------------------------------------------- #
# part 6: the wire probe
# --------------------------------------------------------------------------- #
def wire_probe(spans: Spans, spec: WorkloadSpec, seed: int, query_ids: list,
               requests: int, metrics: dict) -> list[float]:
    """Protocol, in-process tenant and wire cost of the workload's probe op.

    Tenant ``a`` is the probe op's scenario; tenant ``b`` (the next scenario,
    or a second copy of the same one) only supplies the concurrent load for
    ``server.contention_ratio``.  Returns every wire latency it measured.
    """
    probe = spec.probe
    by_key = {s.key: s for s in spec.scenarios}
    first = by_key[probe.scenario]
    others = [s for s in spec.scenarios if s.key != first.key]
    second = others[0] if others else first

    def tenant_spec(name: str, scenario_spec: ScenarioSpec) -> TenantSpec:
        return TenantSpec.from_scenario(
            name, build(scenario_spec, seed),
            policy=ExecutionPolicy(**scenario_spec.policy),
            quota=TenantQuota(queue_limit=QUEUE_LIMIT),
        )

    fields = {"query": probe.query}
    if probe.overrides:
        fields["overrides"] = probe.overrides
    other_query = next(query for key, query in query_ids if key == second.key)

    async def over_the_wire():
        server = ReproServer([tenant_spec("a", first), tenant_spec("b", second)])
        started = perf_counter()
        await server.start()
        clients = [await ServingClient.connect(*server.address) for _ in "ab"]
        metrics.setdefault("server.start_s", perf_counter() - started)

        async def loop(client, tenant, fields, count):
            latencies = []
            for _ in range(count):
                started = perf_counter()
                response = await client.request("query", tenant=tenant, **fields)
                latencies.append(perf_counter() - started)
                if not response.get("ok"):
                    raise RuntimeError(f"wire probe request failed: {response}")
            return latencies

        try:
            await loop(clients[0], "a", fields, max(requests // 10, 2))  # warm-up
            await loop(clients[1], "b", {"query": other_query}, max(requests // 10, 2))
            with spans.span("serving.wire", qid="wire:1-client"):
                alone = await loop(clients[0], "a", fields, requests)
            with spans.span("serving.wire", qid="wire:2-clients"):
                loaded, _ = await asyncio.gather(
                    loop(clients[0], "a", fields, requests),
                    loop(clients[1], "b", {"query": other_query}, requests),
                )
            return alone, loaded, sum(server.shed_counts.values())
        finally:
            for client in clients:
                await client.close()
            await server.close()

    with one_cpu():
        alone, loaded, shed = asyncio.run(over_the_wire())

    tenant = Tenant(tenant_spec("a", first))
    request = {"op": "query", "id": 1, "v": 1, "tenant": "a", **fields}
    line = json.dumps(request)
    parse_us, execute_ms, encode_us = [], [], []
    try:
        tenant.execute(request)  # warm-up
        for _ in range(requests):
            started = perf_counter()
            parsed = parse_request(line)
            parse_us.append((perf_counter() - started) * 1e6)
            with spans.span("serving.tenants", qid="wire:in-process") as record:
                response = tenant.execute(parsed)
            execute_ms.append(seconds(record) * 1e3)
            started = perf_counter()
            frame = encode_response(response)
            encode_us.append((perf_counter() - started) * 1e6)
    finally:
        tenant.close()

    wire_ms = median(alone) * 1e3
    in_process_ms = median(execute_ms) + (median(parse_us) + median(encode_us)) / 1e3
    metrics["protocol.parse_us"] = median(parse_us)
    metrics["protocol.encode_us"] = median(encode_us)
    metrics["protocol.response_bytes"] = len(frame)
    metrics["tenants.execute_ms"] = median(execute_ms)
    metrics["server.wire_overhead_ms"] = wire_ms - in_process_ms
    metrics["server.contention_ratio"] = ratio(median(loaded), median(alone))
    metrics["server.shed"] = metrics.get("server.shed", 0) + shed
    return alone + loaded


# --------------------------------------------------------------------------- #
# the traced run
# --------------------------------------------------------------------------- #
def setup_stages(spans: Spans, spec: WorkloadSpec, seed: int, metrics: dict):
    """Part 1: the generator alone, then the workload opened under a span."""
    with spans.span("setup", qid="setup"):
        generated = rows = 0.0
        for scenario_spec in spec.scenarios:
            with spans.span("datagen.generator") as record:
                database = generate_source_instance(
                    scale=scenario_spec.scale, config=GeneratorConfig(seed=DATA_SEED))
            generated += seconds(record)
            rows += database.total_rows
        with spans.span("workload.open"):
            plain = open_workload(spec, seed)
    metrics["datagen.generate_s"] = generated
    metrics["datagen.rows"] = rows
    # build = generator + matcher/k-best (cold memo) + the seed's permutation
    metrics["matching.match_and_kbest_s"] = max(plain.stage_seconds["build"] - generated, 0.0)
    metrics["matching.mappings"] = sum(s.h for s in plain.scenarios.values())
    metrics["session.open_s"] = plain.stage_seconds["session.open"]
    if "server.start" in plain.stage_seconds:
        metrics["server.start_s"] = plain.stage_seconds["server.start"]
    return plain


def traced_rounds(spans: Spans, traced, run_seconds: float, min_rounds: int,
                  metrics: dict, notes: list) -> list[float]:
    """Part 2, tracing on: timed rounds under ``round`` spans, then one counted round."""
    traced.run_round("warmup")
    for session in traced.sessions.values():
        session.tracer.clear()  # the warm-up's span trees belong to no round
    walls: list[float] = []
    while len(walls) < min_rounds or sum(walls) < run_seconds:
        qid = f"round:{len(walls)}"
        with spans.span("round", qid=qid) as record:
            wall, _ = traced.run_round("timed")
        walls.append(wall)
        with guarded(notes, "adopting repro.obs spans"):
            adopted = 0
            for session in traced.sessions.values():
                for root in list(session.tracer.roots):
                    spans.adopt(root, record["id"], f"{qid}/{adopted}")
                    adopted += 1
                session.tracer.clear()

    before, logged = totals(traced), len(traced.log)
    traced.run_round("timed")
    counted = totals(traced) - before
    metrics["executor.operators"] = sum(
        count for name, count in counted.items() if name.startswith("op."))
    for operator in OPERATORS:
        metrics[f"executor.op.{operator}"] = counted[f"op.{operator}"]
    metrics["executor.rows_scanned"] = counted["rows_scanned"]
    metrics["executor.rows_per_answer"] = ratio(
        counted["rows_scanned"], answers_returned(traced.log[logged:]))
    metrics["optimizer.memo_hit_ratio"] = ratio(
        counted["optimizer_memo_hits"], counted["plans_optimized"])
    hits, misses = counted["plancache.hits"], counted["plancache.misses"]
    metrics["plancache.hits"] = hits
    metrics["plancache.misses"] = misses
    metrics["plancache.hit_ratio"] = ratio(hits, hits + misses)
    metrics["plancache.operators_saved"] = counted["plancache.operators_saved"]
    return walls


def traced_run(spec: WorkloadSpec, seed: int, run_seconds: float, trace_path,
               quick: bool = False) -> dict:
    spans = Spans()
    metrics: dict = {}
    notes: list[str] = []
    min_rounds = 1 if quick else 2

    with setup_stages(spans, spec, seed, metrics) as plain:
        plain.run_round("warmup")
        plain_rounds, _ = timed_rounds(plain, run_seconds / 4, min_rounds)
        plain_walls = [wall for wall, _, _, _ in plain_rounds]
        plain_timings = [t for _, _, timings, _ in plain_rounds for t in timings]
        ops = {label: row["p50_ms"] for label, row in op_table(plain_timings).items()}
        with open_workload(spec, seed, trace=True) as traced:
            traced_walls = traced_rounds(
                spans, traced, run_seconds / 4, min_rounds, metrics, notes)
            metrics["server.shed"] = plain.shed + traced.shed
        metrics["obs.trace_overhead_ratio"] = ratio(median(traced_walls), median(plain_walls))

        # Parts 3-5 run on the untraced, warm workload.
        with guarded(notes, "layer drill"):
            drill(spans, plain, metrics, notes)
        evaluator_probes(spans, plain, metrics, notes, 1 if quick else PROBE_REPEATS)
        with guarded(notes, "session.dispatch_overhead_ms"):
            dispatch_overhead(plain, metrics)
        with guarded(notes, "write probe"):
            write_probe(spans, plain, ops, metrics)
    wire = []
    with guarded(notes, "wire probe"):
        wire = wire_probe(spans, spec, seed, list(plain.queries),
                          20 if quick else 300, metrics)
    if spec.served:  # the rounds themselves are wire requests: more samples
        wire = [elapsed for _, elapsed in plain_timings]
    if wire:
        metrics["server.request_p99_ms"] = percentile(wire, 0.99) * 1e3

    spans.write(trace_path)
    entries = plain.log + traced.log
    failed = Counter(e["label"] for e in entries if e["failed"])
    return {
        "attempted": len(entries),
        "failed": sum(failed.values()),
        "failed_ops": dict(failed),
        "metrics": {name: (value, 1) for name, value in metrics.items()},
        "notes": notes,
        "spans": len(spans.records),
        "callers": plain.callers,
        "errors": {**plain.errors, **traced.errors},
    }
