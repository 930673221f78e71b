"""The four workloads: what each one runs, and the objects that run it.

A workload is a fixed script of *ops* (one public call each) over one or
more scenarios.  ``SessionWorkload`` drives the script through
``Session.query``/``top_k`` on one caller thread; ``ServedWorkload`` drives it
over localhost TCP through a live ``ReproServer`` with one closed-loop
``ServingClient`` per tenant.  Both record every op they execute in ``log``
so that the untimed verify phase can check each answer afterwards.

Why the generator seed is fixed: on these small instances the Table III
constants hit or miss depending on the generated values, and the amount of
work follows (Excel h=60 scale=0.03: o-sharing Q3 takes 0.5 ms under
generator seed 5 and 330 ms under seed 2).  The generator seed is therefore
part of the workload definition, and ``--seed`` permutes the rows of every
generated relation and picks the rows ``served_mixed`` appends: inputs differ
per seed, cardinalities and selectivities do not.
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
import traceback
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field, replace
from time import perf_counter

from repro import ExecutionPolicy, build_scenario, connect
from repro.relational import Relation
from repro.serving import (
    PROTOCOL_VERSION,
    ReproServer,
    ServingClient,
    TenantQuota,
    TenantSpec,
    serial_replay,
)
from repro.workloads.queries import PAPER_QUERIES

#: Generator seed of every scenario (see the module docstring).
DATA_SEED = 7
#: Light ops (selection-only queries) run this many times per round.
LIGHT_REPEAT = 5
#: Absolute tolerance of the top-k and anytime bound checks.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class ScenarioSpec:
    key: str
    target: str
    h: int
    scale: float
    #: ``ExecutionPolicy`` fields of the session (or tenant) on this scenario
    policy: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    label: str
    scenario: str
    query: str
    call: str = "query"  # or "top_k"
    overrides: dict = field(default_factory=dict)
    per_round: int = 1
    check: str = "exact"  # or "top_k", "anytime"


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    scenarios: tuple[ScenarioSpec, ...]
    #: the designated light op: wire probe and dispatch-overhead probe run it
    probe: Op
    ops: tuple[Op, ...] = ()
    served: bool = False
    #: served only: loops each client runs between two round barriers
    loops_per_round: int = 10

    def quick(self) -> "WorkloadSpec":
        """The same script over tiny scenarios (smoke tests)."""
        return replace(
            self,
            scenarios=tuple(
                replace(s, h=min(s.h, 12), scale=0.01) for s in self.scenarios
            ),
            loops_per_round=2,
        )

    def definition(self) -> dict:
        """Everything that fixes the work done, for the definition hash."""
        described = asdict(self)
        described["data_seed"] = DATA_SEED
        if self.served:
            described["script"] = SERVED_SCRIPT
        return described


def _default_policy() -> WorkloadSpec:
    def light(query):
        return Op(f"o-sharing.{query}", "excel", query, per_round=LIGHT_REPEAT)

    return WorkloadSpec(
        name="default_policy",
        why="What a user gets without configuring anything (o-sharing, columnar, "
        "optimizer on); top-k, anytime and serving are built on this u-trace path.",
        scenarios=(ScenarioSpec("excel", "Excel", 60, 0.03),),
        probe=light("Q1"),
        ops=(
            light("Q1"),
            light("Q2"),
            Op("o-sharing.Q3", "excel", "Q3"),
            Op("o-sharing.Q4", "excel", "Q4"),
            light("Q5"),
            Op("top5.Q3", "excel", "Q3", call="top_k", overrides={"k": 5}, check="top_k"),
            Op(
                "anytime20.Q4",
                "excel",
                "Q4",
                overrides={"budget": {"mapping_limit": 20}},
                check="anytime",
            ),
        ),
    )


def _many_mappings() -> WorkloadSpec:
    targets = ("Excel", "Noris", "Paragon")
    ops = tuple(
        Op(f"{method}.{spec.query_id}", spec.target.lower(), spec.query_id,
           overrides={"method": method})
        for spec in PAPER_QUERIES.values()
        for method in ("e-basic", "q-sharing", "e-mqo")
    )
    return WorkloadSpec(
        name="many_mappings",
        why="Fig. 11(c) axis: 300 mappings over a small instance, so reformulation "
        "and the optimizer memo are the bulk; bypasses the u-trace evaluators.",
        scenarios=tuple(ScenarioSpec(t.lower(), t, 300, 0.02) for t in targets),
        probe=next(op for op in ops if op.label == "q-sharing.Q1"),
        ops=ops,
    )


def _optimizer_off() -> WorkloadSpec:
    def op(method, query, engine):
        return Op(f"{method}.{query}.{engine}", "excel", query,
                  overrides={"method": method, "engine": engine})

    heavy = [
        op(method, query, engine)
        for query in ("Q2", "Q3", "Q4")
        for method, engine in (
            ("e-basic", "columnar"), ("e-basic", "vector"), ("q-sharing", "vector"),
        )
    ]
    return WorkloadSpec(
        name="optimizer_off",
        why="Fig. 11(b) regime: Select-over-Product is executed, not rewritten to a "
        "join, so the executor is nearly all of every heavy op, on two engines.",
        scenarios=(ScenarioSpec("excel", "Excel", 30, 0.03, {"optimize": False}),),
        probe=op("q-sharing", "Q2", "vector"),
        ops=(*heavy, op("e-basic", "Q5", "columnar"), op("e-basic", "Q5", "vector")),
    )


#: ``served_mixed``: what each client does in one loop, per tenant.
SERVED_SCRIPT = {
    "excel": {"reads": ["Q1", "Q5", "Q2", "Q1", "Q5"], "after_write": ["Q1", "Q2"]},
    "noris": {"reads": ["Q6", "Q7", "Q6", "Q7", "Q6"], "after_write": ["Q6", "Q7"]},
}
QUEUE_LIMIT = 16
WRITE_RELATION = "orders"
ROWS_PER_WRITE = 2


def _served_mixed() -> WorkloadSpec:
    return WorkloadSpec(
        name="served_mixed",
        why="Cheap reads beside writes over localhost TCP on two tenants: protocol, "
        "server and the thread hop are most of a request; patch vs invalidate shows.",
        scenarios=(
            ScenarioSpec("excel", "Excel", 60, 0.03),
            ScenarioSpec("noris", "Noris", 60, 0.03, {"method": "e-mqo"}),
        ),
        probe=Op("excel.Q1", "excel", "Q1"),
        served=True,
    )


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (_default_policy(), _many_mappings(), _optimizer_off(), _served_mixed())
}


def build(spec: ScenarioSpec, seed: int):
    """The scenario of ``spec`` with every relation's rows permuted by ``seed``."""
    scenario = build_scenario(
        target=spec.target, h=spec.h, scale=spec.scale, seed=DATA_SEED
    )
    rng = random.Random(f"{seed}:{spec.key}")
    database = scenario.database
    for name in database.relation_names:
        rows = list(database.relation(name).rows)
        rng.shuffle(rows)
        database.set_relation(
            name, Relation.from_schema(scenario.source_schema.relation(name), rows)
        )
    return scenario


def write_rows(scenario, rng: random.Random):
    """Rows to append to ``orders`` (copies of existing rows under fresh keys,
    as JSON-able lists) and the positions they land on, to delete them again."""
    rows = scenario.database.relation(WRITE_RELATION).rows
    top = max(row[0] for row in rows)
    appended = [[top + 1 + i, *rng.choice(rows)[1:]] for i in range(ROWS_PER_WRITE)]
    return appended, [len(rows) + i for i in range(ROWS_PER_WRITE)]


@contextmanager
def one_cpu():
    """Run the body, and every thread it starts, on one CPU.

    A ``ReproServer`` is bound by the interpreter lock, so a second core buys
    it nothing, and handing the lock from core to core makes its latency
    bimodal between runs (two clients, unpinned: round_p50_s 0.49-0.66 s over
    ten runs; pinned: 0.43-0.46 s).  Threads inherit the affinity of the thread
    that starts them, so the server must be created inside the body.
    """
    if not hasattr(os, "sched_setaffinity"):  # not Linux: measured unpinned
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def open_workload(spec: WorkloadSpec, seed: int, trace: bool = False):
    """A runnable, opened instance of ``spec``; ``with`` closes it."""
    workload = (ServedWorkload if spec.served else SessionWorkload)(spec, seed, trace)
    workload.open()
    return workload


class Reference:
    """Exact answers per (scenario, query): e-basic on the row engine.

    ``corrupt`` plants a tuple no evaluator can return, so that a run can show
    its verification is live (every checked op must then fail).
    """

    def __init__(self, scenarios: dict, corrupt: bool = False):
        self.corrupt = corrupt
        self._scenarios = scenarios
        self._answers: dict = {}

    def answers(self, scenario_key: str, query):
        key = (scenario_key, query.name)
        if key not in self._answers:
            with connect(self._scenarios[scenario_key], method="e-basic",
                         engine="row") as session:
                answers = session.query(query).answers
            if self.corrupt:
                answers.add(("corrupted reference",), 2.0)
            self._answers[key] = answers
        return self._answers[key]


def _check(entry: dict, exact) -> bool:
    """True when the logged op's output agrees with the exact answers."""
    kind, payload = entry["check"], entry["payload"]
    if kind == "exact":
        return exact.equals(payload)
    if kind == "top_k":
        ranking = exact.top_k(entry["k"])
        if len(payload) != len(ranking):
            return False
        threshold = ranking[-1].probability if ranking else 0.0
        return all(
            values in exact
            and bound <= exact.probability(values) + TOLERANCE
            and exact.probability(values) >= threshold - TOLERANCE
            for values, bound in payload.items()
        )
    intervals, unexplored = payload
    seen = {interval.values for interval in intervals}
    return all(
        iv.lb - TOLERANCE <= exact.probability(iv.values) <= iv.ub + TOLERANCE
        for iv in intervals
    ) and all(
        probability <= unexplored + TOLERANCE
        for values, probability in exact.items()
        if values not in seen
    )


class _Workload:
    """What both kinds of workload share: scenarios, the op log, error notes."""

    #: op types left out of op_geomean_ms and op_worst_p50_ms (see phases.py)
    write_labels: frozenset = frozenset()
    #: requests the server refused or shed (there is none in-process)
    shed = 0

    def __init__(self, spec: WorkloadSpec, seed: int, trace: bool = False):
        self.spec = spec
        self.seed = seed
        self.trace = trace
        self.scenarios: dict = {}
        #: one entry per executed op: label, phase, failed, what verify needs
        self.log: list[dict] = []
        #: first traceback per op label (printed once, kept in the result)
        self.errors: dict[str, str] = {}
        #: wall-clock of the set-up stages, filled by ``open``
        self.stage_seconds: dict[str, float] = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _timed_stage(self, stage: str, started: float) -> None:
        self.stage_seconds[stage] = perf_counter() - started

    def _build_scenarios(self) -> None:
        started = perf_counter()
        for scenario_spec in self.spec.scenarios:
            self.scenarios[scenario_spec.key] = build(scenario_spec, self.seed)
        self._timed_stage("build", started)

    def _policy(self, scenario_spec: ScenarioSpec) -> ExecutionPolicy:
        return ExecutionPolicy(**scenario_spec.policy, trace=self.trace)

    def _note_error(self, label: str) -> None:
        if label not in self.errors:
            self.errors[label] = traceback.format_exc()
            print(f"[ledger] op {label} raised:\n{self.errors[label]}", file=sys.stderr)


class SessionWorkload(_Workload):
    """The script through ``Session`` calls on one caller thread."""

    callers = "1 caller thread, closed loop (the caller waits for each reply)"

    def open(self) -> None:
        self._build_scenarios()
        started = perf_counter()
        self.sessions = {
            s.key: connect(self.scenarios[s.key], policy=self._policy(s))
            for s in self.spec.scenarios
        }
        self._timed_stage("session.open", started)
        #: (scenario key, query id) -> TargetQuery, in script order
        self.queries = {
            (op.scenario, op.query): PAPER_QUERIES[op.query].build(
                self.scenarios[op.scenario].target_schema
            )
            for op in self.spec.ops
        }

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()

    def run_round(self, phase: str, once: bool = False):
        """One pass over the script: (wall seconds, [(label, seconds), ...])."""
        timings = []
        started = perf_counter()
        for repeat in range(1 if once else max(op.per_round for op in self.spec.ops)):
            for op in self.spec.ops:
                if repeat < op.per_round:
                    timings.append((op.label, self._run_op(op, phase)))
        return perf_counter() - started, timings

    def _invoke(self, op: Op):
        session = self.sessions[op.scenario]
        call = session.top_k if op.call == "top_k" else session.query
        return call(self.queries[op.scenario, op.query], **op.overrides)

    def light_reads(self, scenario_key: str, p50_ms: dict, limit_ms: float) -> list:
        """Unlogged calls of the scenario's ops whose p50 is at most ``limit_ms``."""
        return [
            (lambda op=op: self._invoke(op))
            for op in self.spec.ops
            if op.scenario == scenario_key and p50_ms.get(op.label, limit_ms + 1) <= limit_ms
        ]

    def _run_op(self, op: Op, phase: str) -> float:
        entry = {"label": op.label, "phase": phase, "failed": False,
                 "check": op.check, "scenario": op.scenario,
                 "query": self.queries[op.scenario, op.query]}
        started = perf_counter()
        try:
            result = self._invoke(op)
        except Exception:  # noqa: BLE001 - a failed op is a result, not a crash
            elapsed = perf_counter() - started
            entry["failed"] = True
            self._note_error(op.label)
        else:
            elapsed = perf_counter() - started
            # Keep only what verify needs: a budgeted result holds its whole
            # frontier alive, which would show up in peak_rss_mb.
            if op.check == "anytime":
                entry["payload"] = (result.intervals, result.unexplored_mass)
            else:
                entry["payload"] = result.answers
                entry["k"] = op.overrides.get("k")
        self.log.append(entry)
        return elapsed

    def verify(self, log: list[dict], reference: Reference) -> None:
        """Mark every op in ``log`` whose output disagrees with the reference."""
        for entry in log:
            if not entry["failed"]:
                exact = reference.answers(entry["scenario"], entry["query"])
                entry["failed"] = not _check(entry, exact)


class ServedWorkload(_Workload):
    """The script over localhost TCP: one ``ServingClient`` per tenant."""

    callers = (
        "2 client connections (one per tenant) on one asyncio loop, closed loop "
        "(each client waits for its reply)"
    )

    write_labels = frozenset(
        f"{tenant}.{write}" for tenant in SERVED_SCRIPT for write in ("append", "delete")
    )

    def _specs(self, scenarios: dict) -> list[TenantSpec]:
        return [
            TenantSpec.from_scenario(
                s.key, scenarios[s.key], policy=self._policy(s),
                quota=TenantQuota(queue_limit=QUEUE_LIMIT),
            )
            for s in self.spec.scenarios
        ]

    def open(self) -> None:
        with ExitStack() as stack:
            stack.enter_context(one_cpu())  # the server's threads inherit it
            self._build_scenarios()
            rng = random.Random(f"{self.seed}:writes")
            self._writes = {
                key: write_rows(scenario, rng) for key, scenario in self.scenarios.items()
            }
            self.queries = {
                (key, query): PAPER_QUERIES[query].build(self.scenarios[key].target_schema)
                for key, script in SERVED_SCRIPT.items()
                for query in dict.fromkeys(script["reads"] + script["after_write"])
            }
            started = perf_counter()
            self.server = ReproServer(self._specs(self.scenarios))
            self.sessions = {
                name: tenant.session for name, tenant in self.server.tenants.items()
            }
            self._timed_stage("session.open", started)
            started = perf_counter()
            self._loop = asyncio.new_event_loop()
            stack.callback(self._loop.close)
            self._clients: dict = {}
            stack.callback(lambda: self._loop.run_until_complete(self._disconnect()))
            self._loop.run_until_complete(self._connect())
            self._timed_stage("server.start", started)
            self._opened = stack.pop_all()  # close() undoes it, last first

    async def _connect(self) -> None:
        await self.server.start()
        for key in self.scenarios:
            self._clients[key] = await ServingClient.connect(*self.server.address)

    def close(self) -> None:
        self._opened.close()

    async def _disconnect(self) -> None:
        for client in self._clients.values():
            await client.close()
        await self.server.close()
        # Let the server's connection handlers see the closed sockets and end
        # before the loop goes away.
        handlers = asyncio.all_tasks() - {asyncio.current_task()}
        if handlers:
            await asyncio.wait(handlers, timeout=5)

    @property
    def shed(self) -> int:
        return sum(self.server.shed_counts.values())

    def light_reads(self, scenario_key: str, p50_ms: dict, limit_ms: float) -> list:
        """Unlogged in-process calls of the tenant's queries (all are light)."""
        session = self.sessions[scenario_key]
        return [
            (lambda query=query: session.query(query))
            for (key, query_id), query in self.queries.items()
            if key == scenario_key
            and p50_ms.get(f"{key}.{query_id}", limit_ms + 1) <= limit_ms
        ]

    def run_round(self, phase: str, once: bool = False):
        loops = 1 if once else self.spec.loops_per_round
        async def clients():
            return await asyncio.gather(
                *(self._client(key, loops, phase) for key in self.scenarios))

        started = perf_counter()
        per_client = self._loop.run_until_complete(clients())
        wall = perf_counter() - started
        return wall, [timing for timings in per_client for timing in timings]

    async def _client(self, tenant: str, loops: int, phase: str):
        script = SERVED_SCRIPT[tenant]
        appended, positions = self._writes[tenant]
        timings = []

        async def request(label, op, **fields):
            timings.append(
                (f"{tenant}.{label}", await self._request(tenant, label, phase, op, fields))
            )

        for _ in range(loops):
            for query in script["reads"]:
                await request(query, "query", query=query)
            await request("append", "append_rows", relation=WRITE_RELATION, rows=appended)
            for query in script["after_write"]:
                await request(f"{query}.after-write", "query", query=query)
            await request("delete", "delete_rows", relation=WRITE_RELATION,
                          positions=positions)
        return timings

    async def _request(self, tenant, label, phase, op, fields) -> float:
        client = self._clients[tenant]
        entry = {"label": f"{tenant}.{label}", "phase": phase, "failed": False,
                 "tenant": tenant}
        started = perf_counter()
        try:
            response = await client.request(op, tenant=tenant, **fields)
        except Exception:  # noqa: BLE001 - a failed op is a result, not a crash
            elapsed = perf_counter() - started
            entry["failed"] = True
            self._note_error(entry["label"])
        else:
            elapsed = perf_counter() - started
            # An error, refused or shed response is a failed op; only requests
            # a tenant executed (they carry ``seq``) can be replayed.
            entry["failed"] = not response.get("ok")
            entry["seq"] = response.get("seq")
            entry["request"] = {"op": op, "id": response.get("id"),
                                "v": PROTOCOL_VERSION, "tenant": tenant, **fields}
            entry["frame"] = client.frames.get(response.get("id"))
        self.log.append(entry)
        return elapsed

    def verify(self, log: list[dict], reference: Reference) -> None:
        """Every frame must be byte-identical to a serial replay of its tenant.

        ``log`` is everything one server instance was sent.  The replay runs on
        specs rebuilt from the same seed and covers every request the tenant
        executed since that server started, in ``seq`` order.
        """
        fresh = {s.key: build(s, self.seed) for s in self.spec.scenarios}
        for tenant_spec in self._specs(fresh):
            executed = sorted(
                (e for e in log
                 if e["tenant"] == tenant_spec.name and e.get("seq") is not None),
                key=lambda e: e["seq"],
            )
            frames = serial_replay(tenant_spec, [e["request"] for e in executed])
            for entry, frame in zip(executed, frames):
                if reference.corrupt:
                    frame = b" " + frame
                if entry["frame"] != frame:
                    entry["failed"] = True
