"""Warm sessions under writes: plan-cache patching vs cold recomputation.

The serving scenario the write path exists for: a session keeps answering a
repeated probe workload while rows keep arriving.  Cold calls (a fresh
session each) pay the full price after every write; a warm
:class:`repro.Session` patches its append-monotone plan-cache entries with
each append delta, re-executing only what the write actually invalidated.
Hash indexes and column statistics are rebuilt lazily, by version.

CI gates (operator and build counts are deterministic; wall-clock is
reported but not gated — this may run on a 1-core container):

* the warm session absorbing K interleaved appends executes **strictly
  fewer** source operators than the same K+1 workload evaluations served
  cold;
* each append rebuilds lazily and only where it wrote: at most one index
  build per cached index of the written relation, at most one profiling
  pass per profiled column of it, and no rebuild for any other relation;
* a write to one relation does **not** evict warm entries that never read
  it — the unrelated probe repeats at the exact operator cost of a warm
  repeat without any write;
* answers stay byte-identical to the cold full-recompute reference after
  every write.

Emits ``BENCH_warm_writes.json`` at the repo root with operator counts and
wall-clock per series.
"""

from __future__ import annotations

import time

from repro import ExecutionPolicy, Session
from repro.bench.harness import cold_query
from repro.bench.reporting import format_table
from repro.core.target_query import TargetQuery
from repro.datagen.paper_example import build_paper_example
from repro.relational.algebra import Project, Scan
from repro.obs import write_bench_artifact
from repro.relational.expressions import col

#: Interleaved appends absorbed by the warm session (one row each).
K_WRITES = 6

#: The relation every append writes.
WRITTEN = "Customer"


def _appended_row(i: int) -> tuple:
    """A Customer row (cid, cname, ophone, hphone, mobile, oaddr, haddr, nid)."""
    return (100 + i, f"W{i}", "123", "789", "555", f"w{i}", "hk", 1)


def _probes(example):
    """The repeated probe workload (monotone plans over Customer)."""
    return [example.q0(), example.q_phone_by_addr()]


def _order_probe(example) -> TargetQuery:
    """A probe whose reformulations read only C_Order (never Customer)."""
    plan = Project(Scan("Order"), [col("total")])
    return TargetQuery(plan, example.target_schema, name="q-order-total")


def _run_cold(probes):
    """The cold regime: every checkpoint recomputes from scratch."""
    passes = []
    answers = []
    for k in range(K_WRITES + 1):
        replay = build_paper_example()
        replay.database.relation("Customer").append_rows(
            [_appended_row(i) for i in range(k)]
        )
        started = time.perf_counter()
        operators = 0
        checkpoint = []
        for probe in probes:
            result = cold_query(probe, replay, method="e-mqo")
            operators += result.stats.source_operators
            checkpoint.append(dict(result.answers.items()))
        passes.append(
            {
                "writes_absorbed": k,
                "source_operators": operators,
                "seconds": time.perf_counter() - started,
            }
        )
        answers.append(checkpoint)
    return passes, answers


def _cache_state(database) -> tuple[dict, int, int]:
    """Cached indexes and column profiles by ``(kind, relation, column)``,
    plus the index-build and profiling-pass counters."""
    entries = {
        ("index", *key): entry for key, entry in database.index_catalog._indexes.items()
    }
    entries.update(
        (("profile", *key), entry)
        for key, entry in database.stats_catalog._columns.items()
    )
    return entries, database.index_catalog.builds, database.stats_catalog.collections


def _rebuild_traffic(before_state, after_state) -> dict:
    """The index builds and profiling passes between two cache states.

    Each is capped by what the written relation had cached before: one
    rebuild per cached index and per profiled column at most.  An entry of
    any other relation whose object changed was rebuilt without need.
    """
    before, builds, collections = before_state
    after, builds_after, collections_after = after_state
    return {
        "index_builds": builds_after - builds,
        "cached_indexes": sum(
            1 for kind, relation, _ in before if kind == "index" and relation == WRITTEN
        ),
        "profiles": collections_after - collections,
        "profiled_columns": sum(
            1 for kind, relation, _ in before if kind == "profile" and relation == WRITTEN
        ),
        "other_relations_rebuilt": sorted(
            key
            for key, entry in after.items()
            if key[1] != WRITTEN and before.get(key) is not entry
        ),
    }


def _run_warm(probes):
    """The session regime: one warm session absorbs the appends in place."""
    example = build_paper_example()
    database = example.database
    passes = []
    answers = []
    traffic = []
    with Session(
        database,
        example.mappings,
        links=example.links,
        policy=ExecutionPolicy(method="e-mqo"),
    ) as session:
        for k in range(K_WRITES + 1):
            cached = _cache_state(database)
            if k:
                database.append_rows(WRITTEN, [_appended_row(k - 1)])
            before = session.stats.totals.source_operators
            started = time.perf_counter()
            checkpoint = [dict(session.query(probe).answers.items()) for probe in probes]
            passes.append(
                {
                    "writes_absorbed": k,
                    "source_operators": session.stats.totals.source_operators - before,
                    "seconds": time.perf_counter() - started,
                }
            )
            answers.append(checkpoint)
            if k:
                traffic.append(_rebuild_traffic(cached, _cache_state(database)))
        snapshot = session.stats.snapshot()
    return passes, answers, snapshot, traffic


def _scoped_eviction_costs():
    """Operator cost of re-running an unrelated probe around a write.

    Returns ``(warm_repeat_cost, after_write_cost)`` for a probe that reads
    only C_Order while the write lands on Customer: equality means the write
    evicted nothing the probe depends on.
    """
    example = build_paper_example()
    probe = _order_probe(example)
    with Session(
        example.database,
        example.mappings,
        links=example.links,
        policy=ExecutionPolicy(method="e-mqo"),
    ) as session:
        session.query(probe)  # populate the cache
        base = session.stats.totals.source_operators
        session.query(probe)  # warm repeat, no writes
        warm_repeat = session.stats.totals.source_operators - base
        example.database.append_rows("Customer", [_appended_row(99)])
        mid = session.stats.totals.source_operators
        session.query(probe)  # warm repeat across an unrelated write
        after_write = session.stats.totals.source_operators - mid
    return warm_repeat, after_write


def test_warm_writes(benchmark, report_writer):
    example = build_paper_example()
    probes = _probes(example)

    cold_passes, cold_answers = benchmark.pedantic(
        _run_cold, args=(probes,), rounds=1, iterations=1
    )
    warm_passes, warm_answers, session_snapshot, traffic = _run_warm(probes)
    warm_repeat_cost, after_write_cost = _scoped_eviction_costs()

    cold_ops = sum(entry["source_operators"] for entry in cold_passes)
    warm_ops = sum(entry["source_operators"] for entry in warm_passes)
    cold_seconds = sum(entry["seconds"] for entry in cold_passes)
    warm_seconds = sum(entry["seconds"] for entry in warm_passes)

    rows = [
        [
            f"after {cold_entry['writes_absorbed']} writes",
            round(cold_entry["seconds"], 4),
            cold_entry["source_operators"],
            round(warm_entry["seconds"], 4),
            warm_entry["source_operators"],
        ]
        for cold_entry, warm_entry in zip(cold_passes, warm_passes)
    ]
    rows.append(
        ["total", round(cold_seconds, 4), cold_ops, round(warm_seconds, 4), warm_ops]
    )
    text = (
        f"== Warm session vs cold across {K_WRITES} interleaved appends "
        f"({len(probes)}-query probe workload) ==\n\n"
        + format_table(
            ["checkpoint", "cold [s]", "cold ops", "warm [s]", "warm ops"], rows
        )
        + "\n\nsession: "
        + ", ".join(
            f"{key}={session_snapshot[key]}"
            for key in ("entries_patched", "entries_invalidated", "operators_saved")
        )
        + "\nrebuilds per write (index builds/cached indexes, "
        "profiles/profiled columns): "
        + ", ".join(
            f"{step['index_builds']}/{step['cached_indexes']} "
            f"{step['profiles']}/{step['profiled_columns']}"
            for step in traffic
        )
        + f"\nscoped eviction: warm repeat={warm_repeat_cost} ops, "
        f"repeat across unrelated write={after_write_cost} ops\n"
        "(wall-clock reported, not gated: operator counts are the "
        "deterministic metric on 1-core CI)\n"
    )
    report_writer("warm_writes", text)

    payload = {
        "workload": {
            "probes": [probe.name for probe in probes],
            "interleaved_appends": K_WRITES,
            "rows_per_append": 1,
        },
        "series": {
            "cold": {
                "passes": cold_passes,
                "total_source_operators": cold_ops,
                "total_seconds": cold_seconds,
            },
            "warm": {
                "passes": warm_passes,
                "total_source_operators": warm_ops,
                "total_seconds": warm_seconds,
            },
        },
        "session": {
            key: session_snapshot[key]
            for key in (
                "entries_patched",
                "entries_invalidated",
                "operators_saved",
                "plan_cache",
            )
        },
        "gates": {
            "warm_ops_strictly_fewer_than_cold": warm_ops < cold_ops,
            "unrelated_write_keeps_entries": after_write_cost == warm_repeat_cost,
        },
    }
    write_bench_artifact("warm_writes", payload)

    # Byte-identity at every checkpoint: the warm path answers exactly what
    # a cold full recompute answers, write after write.
    for cold_checkpoint, warm_checkpoint in zip(cold_answers, warm_answers):
        assert cold_checkpoint == warm_checkpoint
    # Gate: absorbing K appends warm beats K+1 cold evaluations outright.
    assert warm_ops < cold_ops
    # Gate: the session actually patched entries rather than dropping them.
    assert session_snapshot["entries_patched"] > 0
    # Gate: rebuilds are lazy and scoped — at most one per cached index and
    # per profiled column of the written relation, none anywhere else.
    assert len(traffic) == K_WRITES
    for step in traffic:
        assert step["index_builds"] <= step["cached_indexes"], step
        assert step["profiles"] <= step["profiled_columns"], step
        assert not step["other_relations_rebuilt"], step
    # Gate: a write to Customer does not evict entries that only read C_Order.
    assert after_write_cost == warm_repeat_cost
