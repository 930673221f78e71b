"""Writes-axis differential harness: warm sessions must survive writes.

The delta-maintenance machinery (plan-cache patching, index patching,
incremental statistics, shard-cache extension) may change how much work a
warm session does after a write — never what it answers.  For every
registered evaluator × engine, a session is kept warm across an interleaved
schedule of appends, updates, deletes and one wholesale ``set_relation``,
and after every write each probe query's warm answer is compared
*byte-identically* (exact float equality, exact empty-answer mass) against
a cold evaluation (a fresh session) over a fresh database with the same
writes replayed — the full-recompute reference the delta path must match.
"""

from __future__ import annotations

import pytest

from repro import ExecutionPolicy, Session
from repro.bench.harness import cold_query
from repro.core.evaluators import EVALUATORS
from repro.datagen.paper_example import build_paper_example
from repro.relational.executor import available_engines

ENGINES = available_engines()  # vector drops out on NumPy-less installs
from repro.relational.relation import Relation

#: Every exact-answer method (top-k answers only its first k tuples).
ALL_EVALUATORS = tuple(method for method in EVALUATORS if method != "top-k")

#: The interleaved write schedule.  Steps touch Customer (the relation every
#: mapping reads), C_Order (read only via Order queries) and Nation (written
#: wholesale, exercising the invalidation path next to the delta path).
#: Customer columns: (cid, cname, ophone, hphone, mobile, oaddr, haddr, nid).
WRITE_SCHEDULE = [
    ("append_rows", "Customer", ([(4, "Dave", "123", "444", "558", "ddd", "hk", 2)],)),
    ("append_rows", "C_Order", ([(12, 3, 42.0), (13, 4, 7.5)],)),
    (
        "update_rows",
        "Customer",
        ([1], [(2, "Bob", "123", "456", "556", "aaa", "bbb", 2)]),
    ),
    ("delete_rows", "Customer", ([0],)),
    ("append_rows", "Customer", ([(5, "Erin", "123", "789", "559", "eee", "aaa", 1)],)),
    ("set_relation", "Nation", ([(1, "China"), (2, "Japan"), (3, "Korea")],)),
]


def _apply(database, step) -> None:
    op, name, args = step
    if op == "set_relation":
        schema = database.schema.relation(name)
        database.set_relation(name, Relation.from_schema(schema, args[0]))
    else:
        getattr(database, op)(name, *args)


def _replayed_example(steps: int):
    """A fresh paper example with the first ``steps`` writes replayed."""
    example = build_paper_example()
    for step in WRITE_SCHEDULE[:steps]:
        _apply(example.database, step)
    return example


def _answer_map(result):
    return dict(result.answers.items())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("method", ALL_EVALUATORS)
def test_warm_session_survives_interleaved_writes(method, engine):
    """After every write, warm answers == cold full recompute, byte for byte."""
    example = build_paper_example()
    policy = ExecutionPolicy(method=method, engine=engine)
    with Session(
        example.database, example.mappings, links=example.links, policy=policy
    ) as session:
        for steps in range(len(WRITE_SCHEDULE) + 1):
            if steps:
                _apply(session.database, WRITE_SCHEDULE[steps - 1])
            cold_example = _replayed_example(steps)
            for build in (cold_example.q0, cold_example.q2):
                query = build()
                cold = cold_query(query, cold_example, method=method, engine=engine)
                warm = session.query(query)
                again = session.query(query)  # serve from whatever stayed warm
                label = f"{method}@{engine} after {steps} writes ({query.name})"
                assert _answer_map(warm) == _answer_map(cold), label
                assert _answer_map(again) == _answer_map(cold), f"{label} (rewarmed)"
                assert (
                    warm.answers.empty_probability
                    == again.answers.empty_probability
                    == cold.answers.empty_probability
                ), label


def test_delta_patched_session_executes_fewer_operators_than_cold():
    """The point of the machinery: appends keep the session warm.

    A warm session absorbing K appends must execute strictly fewer source
    operators than K+1 cold evaluations of the same probe query — the
    monotone entries are patched, not re-executed.  (Deterministic operator
    counts, not wall clock: this must hold on a one-core CI runner.)
    """
    appends = [
        ("append_rows", "Customer", ([(10 + i, f"W{i}", "123", "444", "555",
                                       f"w{i}", "hk", 1)],))
        for i in range(4)
    ]
    example = build_paper_example()
    policy = ExecutionPolicy(method="e-mqo")  # the plan-cache-backed evaluator
    with Session(
        example.database, example.mappings, links=example.links, policy=policy
    ) as session:
        session.query(example.q0())  # warm up
        warmed = session.stats.totals.source_operators
        for step in appends:
            _apply(session.database, step)
            session.query(example.q0())
        warm_cost = session.stats.totals.source_operators - warmed
        assert session.stats.entries_patched > 0

    cold_costs = 0
    replayed = build_paper_example()
    cold_costs += cold_query(replayed.q0(), replayed, method="e-mqo").stats.source_operators
    for step in appends:
        _apply(replayed.database, step)
        cold_costs += cold_query(replayed.q0(), replayed, method="e-mqo").stats.source_operators
    assert warm_cost < cold_costs
