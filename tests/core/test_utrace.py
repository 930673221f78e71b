"""Unit tests for the u-trace core: frontier order, counters, replay keys."""

from __future__ import annotations

import pytest

from repro.core.eunit import EUnit
from repro.core.evaluators.osharing import best_first, depth_first, trace_order
from repro.core.operator_selection import make_strategy
from repro.core.utrace import GroupTask, UTrace, root_unit
from repro.relational.executor import Executor
from repro.relational.stats import ExecutionStats

SCHEDULES = {"trace_order": trace_order, "best_first": best_first, "depth_first": depth_first}


def _drive(example, query, priority, **options):
    """Drive ``query`` to the end; returns (trace, stats, groups in execution order)."""
    stats = ExecutionStats()
    trace = UTrace(query, example.links, make_strategy("sef"), priority, **options)
    trace.visit(root_unit(query, example.mappings, stats), stats)
    ran: list[GroupTask] = []
    trace.drive(Executor(example.database, stats), stats, stop=lambda task: ran.append(task))
    return trace, stats, ran


class _M:
    def __init__(self, probability):
        self.probability = probability


def _task(path, index, mass):
    return GroupTask(EUnit(plan=None, mappings=[], path=path), index, (_M(mass),), mass)


class TestSchedules:
    def test_best_first_is_decreasing_mass(self):
        tasks = [_task((), 0, 0.2), _task((), 1, 0.5), _task((0,), 0, 0.3)]
        assert [t.mass for t in sorted(tasks, key=best_first)] == [0.5, 0.3, 0.2]

    def test_depth_first_prefers_deeper_then_heavier(self):
        tasks = [_task((), 1, 0.5), _task((0,), 0, 0.1), _task((0,), 1, 0.2)]
        ordered = sorted(tasks, key=depth_first)
        assert [(t.unit.path, t.index) for t in ordered] == [((0,), 1), ((0,), 0), ((), 1)]

    def test_trace_order_runs_a_units_groups_before_any_child(self):
        tasks = [_task((1,), 0, 0.9), _task((0, 0), 0, 0.9), _task((), 1, 0.1), _task((0,), 0, 0.5)]
        ordered = sorted(tasks, key=trace_order)
        assert [t.unit.path for t in ordered] == [(), (0,), (0, 0), (1,)]

    def test_equal_priorities_run_first_in_first_out(self, paper_example):
        query = paper_example.q2()
        _, _, ran = _drive(paper_example, query, lambda task: ())
        # one constant priority: the heap degenerates to the queueing order,
        # which is breadth-first over the u-trace
        assert [task.unit.depth for task in ran] == sorted(task.unit.depth for task in ran)

    def test_drives_follow_their_priority(self, paper_example):
        query = paper_example.q2()
        _, _, ran = _drive(paper_example, query, best_first)
        masses = [task.mass for task in ran]
        assert masses == sorted(masses, reverse=True)
        _, _, ran = _drive(paper_example, query, trace_order)
        keys = [trace_order(task) for task in ran]
        assert keys == sorted(keys)
        _, _, ran = _drive(paper_example, query, depth_first)
        for before, after in zip(ran, ran[1:]):
            # depth-first: the next group belongs to the unit just spawned or
            # to an ancestor-or-self of the unit that just ran
            spawned = before.unit.path + (before.index,)
            assert after.unit.path in (spawned, *(spawned[:n] for n in range(len(spawned))))


class TestCoreBookkeeping:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_counters_and_answers_do_not_depend_on_the_schedule(self, paper_example, schedule):
        for query in (paper_example.q0(), paper_example.q2(), paper_example.q_phone_by_addr()):
            reference, reference_stats, _ = _drive(paper_example, query, trace_order)
            trace, stats, ran = _drive(paper_example, query, SCHEDULES[schedule])
            assert trace.exhausted and trace.unexplored_mass() == 0
            assert dict(trace.replay().items()) == dict(reference.replay().items())
            assert trace.details(stats) == reference.details(reference_stats)
            assert stats.reformulations == len(ran)
            # every e-unit but the root was spawned by one group that matched
            unmatched = sum(1 for key, _, _ in trace.contributions if -1 in key)
            assert stats.eunits_created == 1 + len(ran) - unmatched

    def test_settled_units_are_answered_or_pruned(self, paper_example):
        query = paper_example.q2()
        trace, stats, _ = _drive(paper_example, query, trace_order)
        settled = [key for key, _, _ in trace.contributions if -1 not in key]
        assert trace.units_answered + stats.eunits_pruned == len(settled)
        assert trace.max_depth == max(len(key) for key in settled)

    def test_stopped_drive_keeps_the_rest_queued(self, paper_example):
        query = paper_example.q2()
        stats = ExecutionStats()
        trace = UTrace(query, paper_example.links, make_strategy("sef"), best_first)
        trace.visit(root_unit(query, paper_example.mappings, stats), stats)
        queued = trace.pending_tasks
        trace.drive(Executor(paper_example.database, stats), stats, stop=lambda task: True)
        assert stats.total_operators == 0 and trace.pending_tasks == queued
        assert trace.unexplored_mass() == pytest.approx(1.0)
        assert dict(trace.replay().items()) == {}

    def test_replay_orders_unmatched_groups_before_child_subtrees(self):
        trace = UTrace(None, None, None, trace_order)
        # settled out of order, as a best-first drive would
        trace.contributions += [
            ((1, 0), [("late",)], 0.1),
            ((0,), [("first",)], 0.2),
            ((1, -1, 1), None, 0.3),
            ((-1, 2), None, 0.4),
        ]
        ordered = sorted(trace.contributions, key=lambda entry: entry[0])
        assert [key for key, _, _ in ordered] == [(-1, 2), (0,), (1, -1, 1), (1, 0)]
        answers = trace.replay()
        assert answers.tuples == [("first",), ("late",)]
        assert answers.empty_probability == pytest.approx(0.7)
