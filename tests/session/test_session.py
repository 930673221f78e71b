"""Session lifecycle: persistent cross-query state, invalidation, threads.

The acceptance pins of the session-first API:

* a warm session **beats** a cold one — the second pass over a repeated
  workload reports plan-cache hits and executes strictly fewer source
  operators;
* ``Database.set_relation`` flushes the session-owned caches (a session can
  never serve stale results);
* ``close()`` is idempotent and shuts the session's worker pools down;
* concurrent ``query()`` calls from threads are safe end to end.
"""

from __future__ import annotations

import threading

import pytest

from repro import ExecutionPolicy, Session, connect
from repro.datagen.paper_example import build_paper_example
from repro.workloads import paper_query


def _answers(result):
    return dict(result.answers.items())


@pytest.fixture()
def example():
    """A fresh paper example per test (mutation tests poke at the database)."""
    return build_paper_example()


def _workload(example, repeats: int = 10):
    """A 20-query serving workload with heavy repetition (2 distinct)."""
    return [example.q0(), example.q2()] * repeats


# --------------------------------------------------------------------------- #
# warm beats cold (the acceptance criterion)
# --------------------------------------------------------------------------- #
class TestWarmSession:
    def test_second_pass_hits_cache_and_executes_strictly_fewer(self, example):
        queries = _workload(example)
        assert len(queries) == 20
        with Session(example.database, example.mappings, links=example.links) as s:
            first = s.query_many(queries)
            second = s.query_many(queries)
        assert second.stats.plan_cache_hits > 0
        assert second.stats.source_operators < first.stats.source_operators
        for one, two in zip(first.results, second.results):
            assert _answers(one) == _answers(two)
            assert one.answers.empty_probability == two.answers.empty_probability

    @pytest.mark.parametrize("method", ["e-basic", "q-sharing", "basic"])
    def test_optimizer_memo_persists_across_calls(self, example, method):
        with Session(example.database, example.mappings, links=example.links) as s:
            cold = s.query(example.q2(), method=method)
            assert s.stats.snapshot()["optimizer_memo_entries"] > 0
            warm = s.query(example.q2(), method=method)
        # Every plan of the second identical call is answered from the
        # session optimizer's fingerprint memo.
        assert warm.stats.plans_optimized == warm.stats.optimizer_memo_hits
        assert warm.stats.optimizer_memo_hits > 0
        assert _answers(cold) == _answers(warm)

    def test_emqo_shares_materializations_across_calls(self, example):
        with Session(example.database, example.mappings, links=example.links) as s:
            first = s.query(example.q2(), method="e-mqo")
            second = s.query(example.q2(), method="e-mqo")
        assert second.stats.source_operators <= first.stats.source_operators
        assert _answers(first) == _answers(second)

    def test_batch_result_plan_cache_snapshot_is_per_call(self, example):
        """The session cache is cumulative; each BatchResult reports its own call."""
        queries = _workload(example, repeats=5)
        with Session(example.database, example.mappings, links=example.links) as s:
            first = s.query_many(queries)
            second = s.query_many(queries)
            lifetime = s.stats.plan_cache
        for batch in (first, second):
            assert batch.plan_cache["hits"] == batch.stats.plan_cache_hits
            assert batch.plan_cache["misses"] == batch.stats.plan_cache_misses
        assert lifetime["hits"] == first.plan_cache["hits"] + second.plan_cache["hits"]

    def test_batch_method_via_query_records_planning_stats(self, example):
        policy = ExecutionPolicy(method="batch")
        with Session(
            example.database, example.mappings, links=example.links, policy=policy
        ) as s:
            s.query(example.q2())
            assert s.stats.queries == 1
            assert s.stats.totals.plans_optimized > 0

    def test_shutdown_pools_resets_the_default_manager_in_place(self, example):
        from repro.relational.parallel import (
            ParallelConfig,
            default_manager,
            shutdown_pools,
        )

        manager = default_manager()
        shutdown_pools()
        assert default_manager() is manager and not manager.closed
        config = ParallelConfig(workers=2, min_partition_rows=0)
        with connect(example, pools=manager, engine="parallel", parallel=config) as s:
            result = s.query(example.q2())
        assert len(result.answers) > 0 or result.answers.empty_probability > 0
        assert not manager.closed and manager.started_pools > 0

    def test_session_stats_aggregate_across_lifetime(self, example):
        with Session(example.database, example.mappings, links=example.links) as s:
            s.query(example.q0())
            s.query_many(_workload(example, repeats=2))
            s.query_many(_workload(example, repeats=2))
            stats = s.stats
        assert stats.queries == 1
        assert stats.workloads == 2
        assert stats.source_operators > 0
        assert stats.operators_saved > 0
        assert stats.plan_cache["hits"] > 0
        assert 0.0 < stats.plan_cache_hit_rate <= 1.0
        snapshot = stats.snapshot()
        for key in (
            "queries",
            "workloads",
            "source_operators",
            "operators_saved",
            "plan_cache",
            "plan_cache_hit_rate",
            "optimizer_memo_entries",
            "pools_started",
            "seconds",
        ):
            assert key in snapshot


# --------------------------------------------------------------------------- #
# invalidation
# --------------------------------------------------------------------------- #
class TestInvalidation:
    def test_set_relation_flushes_session_caches(self, example):
        queries = _workload(example, repeats=5)
        with Session(example.database, example.mappings, links=example.links) as s:
            first = s.query_many(queries)
            warmed = s.query_many(queries)
            assert warmed.stats.source_operators < first.stats.source_operators

            # Mutate every base relation (reinstalling the same contents
            # still counts as a mutation — the hook fires on set_relation).
            invalidations_before = s.plan_cache.stats.invalidations
            for name in example.database.relation_names:
                example.database.set_relation(name, example.database.relation(name))
            assert s.plan_cache.stats.invalidations > invalidations_before
            assert len(s.plan_cache) == 0

            # Cold again: the flushed session re-executes exactly the work
            # of the first pass, then re-warms.
            third = s.query_many(queries)
            assert third.stats.source_operators == first.stats.source_operators
            fourth = s.query_many(queries)
            assert fourth.stats.source_operators < third.stats.source_operators
        for one, two in zip(first.results, third.results):
            assert _answers(one) == _answers(two)


# --------------------------------------------------------------------------- #
# close / pools
# --------------------------------------------------------------------------- #
class TestLifecycle:
    def test_close_is_idempotent_and_blocks_serving(self, example):
        session = Session(example.database, example.mappings, links=example.links)
        session.query(example.q0())
        session.close()
        session.close()  # idempotent
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.query(example.q0())
        with pytest.raises(RuntimeError, match="closed"):
            session.query_many([example.q0()])
        # statistics stay readable after closing
        assert session.stats.queries == 1

    def test_close_detaches_the_plan_cache(self, example):
        session = Session(example.database, example.mappings, links=example.links)
        session.query_many(_workload(example, repeats=2))
        session.close()
        before = session.plan_cache.stats.invalidations
        for name in example.database.relation_names:
            example.database.set_relation(name, example.database.relation(name))
        assert session.plan_cache.stats.invalidations == before

    def test_close_shuts_down_lazily_started_pools(self, example):
        from repro.relational.parallel import ParallelConfig

        policy = ExecutionPolicy(
            engine="parallel",
            parallel=ParallelConfig(workers=2, min_partition_rows=0),
        )
        with Session(
            example.database, example.mappings, links=example.links, policy=policy
        ) as session:
            assert session.pools.started_pools == 0  # lazy: nothing yet
            result = session.query(example.q2())
            assert len(result.answers) > 0 or result.answers.empty_probability > 0
            assert session.pools.started_pools > 0  # morsel pool started
        assert session.pools.closed
        with pytest.raises(RuntimeError):
            session.pools.thread_pool(2)

    def test_pools_started_survives_close(self, example):
        from repro.relational.parallel import ParallelConfig

        policy = ExecutionPolicy(
            engine="parallel",
            parallel=ParallelConfig(workers=2, min_partition_rows=0),
        )
        session = Session(
            example.database, example.mappings, links=example.links, policy=policy
        )
        session.query(example.q2())
        started = session.stats.pools_started
        assert started > 0
        session.close()
        # lifetime statistics stay truthful after teardown
        assert session.stats.pools_started == started

    def test_close_drains_in_flight_calls(self, example):
        queries = _workload(example, repeats=5)
        session = Session(example.database, example.mappings, links=example.links)
        errors: list[BaseException] = []
        started = threading.Event()

        def worker() -> None:
            try:
                started.set()
                for _ in range(3):
                    session.query_many(queries)
            except RuntimeError:
                pass  # a later call observed the closed session: acceptable
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        thread = threading.Thread(target=worker)
        thread.start()
        started.wait()
        session.close()  # must drain the in-flight call, not crash it
        thread.join()
        assert not errors, errors
        assert session.closed

    def test_cache_size_override_is_rejected_not_ignored(self, example):
        with Session(example.database, example.mappings, links=example.links) as s:
            with pytest.raises(ValueError, match="fixed when the session"):
                s.query_many([example.q0()], cache_size=1)
            # restating the session's own value is fine
            s.query_many([example.q0()], cache_size=s.policy.cache_size)

    def test_injected_pool_manager_survives_close(self, example):
        """A shared pools manager is not shut down."""
        from repro.relational.parallel import PoolManager

        shared_pools = PoolManager()
        session = Session(
            example.database, example.mappings, links=example.links,
            pools=shared_pools,
        )
        session.query(example.q0())
        session.close()
        assert session.closed and not shared_pools.closed
        shared_pools.shutdown()

    def test_context_manager_closes_on_exit(self, example):
        with Session(example.database, example.mappings, links=example.links) as s:
            pass
        assert s.closed

    def test_policy_type_is_validated(self, example):
        with pytest.raises(ValueError, match="ExecutionPolicy"):
            Session(example.database, example.mappings, policy="o-sharing")


# --------------------------------------------------------------------------- #
# concurrency
# --------------------------------------------------------------------------- #
class TestThreadSafety:
    def test_concurrent_queries_share_session_state_safely(self, example):
        queries = [example.q0(), example.q2()]
        with Session(example.database, example.mappings, links=example.links) as s:
            expected = [_answers(s.query(q, method="e-mqo")) for q in queries]
            errors: list[BaseException] = []
            observed: list[list[dict]] = [[] for _ in range(6)]

            def worker(slot: int) -> None:
                try:
                    for _ in range(3):
                        for query in queries:
                            observed[slot].append(
                                _answers(s.query(query, method="e-mqo"))
                            )
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    errors.append(error)

            threads = [
                threading.Thread(target=worker, args=(slot,)) for slot in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = s.stats
        assert not errors, errors
        for per_thread in observed:
            assert per_thread == expected * 3
        assert stats.queries == 2 + 6 * 3 * 2

    def test_concurrent_workloads_match_serial(self, example):
        queries = _workload(example, repeats=3)
        with Session(example.database, example.mappings, links=example.links) as s:
            serial = s.query_many(queries)
            results: dict[int, object] = {}

            def worker(slot: int) -> None:
                results[slot] = s.query_many(queries)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for batch in results.values():
            for one, two in zip(serial.results, batch.results):
                assert _answers(one) == _answers(two)


# --------------------------------------------------------------------------- #
# serving loop, connect, top-k, explain, overrides
# --------------------------------------------------------------------------- #
class TestServingSurface:
    def test_serve_streams_results_in_request_order(self, example):
        requests = [
            example.q0(),
            (example.q2(), {"method": "e-basic"}),
            example.q0(),
        ]
        with Session(example.database, example.mappings, links=example.links) as s:
            results = list(s.serve(requests))
            assert s.stats.queries == 3
        assert [r.evaluator for r in results] == ["o-sharing", "e-basic", "o-sharing"]
        assert _answers(results[0]) == _answers(results[2])

    def test_serve_is_lazy(self, example):
        with Session(example.database, example.mappings, links=example.links) as s:
            stream = s.serve(iter([example.q0(), example.q0()]))
            assert s.stats.queries == 0  # nothing evaluated yet
            next(stream)
            assert s.stats.queries == 1

    def test_connect_builds_a_session_from_a_scenario(self, example):
        with connect(example, method="e-basic") as s:
            assert isinstance(s, Session)
            assert s.policy.method == "e-basic"
            result = s.query(example.q0())
        assert result.evaluator == "e-basic"

    def test_query_dispatches_top_k_method(self, example):
        policy = ExecutionPolicy(method="top-k", k=2)
        with Session(
            example.database, example.mappings, links=example.links, policy=policy
        ) as s:
            via_query = s.query(example.q0())
            via_top_k = s.top_k(example.q0())  # k from the policy
        assert via_query.evaluator == "top-k"
        assert _answers(via_query) == _answers(via_top_k)

    def test_top_k_requires_k_somewhere(self, example):
        with Session(example.database, example.mappings, links=example.links) as s:
            with pytest.raises(ValueError, match="top-k needs k"):
                s.top_k(example.q0())
            assert len(s.top_k(example.q0(), k=1).answers.ranked()) <= 1

    def test_explain_uses_the_session_optimizer(self, example):
        with Session(example.database, example.mappings, links=example.links) as s:
            text = s.explain(example.q2())
        assert "logical plan" in text
        assert "optimized plan" in text

    def test_top_k_accepts_redundant_method_override(self, example):
        with Session(example.database, example.mappings, links=example.links) as s:
            # The explicit k must merge before policy validation runs.
            result = s.top_k(example.q0(), k=2, method="top-k")
            assert result.evaluator == "top-k"

    def test_stats_are_point_in_time_copies(self, example):
        with Session(example.database, example.mappings, links=example.links) as s:
            before = s.stats
            assert before.source_operators == 0
            s.query(example.q0())
            after = s.stats
        assert before.source_operators == 0  # held snapshots never mutate
        assert after.source_operators > 0

    def test_injected_state_is_pinned_to_the_session_database(self, example):
        """Shared state must never serve a different database's queries."""
        other = build_paper_example()
        with Session(example.database, example.mappings, links=example.links) as s:
            s.query_many(_workload(example, repeats=3))
            assert len(s.plan_cache) > 0
            from repro.core.evaluators import BatchEvaluator

            foreign = BatchEvaluator(links=other.links, shared=s._shared)
            lookups_before = s.plan_cache.stats.lookups
            entries_before = len(s.plan_cache)
            for _ in range(2):
                foreign.evaluate_many(
                    _workload(other, repeats=3), other.mappings, other.database
                )
            # The foreign runs got throwaway caches: the session cache was
            # neither probed nor grown by another database's queries.
            assert s.plan_cache.stats.lookups == lookups_before
            assert len(s.plan_cache) == entries_before

    def test_per_call_overrides_are_validated(self, example):
        with Session(example.database, example.mappings, links=example.links) as s:
            with pytest.raises(ValueError, match="unknown option 'metod'"):
                s.query(example.q0(), metod="basic")
            with pytest.raises(ValueError, match="unknown engine"):
                s.query(example.q0(), engine="gpu")
            row = s.query(example.q0(), engine="row")
            default = s.query(example.q0())
            assert _answers(row) == _answers(default)

    def test_inapplicable_options_are_rejected_not_dropped(self, example):
        with Session(example.database, example.mappings, links=example.links) as s:
            with pytest.raises(ValueError, match="does not apply to method 'e-basic'"):
                s.query(example.q0(), method="e-basic", strategy="snf")
            with pytest.raises(ValueError, match="does not apply to method 'batch'"):
                s.query_many([example.q0()], strategy="snf")
            with pytest.raises(ValueError, match="does not apply to method 'top-k'"):
                s.top_k(example.q0(), k=2, prune_empty=False)
            # ...while applicable combinations still work, a budget on
            # top-k included: it is top-k's second stop rule
            s.query(example.q0(), method="o-sharing", strategy="snf")
            budgeted = s.top_k(example.q0(), k=2, budget={"eunit_limit": 1})
            assert budgeted.evaluator == "top-k"
            assert not budgeted.converged

    def test_method_override_on_fixed_method_calls_is_rejected(self, example):
        with Session(example.database, example.mappings, links=example.links) as s:
            with pytest.raises(ValueError, match="always runs 'batch'"):
                s.query_many([example.q0()], method="e-mqo")
            with pytest.raises(ValueError, match="always runs 'top-k'"):
                s.top_k(example.q0(), k=2, method="e-basic")
            # restating the call's own method stays legal
            s.query_many([example.q0()], method="batch")
            s.top_k(example.q0(), k=2, method="top-k")

    def test_explicit_cache_size_with_cacheless_method_is_rejected(self, example):
        with pytest.raises(ValueError, match="does not apply to method 'o-sharing'"):
            ExecutionPolicy().with_overrides(method="o-sharing", cache_size=10)
        # ...but it stays valid for the methods that consult the cache, and
        # as a session-level default regardless of method.
        with connect(example, cache_size=16) as s:
            assert s.plan_cache.maxsize == 16
            s.query(example.q0())

    def test_explicit_k_with_non_top_k_method_is_rejected(self, example):
        with Session(example.database, example.mappings, links=example.links) as s:
            with pytest.raises(ValueError, match="does not apply to method 'o-sharing'"):
                s.query(example.q0(), k=5)
        with pytest.raises(ValueError, match="does not apply"):
            ExecutionPolicy().with_overrides(method="o-sharing", k=5)
        # ...but k as a session-policy default for later top_k calls is fine
        policy = ExecutionPolicy(k=2)
        with Session(
            example.database, example.mappings, links=example.links, policy=policy
        ) as s:
            assert s.top_k(example.q0()).evaluator == "top-k"

    def test_connect_validates_the_policy_type(self, example):
        with pytest.raises(ValueError, match="ExecutionPolicy"):
            connect(example, policy={"method": "e-basic"})

    def test_connect_kwargs_are_session_defaults_not_overrides(self, example):
        """connect(scenario, method=..., k=...) configures defaults freely."""
        with connect(example, method="e-basic", k=10, strategy="snf") as s:
            assert (s.policy.method, s.policy.k) == ("e-basic", 10)
            assert s.query(example.q0()).evaluator == "e-basic"
            assert s.top_k(example.q0(), k=1).evaluator == "top-k"
        with pytest.raises(ValueError, match="unknown option"):
            connect(example, metod="e-basic")

    def test_concurrent_close_both_wait_for_release(self, example):
        session = Session(example.database, example.mappings, links=example.links)
        session.query(example.q0())
        threads = [threading.Thread(target=session.close) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # once any close() returned, the resources are released
        assert session.closed and session.pools.closed

    def test_unattached_shared_cache_is_never_reused(self, example):
        """A cache not attached to the database's hooks must not be shared."""
        from repro.core.evaluators import BatchEvaluator, SharedState
        from repro.relational.plancache import PlanCache

        stray = PlanCache(maxsize=64)  # never attached to any database
        evaluator = BatchEvaluator(
            links=example.links, shared=SharedState(plan_cache=stray)
        )
        evaluator.evaluate_many(
            _workload(example, repeats=3), example.mappings, example.database
        )
        assert len(stray) == 0 and stray.stats.lookups == 0
