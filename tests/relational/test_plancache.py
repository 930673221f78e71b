"""Unit tests for the plan-result cache and materialization policies."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.algebra import Join, Scan, Select
from repro.relational.database import Database
from repro.relational.expressions import col
from repro.relational.plancache import (
    MaterializeAll,
    MaterializeNone,
    MaterializeSelected,
    PlanCache,
    plan_cost,
    plan_dependencies,
)
from repro.relational.predicates import ColumnEquals, Equals
from repro.relational.relation import Relation
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.types import DataType

_I = DataType.INTEGER
_S = DataType.STRING


def select_plan(relation="emp", value=10):
    return Select(Scan(relation), Equals(col(f"{relation}.dept"), value))


def result_relation():
    return Relation(["emp.id"], [(1,), (2,)])


class TestPlanCost:
    def test_counts_every_node(self):
        plan = Select(Scan("emp"), Equals(col("emp.dept"), 10))
        assert plan_cost(plan) == 2
        join = Join(plan, Scan("dept"), ColumnEquals(col("emp.dept"), col("dept.id")))
        assert plan_cost(join) == 4

    def test_dependencies_are_scanned_relations(self):
        join = Join(
            select_plan(), Scan("dept"), ColumnEquals(col("emp.dept"), col("dept.id"))
        )
        assert plan_dependencies(join) == frozenset({"emp", "dept"})


class TestPlanCacheBasics:
    def test_miss_then_hit(self):
        cache = PlanCache(maxsize=4)
        plan = select_plan()
        key = plan.canonical()
        assert cache.claim(key) is None
        cache.put(key, plan, result_relation())
        cache.release(key)
        entry = cache.claim(key)
        assert entry is not None
        assert entry.relation.rows == [(1,), (2,)]
        assert entry.operator_count == 2
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.operators_saved == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_unbounded_cache(self):
        cache = PlanCache(maxsize=None)
        for value in range(100):
            plan = select_plan(value=value)
            cache.put(plan.canonical(), plan, result_relation())
        assert len(cache) == 100
        assert cache.stats.evictions == 0


class TestEviction:
    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        plans = [select_plan(value=v) for v in (1, 2, 3)]
        for plan in plans[:2]:
            cache.put(plan.canonical(), plan, result_relation())
        # Touch the first entry so the second becomes least recently used.
        assert cache.claim(plans[0].canonical()) is not None
        cache.put(plans[2].canonical(), plans[2], result_relation())
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert plans[0].canonical() in cache
        assert plans[1].canonical() not in cache
        assert plans[2].canonical() in cache


class TestInvalidation:
    def test_invalidate_by_dependency(self):
        cache = PlanCache()
        emp, dept = select_plan("emp"), select_plan("dept")
        cache.put(emp.canonical(), emp, result_relation())
        cache.put(dept.canonical(), dept, result_relation())
        dropped = cache.invalidate("emp")
        assert dropped == 1
        assert emp.canonical() not in cache
        assert dept.canonical() in cache
        assert cache.stats.invalidations == 1

    def test_invalidate_everything(self):
        cache = PlanCache()
        plan = select_plan()
        cache.put(plan.canonical(), plan, result_relation())
        assert cache.invalidate() == 1
        assert len(cache) == 0


@pytest.fixture()
def database():
    schema = DatabaseSchema(
        "S",
        [
            RelationSchema.build("emp", [("id", _I), ("dept", _I)]),
            RelationSchema.build("dept", [("id", _I), ("dname", _S)]),
        ],
    )
    db = Database(schema)
    db.set_relation(
        "emp", Relation.from_schema(schema.relation("emp"), [(1, 10), (2, 20)])
    )
    db.set_relation(
        "dept", Relation.from_schema(schema.relation("dept"), [(10, "db")])
    )
    return db


class TestDatabaseHooks:
    def test_mutation_invalidates_dependent_entries(self, database):
        cache = PlanCache()
        cache.attach(database)
        emp, dept = select_plan("emp"), select_plan("dept")
        cache.put(emp.canonical(), emp, result_relation())
        cache.put(dept.canonical(), dept, result_relation())
        database.set_relation(
            "emp",
            Relation.from_schema(database.schema.relation("emp"), [(3, 30)]),
        )
        assert emp.canonical() not in cache
        assert dept.canonical() in cache

    def test_index_invalidation_hook(self, database):
        cache = PlanCache()
        cache.attach(database)
        emp = select_plan("emp")
        cache.put(emp.canonical(), emp, result_relation())
        database.index_catalog.invalidate("emp")
        assert emp.canonical() not in cache

    def test_inplace_append_detected_as_stale(self, database):
        # Regression: Relation.append bumps the version token but fires no
        # invalidation hook; a version-checked lookup must treat the entry
        # as stale rather than serve the pre-mutation snapshot.
        cache = PlanCache()
        emp = select_plan("emp")
        cache.put(emp.canonical(), emp, result_relation(), database)
        assert cache.claim(emp.canonical(), database) is not None
        database.relation("emp").append((4, 10))
        assert cache.claim(emp.canonical(), database) is None
        assert emp.canonical() not in cache
        assert cache.stats.invalidations == 1

    def test_detach_stops_invalidation(self, database):
        cache = PlanCache()
        cache.attach(database)
        cache.detach(database)
        emp = select_plan("emp")
        cache.put(emp.canonical(), emp, result_relation())
        database.set_relation(
            "emp",
            Relation.from_schema(database.schema.relation("emp"), [(3, 30)]),
        )
        assert emp.canonical() in cache


class TestExecutorDefaultPolicy:
    def test_empty_cache_still_enables_materialize_all(self, database):
        # Regression: the default policy used the cache's truthiness, and a
        # fresh PlanCache is falsy (len 0) — caching silently never engaged.
        from repro.relational.executor import Executor

        cache = PlanCache(maxsize=8)
        executor = Executor(database, cache=cache)
        assert isinstance(executor.policy, MaterializeAll)
        plan = select_plan("emp")
        executor.execute(plan)
        executor.execute(plan)
        assert cache.stats.hits == 1


class TestComputeOnce:
    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_concurrent_misses_execute_a_shared_plan_once(self, database, engine):
        # Two executors share one cache and run the same plan.  The barrier
        # holds the first to dispatch the plan until the second has probed
        # the cache too: probed with a separate lookup and store, both miss
        # and both execute it.  Computed once, the second waits in the probe
        # (the barrier times out) and is served the first one's result.
        from repro.relational.executor import Executor
        from repro.relational.stats import ExecutionStats

        cache = PlanCache()
        plan = select_plan("emp")
        barrier = threading.Barrier(2, timeout=0.5)
        executors = []
        for _ in range(2):
            executor = Executor(database, cache=cache, stats=ExecutionStats(), engine=engine)
            dispatch = executor._dispatch if engine == "row" else executor._dispatch_columnar

            def held(node, _dispatch=dispatch):
                if node is plan:
                    try:
                        barrier.wait()
                    except threading.BrokenBarrierError:
                        pass
                return _dispatch(node)

            setattr(executor, dispatch.__name__, held)
            executors.append(executor)
        results = [None, None]

        def run(i):
            results[i] = executors[i].execute(plan)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert results[0].rows == results[1].rows == [(1, 10)]
        assert sum(e.stats.source_operators for e in executors) == plan_cost(plan)
        # the indexed select fuses its scan: one probe per execution
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_failed_computation_hands_the_key_on(self):
        cache = PlanCache()
        plan = select_plan()
        key = plan.canonical()
        assert cache.claim(key) is None
        claimed = []
        waiter = threading.Thread(target=lambda: claimed.append(cache.claim(key)))
        waiter.start()
        waiter.join(timeout=0.2)
        assert waiter.is_alive()  # waits while the key is in flight
        cache.release(key)  # the owner failed without storing a result
        waiter.join()
        assert claimed == [None]  # the waiter is the new owner
        cache.put(key, plan, result_relation())
        cache.release(key)
        assert cache.claim(key) is not None
        assert (cache.stats.misses, cache.stats.hits) == (2, 1)


class TestPolicies:
    def test_materialize_all(self):
        plan = select_plan()
        assert MaterializeAll().cache_key(plan) == plan.canonical()

    def test_materialize_none(self):
        assert MaterializeNone().cache_key(select_plan()) is None

    def test_materialize_selected(self):
        plan = select_plan()
        other = select_plan(value=99)
        policy = MaterializeSelected({plan.canonical()})
        assert policy.cache_key(plan) == plan.canonical()
        assert policy.cache_key(other) is None
        assert len(policy) == 1


class TestDistinctPatchingProperty:
    """Property: distinct-shape patching is byte-identical to a cold run.

    ``PlanCache.apply_write`` patches a cached DISTINCT projection by
    membership-filtering the delta's output rows.  Two classes of schedule
    must never desynchronise the warm entry from a cold recompute: appends
    whose rows duplicate values the entry already contains (they must not
    reappear), and appends interleaved with updates to an *unrelated*
    relation (they must not drop or disturb the entry).
    """

    @staticmethod
    def _fresh_database(emp_rows):
        schema = DatabaseSchema(
            "S",
            [
                RelationSchema.build("emp", [("id", _I), ("dept", _I)]),
                RelationSchema.build("dept", [("id", _I), ("dname", _S)]),
            ],
        )
        db = Database(schema)
        db.set_relation(
            "emp", Relation.from_schema(schema.relation("emp"), emp_rows)
        )
        db.set_relation(
            "dept", Relation.from_schema(schema.relation("dept"), [(10, "db")])
        )
        return db

    @given(
        initial=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 4)), max_size=12
        ),
        schedule=st.lists(
            st.one_of(
                st.lists(
                    st.tuples(st.integers(0, 9), st.integers(0, 4)),
                    min_size=1,
                    max_size=4,
                ),
                st.text("ab", min_size=1, max_size=3),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_patched_entry_matches_cold_recompute(self, initial, schedule):
        from repro.relational.algebra import Project
        from repro.relational.executor import Executor

        db = self._fresh_database(initial)
        cache = PlanCache()
        cache.attach(db)
        plan = Project(Scan("emp"), [col("emp.dept")], distinct=True)
        key = plan.canonical()
        Executor(db, cache=cache).execute(plan)  # warm the entry
        assert key in cache
        for step in schedule:
            if isinstance(step, str):
                # An update to the *unrelated* relation must leave the
                # emp-dependent entry intact (only emp writes touch it).
                db.update_rows("dept", [0], [(10, step)])
            else:
                db.append_rows("emp", step)  # values overlap by construction
        entry = cache.claim(key, db)
        assert entry is not None, "append/unrelated-update schedule dropped entry"
        cold = Executor(self._fresh_database(db.relation("emp").rows)).execute(plan)
        assert entry.relation.columns == cold.columns
        assert entry.relation.rows == cold.rows
