"""Unit tests for the write path.

Covers the chain one layer at a time: the
:class:`~repro.relational.relation.Delta` records produced by relation-level
writes, the :class:`~repro.relational.database.Database` write API and its
listener chain, the version-keyed derived structures that rebuild lazily
after a write, and plan-cache shape analysis
(:func:`~repro.relational.plancache.append_shape`) and entry patching — the
one structure a write patches.  The invariant throughout: after a write,
every cache must be *byte-identical* to recomputing from scratch.
"""

from __future__ import annotations

import threading

import pytest

from repro.relational import vector
from repro.relational.algebra import (
    Aggregate,
    Join,
    Product,
    Project,
    Scan,
    Select,
    Union,
)
from repro.relational.columnar import ColumnBatch
from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.expressions import col
from repro.relational.indexes import IndexCatalog
from repro.relational.parallel.partition import cached_chunk_columns
from repro.relational.plancache import PlanCache, append_shape
from repro.relational.predicates import ColumnEquals, Equals
from repro.relational.relation import (
    DELTA_APPEND,
    DELTA_DELETE,
    DELTA_UPDATE,
    Relation,
)
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.types import DataType

_I = DataType.INTEGER
_S = DataType.STRING


def make_relation(n: int = 4) -> Relation:
    return Relation(
        ["t.a", "t.b"], [(i, f"v{i}") for i in range(n)], name="t"
    )


def make_database() -> Database:
    schema = DatabaseSchema(
        "S",
        [
            RelationSchema.build("emp", [("id", _I), ("dept", _I)]),
            RelationSchema.build("dept", [("id", _I), ("dname", _S)]),
        ],
    )
    db = Database(schema)
    db.set_relation(
        "emp",
        Relation.from_schema(
            schema.relation("emp"), [(1, 10), (2, 20), (3, 10)]
        ),
    )
    db.set_relation(
        "dept", Relation.from_schema(schema.relation("dept"), [(10, "db"), (20, "os")])
    )
    return db


# --------------------------------------------------------------------------- #
# relation-level deltas
# --------------------------------------------------------------------------- #
class TestRelationWrites:
    def test_append_rows_delta(self):
        relation = make_relation()
        before = relation.version
        delta = relation.append_rows([(4, "v4"), (5, "v5")])
        assert delta is not None
        assert delta.kind == DELTA_APPEND and delta.is_append
        assert delta.base_version == before
        assert delta.version == relation.version > before
        assert delta.rows == ((4, "v4"), (5, "v5"))
        assert relation.rows[-2:] == [(4, "v4"), (5, "v5")]
        assert len(relation) == 6

    def test_empty_append_writes_nothing(self):
        relation = make_relation()
        before = relation.version
        assert relation.append_rows([]) is None
        assert relation.version == before

    def test_append_validates_width(self):
        with pytest.raises(ValueError, match="row width"):
            make_relation().append_rows([(1, "x", "extra")])

    def test_update_rows_delta(self):
        relation = make_relation()
        delta = relation.update_rows([2, 0], [(20, "u2"), (0, "u0")])
        assert delta.kind == DELTA_UPDATE
        # Positions are normalised to ascending order, rows re-paired.
        assert delta.positions == (0, 2)
        assert delta.rows == ((0, "u0"), (20, "u2"))
        assert relation.rows[0] == (0, "u0")
        assert relation.rows[2] == (20, "u2")
        assert len(relation) == 4

    def test_update_rejects_bad_positions(self):
        relation = make_relation()
        with pytest.raises(ValueError, match="duplicate"):
            relation.update_rows([1, 1], [(0, "a"), (0, "b")])
        with pytest.raises(IndexError, match="out of range"):
            relation.update_rows([99], [(0, "a")])
        with pytest.raises(ValueError, match="positions"):
            relation.update_rows([0, 1], [(0, "a")])

    def test_delete_rows_delta(self):
        relation = make_relation()
        delta = relation.delete_rows([3, 1, 1])
        assert delta.kind == DELTA_DELETE
        assert delta.positions == (1, 3)  # deduplicated, ascending
        assert relation.rows == [(0, "v0"), (2, "v2")]
        assert len(relation) == 2

    def test_delete_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            make_relation().delete_rows([4])

    def test_views_keep_their_snapshot(self):
        relation = make_relation()
        view = relation.prefixed("x")
        relation.append_rows([(9, "v9")])
        assert len(view) == 4  # the pre-write snapshot
        assert len(relation) == 5
        assert view.rows == [(i, f"v{i}") for i in range(4)]

    def test_cached_batches_unaffected_by_writes(self):
        relation = make_relation()
        batch = ColumnBatch.from_relation(relation)
        snapshot = [list(column) for column in batch.data]
        relation.append_rows([(9, "v9")])
        relation.update_rows([0], [(-1, "u")])
        relation.delete_rows([1])
        assert [list(column) for column in batch.data] == snapshot

    def test_views_keep_their_derived_data(self):
        # A write installs fresh cache holders on the written relation only;
        # a relabelled view keeps the old holders and what they cached.
        relation = make_relation()
        view = relation.prefixed("x")
        columns = relation.column_data()
        shards = cached_chunk_columns(relation, 2, [0, 1])
        holders = (relation._column_cache, relation._shard_cache, relation._vector_cache)
        relation.append_rows([(9, "v9")])
        assert all(
            kept is old
            for kept, old in zip(
                (view._column_cache, view._shard_cache, view._vector_cache), holders
            )
        )
        assert all(
            new is not old
            for new, old in zip(
                (relation._column_cache, relation._shard_cache, relation._vector_cache),
                holders,
            )
        )
        assert view.column_data() is columns
        assert cached_chunk_columns(view, 2, [0, 1]) == shards
        assert relation.column_data()[0] == [0, 1, 2, 3, 9]
        assert cached_chunk_columns(relation, 2, [0])[1] == [(0, 3), (3, 5)]


class TestConcurrentWrites:
    def test_readers_never_see_torn_derived_data(self):
        # Every row is (i, i), so any column-major snapshot or index bucket
        # mixing two versions would show up as mismatched columns or rows.
        relation = Relation(["t.a", "t.b"], [(0, 0)], name="t")
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer():
            try:
                for i in range(1, 300):
                    relation.append_rows([(i, i)])
                    if i % 50 == 10:
                        relation.update_rows([0], [(i, i)])
                    if i % 70 == 20:
                        relation.delete_rows([1])
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            catalog = IndexCatalog()
            try:
                while not stop.is_set():
                    first, second = relation.column_data()
                    assert first == second
                    index = catalog.get(relation, "t", "t.a")
                    for value in (0, 10, 60):
                        assert all(row == (value, value) for row in index.lookup_rows(value))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        first, second = relation.column_data()
        assert first == second == [row[0] for row in relation.rows]


# --------------------------------------------------------------------------- #
# database write API
# --------------------------------------------------------------------------- #
class TestDatabaseWrites:
    def test_writes_publish_deltas_to_listeners(self):
        db = make_database()
        events = []
        db.add_write_listener(lambda name, delta: events.append((name, delta.kind)))
        db.append_rows("emp", [(4, 20)])
        db.update_rows("emp", [0], [(1, 30)])
        db.delete_rows("dept", [1])
        assert events == [
            ("emp", DELTA_APPEND),
            ("emp", DELTA_UPDATE),
            ("dept", DELTA_DELETE),
        ]

    def test_empty_writes_publish_nothing(self):
        db = make_database()
        events = []
        db.add_write_listener(lambda name, delta: events.append(name))
        assert db.append_rows("emp", []) is None
        assert db.delete_rows("emp", []) is None
        assert events == []

    def test_set_relation_does_not_fire_write_listeners(self):
        db = make_database()
        events = []
        db.add_write_listener(lambda name, delta: events.append(name))
        db.set_relation(
            "emp", Relation.from_schema(db.schema.relation("emp"), [(9, 90)])
        )
        assert events == []

    def test_remove_write_listener(self):
        db = make_database()
        events = []
        listener = lambda name, delta: events.append(name)  # noqa: E731
        db.add_write_listener(listener)
        db.remove_write_listener(listener)
        db.append_rows("emp", [(4, 20)])
        assert events == []

    def test_write_to_missing_relation_raises(self):
        with pytest.raises(KeyError):
            make_database().append_rows("ghost", [(1,)])


class TestIndexesAfterWrites:
    def test_append_rebuilds_cached_index_lazily(self):
        db = make_database()
        index = db.index("emp", "dept")
        assert index.lookup(10) == [0, 2]
        builds = db.index_catalog.builds
        db.append_rows("emp", [(4, 10), (5, 30)])
        assert db.index_catalog.builds == builds  # nothing built at write time
        rebuilt = db.index("emp", "dept")
        assert rebuilt is not index
        assert db.index_catalog.builds == builds + 1
        assert rebuilt.lookup(10) == [0, 2, 3]
        assert rebuilt.lookup(30) == [4]
        assert db.index("emp", "dept") is rebuilt

    def test_nonappend_writes_rebuild_cached_index_once(self):
        db = make_database()
        db.index("emp", "dept")
        builds = db.index_catalog.builds
        db.delete_rows("emp", [0])
        db.update_rows("emp", [0], [(2, 30)])
        rebuilt = db.index("emp", "dept")
        assert db.index_catalog.builds == builds + 1
        assert rebuilt.lookup(10) == [1]  # positions renumbered after the delete
        assert rebuilt.lookup(30) == [0]  # re-keyed by the update

    def test_wholesale_replacement_drops_cached_index(self):
        db = make_database()
        db.index("emp", "dept")
        builds = db.index_catalog.builds
        db.set_relation(
            "emp", Relation.from_schema(db.schema.relation("emp"), [(9, 90)])
        )
        fresh = db.index("emp", "dept")
        assert db.index_catalog.builds == builds + 1
        assert fresh.lookup(90) == [0]

    def test_write_keeps_other_relations_indexes(self):
        db = make_database()
        dept_index = db.index("dept", "id")
        db.index("emp", "dept")
        builds = db.index_catalog.builds
        db.append_rows("emp", [(4, 20)])
        db.delete_rows("emp", [0])
        assert db.index("dept", "id") is dept_index
        assert db.index_catalog.builds == builds


# --------------------------------------------------------------------------- #
# version-keyed derived structures: rebuilt lazily, equal to a fresh build
# --------------------------------------------------------------------------- #
_T_SCHEMA = DatabaseSchema("S", [RelationSchema.build("t", [("a", _I), ("b", _S)])])

#: Write schedules, as ``(Database method, arguments)`` steps.
_WRITES = {
    "append": [("append_rows", ([(8, "s0"), (2, "s9")],))],
    "update": [("update_rows", ([0, 5], [(7, "s7"), (2, "s1")]))],
    "delete": [("delete_rows", ([1, 4],))],
    "mixed chain": [
        ("append_rows", ([(9, "s2")],)),
        ("update_rows", ([2], [(0, "s0")])),
        ("delete_rows", ([0, 3],)),
        ("append_rows", ([(5, None), (6, "s6")],)),
    ],
    "wholesale replacement": [
        (
            "set_relation",
            (Relation.from_schema(_T_SCHEMA.relation("t"), [(3, "s3"), (9, "s1")]),),
        )
    ],
}


def _vector_entry(entry):
    """A classified vector column as plain, comparable values."""
    if entry is None:
        return None
    array, has_nan = entry
    return array.dtype.str, array.tolist(), has_nan


def _derived(db: Database) -> dict:
    """Every version-keyed structure derived from relation ``t`` (built or cached)."""
    relation = db.relation("t")
    keys = {"a": [*range(10), None], "b": [*(f"s{i}" for i in range(10)), None]}
    derived = {
        "column_data": relation.column_data(),
        "index_lookups": {
            (attribute, value): (
                db.index("t", attribute).lookup(value),
                db.index("t", attribute).lookup_rows(value),
            )
            for attribute, values in keys.items()
            for value in values
        },
        "column_stats": [db.stats_catalog.column("t", name) for name in keys],
        "row_count": db.stats_catalog.row_count("t"),
        "chunk_shards": cached_chunk_columns(relation, 2, [1, 0]),
        "chunk_columns": cached_chunk_columns(relation, 3, [0, 1]),
    }
    if vector.numpy_available():
        batch = ColumnBatch.from_relation(relation)
        derived["vector_entries"] = [
            _vector_entry(vector.column_entry(batch, position)) for position in (0, 1)
        ]
    return derived


@pytest.mark.parametrize("schedule", list(_WRITES), ids=list(_WRITES))
def test_derived_structures_match_a_fresh_build_after_writes(schedule):
    rows = [(i % 5, f"s{i % 3}") for i in range(8)]
    db = Database(_T_SCHEMA, {"t": Relation.from_schema(_T_SCHEMA.relation("t"), rows)})
    _derived(db)  # warm every cache at the pre-write version
    for method, arguments in _WRITES[schedule]:
        getattr(db, method)("t", *arguments)
    written = db.relation("t")
    fresh = Database(
        _T_SCHEMA, {"t": Relation(written.columns, written.rows, name=written.name)}
    )
    assert _derived(db) == _derived(fresh)


# --------------------------------------------------------------------------- #
# plan-cache shape analysis and patching
# --------------------------------------------------------------------------- #
class TestAppendShape:
    def test_monotone_chains(self):
        assert append_shape(Scan("emp")) == "plain"
        select = Select(Scan("emp"), Equals(col("emp.dept"), 10))
        assert append_shape(select) == "plain"
        assert append_shape(Project(select, [col("emp.id")])) == "plain"

    def test_distinct_projection(self):
        plan = Project(
            Select(Scan("emp"), Equals(col("emp.dept"), 10)),
            [col("emp.dept")],
            distinct=True,
        )
        assert append_shape(plan) == "distinct"
        assert append_shape(Select(plan, Equals(col("emp.dept"), 10))) == "distinct"

    def test_distinct_below_bag_projection_rejected(self):
        # A bag projection above a distinct may re-duplicate rows, so
        # filtering delta output by membership would be wrong.
        inner = Project(Scan("emp"), [col("emp.dept")], distinct=True)
        assert append_shape(Project(inner, [col("emp.dept")])) is None

    def test_binary_and_aggregating_plans_rejected(self):
        emp, dept = Scan("emp"), Scan("dept")
        assert append_shape(Join(emp, dept, ColumnEquals(col("emp.dept"), col("dept.id")))) is None
        assert append_shape(Product(emp, dept)) is None
        # Union included: left-input appends belong mid-output, not at the end.
        assert append_shape(Union(emp, emp)) is None
        assert append_shape(Aggregate(emp, "COUNT")) is None


class TestPlanCachePatching:
    def _warm(self, db, cache, plan):
        executor = Executor(db, cache=cache)
        return executor.execute(plan)

    def test_append_patches_monotone_entry(self):
        db = make_database()
        cache = PlanCache()
        cache.attach(db)
        plan = Select(Scan("emp"), Equals(col("emp.dept"), 10))
        self._warm(db, cache, plan)
        db.append_rows("emp", [(4, 10), (5, 20)])
        entry = cache.claim(plan.canonical(), db)
        assert entry is not None, "patched entry must survive the version check"
        assert cache.stats.patches == 1
        # Byte-identical to a cold recompute on the post-write data.
        cold = Executor(make_post_append_database()).execute(plan)
        assert entry.relation.rows == cold.rows
        assert entry.relation.columns == cold.columns

    def test_distinct_entry_filters_duplicates(self):
        db = make_database()
        cache = PlanCache()
        cache.attach(db)
        plan = Project(Scan("emp"), [col("emp.dept")], distinct=True)
        self._warm(db, cache, plan)
        db.append_rows("emp", [(4, 10), (5, 20)])  # 10 and 20 already present
        entry = cache.claim(plan.canonical(), db)
        assert entry is not None
        cold = Executor(make_post_append_database()).execute(plan)
        assert entry.relation.rows == cold.rows

    def test_join_entry_dropped_on_append(self):
        db = make_database()
        cache = PlanCache()
        cache.attach(db)
        plan = Join(
            Scan("emp"), Scan("dept"), ColumnEquals(col("emp.dept"), col("dept.id"))
        )
        self._warm(db, cache, plan)
        db.append_rows("emp", [(4, 10)])
        assert plan.canonical() not in cache

    def test_write_scoped_to_dependents(self):
        db = make_database()
        cache = PlanCache()
        cache.attach(db)
        emp_plan = Select(Scan("emp"), Equals(col("emp.dept"), 10))
        dept_plan = Select(Scan("dept"), Equals(col("dept.id"), 10))
        self._warm(db, cache, emp_plan)
        self._warm(db, cache, dept_plan)
        dept_entry = cache.claim(dept_plan.canonical(), db)
        db.update_rows("emp", [0], [(1, 30)])  # drops emp dependents only
        assert emp_plan.canonical() not in cache
        surviving = cache.claim(dept_plan.canonical(), db)
        assert surviving is not None
        assert surviving.relation is dept_entry.relation

    def test_version_gap_drops_instead_of_patching(self):
        db = make_database()
        cache = PlanCache()
        plan = Select(Scan("emp"), Equals(col("emp.dept"), 10))
        result = Executor(db).execute(plan)
        stale = db.relation("emp").version - 1  # a token the entry never saw
        cache.put(plan.canonical(), plan, result, db, versions={"emp": stale})
        patched, dropped = cache.apply_write(
            db, "emp", db.relation("emp").append_rows([(4, 10)])
        )
        assert (patched, dropped) == (0, 1)
        assert plan.canonical() not in cache

    def test_detached_cache_ignores_writes(self):
        db = make_database()
        cache = PlanCache()
        cache.attach(db)
        cache.detach(db)
        plan = Select(Scan("emp"), Equals(col("emp.dept"), 10))
        Executor(db, cache=cache).execute(plan)
        before = cache.stats.patches + cache.stats.invalidations
        db.append_rows("emp", [(4, 10)])
        assert cache.stats.patches + cache.stats.invalidations == before


def make_post_append_database() -> Database:
    """The make_database() instance after the canonical test append."""
    db = make_database()
    db.relation("emp").append_rows([(4, 10), (5, 20)])
    return db


# --------------------------------------------------------------------------- #
# statistics catalog
# --------------------------------------------------------------------------- #
class TestStatsAfterWrites:
    @staticmethod
    def _seeded(n: int = 100) -> Database:
        return Database(
            _T_SCHEMA,
            {
                "t": Relation.from_schema(
                    _T_SCHEMA.relation("t"), [(i % 50, f"s{i % 7}") for i in range(n)]
                )
            },
        )

    @staticmethod
    def _as_dict(stats):
        return {
            "count": stats.count,
            "nulls": stats.nulls,
            "ndv": stats.ndv,
            "family": stats.family,
            "minimum": stats.minimum,
            "maximum": stats.maximum,
            "histogram": stats.histogram,
        }

    def test_append_reprofiles_on_next_read(self):
        db = self._seeded()
        catalog = db.stats_catalog
        catalog.column("t", "a")
        collections = catalog.collections
        db.append_rows("t", [(10, "s1"), (25, "s9"), (49, None)])
        assert catalog.collections == collections  # nothing profiled at write time
        refreshed = catalog.column("t", "a")
        assert catalog.collections == collections + 1
        assert refreshed.count == 103
        full = type(catalog)(db).column("t", "a")
        assert self._as_dict(refreshed) == self._as_dict(full)

    def test_string_column_reprofiles_too(self):
        db = self._seeded()
        catalog = db.stats_catalog
        catalog.column("t", "b")
        db.append_rows("t", [(1, "s9"), (2, None)])
        refreshed = catalog.column("t", "b")
        assert (refreshed.ndv, refreshed.nulls) == (8, 1)
        full = type(catalog)(db).column("t", "b")
        assert self._as_dict(refreshed) == self._as_dict(full)

    def test_out_of_range_append_reprofiles(self):
        db = self._seeded()
        catalog = db.stats_catalog
        catalog.column("t", "a")
        collections = catalog.collections
        db.append_rows("t", [(999, "s0")])  # outside the profiled [min, max]
        fresh = catalog.column("t", "a")
        assert catalog.collections == collections + 1
        assert fresh.maximum == 999

    def test_nonappend_write_reprofiles(self):
        db = self._seeded()
        catalog = db.stats_catalog
        catalog.column("t", "a")
        collections = catalog.collections
        db.update_rows("t", [0], [(-3, "s1")])
        refreshed = catalog.column("t", "a")
        assert catalog.collections == collections + 1
        assert refreshed.minimum == -3
        db.delete_rows("t", [0])
        assert catalog.column("t", "a").minimum == 0
        assert catalog.collections == collections + 2

    def test_writes_between_reads_profile_once(self):
        db = self._seeded()
        catalog = db.stats_catalog
        catalog.column("t", "a")
        collections = catalog.collections
        db.append_rows("t", [(7, "s7")])
        db.update_rows("t", [1], [(8, "s8")])
        db.delete_rows("t", [2])
        refreshed = catalog.column("t", "a")
        assert catalog.column("t", "a") is refreshed
        assert catalog.collections == collections + 1

    def test_write_keeps_other_relations_profiles(self):
        db = make_database()
        catalog = db.stats_catalog
        dept = catalog.column("dept", "dname")
        catalog.column("emp", "dept")
        collections = catalog.collections
        db.append_rows("emp", [(4, 20)])
        assert catalog.column("dept", "dname") is dept
        assert catalog.collections == collections

    def test_row_count_tracks_writes(self):
        db = Database(
            _T_SCHEMA,
            {
                "t": Relation.from_schema(
                    _T_SCHEMA.relation("t"), [(i, f"s{i % 7}") for i in range(10)]
                )
            },
        )
        catalog = db.stats_catalog
        assert catalog.row_count("t") == 10
        db.append_rows("t", [(1, "s1")])
        assert catalog.row_count("t") == 11
        db.delete_rows("t", [0, 1])
        assert catalog.row_count("t") == 9
