"""Unit tests for the version-keyed statistics catalog."""

import pytest

from repro.relational.database import Database
from repro.relational.optimizer.statistics import (
    FAMILY_EMPTY,
    FAMILY_MIXED,
    FAMILY_NUMERIC,
    FAMILY_STRING,
    StatsCatalog,
    column_family,
    hash_compatible,
)
from repro.relational.relation import Relation
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.types import DataType

_I = DataType.INTEGER
_S = DataType.STRING


@pytest.fixture()
def database() -> Database:
    schema = DatabaseSchema(
        "S",
        [
            RelationSchema.build("emp", [("id", _I), ("name", _S), ("dept", _I)]),
            RelationSchema.build("void", [("x", _I)]),
        ],
    )
    db = Database(schema)
    db.set_relation(
        "emp",
        Relation.from_schema(
            schema.relation("emp"),
            [(1, "ann", 10), (2, "bob", 10), (3, "cat", 20), (4, None, 30)],
        ),
    )
    db.set_relation("void", Relation.from_schema(schema.relation("void"), []))
    return db


class TestColumnFamily:
    def test_families(self):
        assert column_family([1, 2.5, True]) == FAMILY_NUMERIC
        assert column_family(["a", "b"]) == FAMILY_STRING
        assert column_family([1, "a"]) == FAMILY_MIXED
        assert column_family([None, None]) == FAMILY_EMPTY
        assert column_family([]) == FAMILY_EMPTY

    def test_none_values_ignored(self):
        assert column_family([None, 3, None]) == FAMILY_NUMERIC

    def test_hash_compatibility(self):
        assert hash_compatible(FAMILY_NUMERIC, FAMILY_NUMERIC)
        assert hash_compatible(FAMILY_STRING, FAMILY_STRING)
        assert hash_compatible(FAMILY_EMPTY, FAMILY_NUMERIC)
        assert not hash_compatible(FAMILY_NUMERIC, FAMILY_STRING)
        assert not hash_compatible(FAMILY_MIXED, FAMILY_MIXED)


class TestStatsCatalog:
    def test_row_count(self, database):
        catalog = StatsCatalog(database)
        assert catalog.row_count("emp") == 4
        assert catalog.row_count("void") == 0
        assert catalog.row_count("missing") is None

    def test_column_profile(self, database):
        catalog = StatsCatalog(database)
        stats = catalog.column("emp", "dept")
        assert stats.count == 4
        assert stats.nulls == 0
        assert stats.ndv == 3
        assert stats.family == FAMILY_NUMERIC
        assert stats.minimum == 10 and stats.maximum == 30
        assert sum(count for _, _, count in stats.histogram) == 4

    def test_null_counting(self, database):
        stats = StatsCatalog(database).column("emp", "name")
        assert stats.nulls == 1
        assert stats.ndv == 3
        assert stats.family == FAMILY_STRING

    def test_lazy_collection_is_cached(self, database):
        catalog = StatsCatalog(database)
        first = catalog.column("emp", "dept")
        second = catalog.column("emp", "dept")
        assert first is second
        assert catalog.collections == 1

    def test_mutation_recollects(self, database):
        catalog = StatsCatalog(database)
        catalog.column("emp", "dept")
        relation = database.relation("emp")
        relation.append((5, "eve", 40))
        stats = catalog.column("emp", "dept")
        assert stats.ndv == 4
        assert catalog.collections == 2

    def test_relabelled_view_hits_cache(self, database):
        catalog = StatsCatalog(database)
        catalog.column("emp", "dept")
        database.scan("emp", alias="e1")  # a view sharing the version token
        catalog.column("emp", "dept")
        assert catalog.collections == 1

    def test_database_property_is_lazy_and_sticky(self, database):
        catalog = database.stats_catalog
        assert catalog is database.stats_catalog
        assert catalog.row_count("emp") == 4


class TestSelectivity:
    def test_equality_uses_ndv(self, database):
        stats = StatsCatalog(database).column("emp", "dept")
        assert stats.selectivity_eq() == pytest.approx(1 / 3)

    def test_equality_outside_histogram_range_is_zero(self, database):
        stats = StatsCatalog(database).column("emp", "dept")
        assert stats.selectivity_eq(99999) == 0.0

    def test_range_uses_histogram(self, database):
        stats = StatsCatalog(database).column("emp", "dept")
        assert stats.selectivity_range("<=", 10) < stats.selectivity_range("<=", 30)
        assert stats.selectivity_range(">", 30) == pytest.approx(0.0, abs=1e-9)

    def test_empty_column(self, database):
        stats = StatsCatalog(database).column("void", "x")
        assert stats.selectivity_eq() == 0.0
        assert stats.family == FAMILY_EMPTY


class TestRebuildCadence:
    """One profiling pass per column per written version that is read."""

    def test_long_append_schedule_profiles_once_per_read_version(self):
        schema = DatabaseSchema(
            "S", [RelationSchema.build("big", [("id", _I), ("val", _I)])]
        )
        db = Database(schema)
        db.set_relation(
            "big",
            Relation.from_schema(
                schema.relation("big"), [(i, i % 7) for i in range(100)]
            ),
        )
        catalog = StatsCatalog(db)
        catalog.column("big", "val")
        assert catalog.collections == 1
        next_id = 100
        for _ in range(12):
            rows = [(next_id + j, (next_id + j) % 7) for j in range(10)]
            db.append_rows("big", rows)
            next_id += 10
            first = catalog.column("big", "val")
            assert catalog.column("big", "val") is first  # read twice, profiled once
        assert catalog.collections == 13
        # The last profile matches a cold profile over the final rows.
        fresh = StatsCatalog(db).column("big", "val")
        final = catalog.column("big", "val")
        assert final.count == fresh.count == 220
        assert final.ndv == fresh.ndv
        assert final.nulls == fresh.nulls
        assert (final.minimum, final.maximum) == (fresh.minimum, fresh.maximum)
        assert final.histogram == fresh.histogram
