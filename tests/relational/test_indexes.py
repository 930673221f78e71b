"""Unit tests for hash indexes."""

from repro.relational.indexes import HashIndex, IndexCatalog
from repro.relational.relation import Relation


def relation():
    return Relation(["r.a", "r.b"], [(1, "x"), (2, "y"), (1, "z")], name="r")


class TestHashIndex:
    def test_lookup_positions(self):
        index = HashIndex(relation(), "r.a")
        assert index.lookup(1) == [0, 2]
        assert index.lookup(3) == []

    def test_lookup_rows(self):
        index = HashIndex(relation(), "r.a")
        assert index.lookup_rows(2) == [(2, "y")]

    def test_lookup_rows_reads_the_rows_it_was_built_from(self):
        rel = relation()
        index = HashIndex(rel, "r.a")
        rel.delete_rows([0])
        assert index.lookup_rows(1) == [(1, "x"), (1, "z")]

    def test_contains_and_len(self):
        index = HashIndex(relation(), "r.a")
        assert 1 in index
        assert 3 not in index
        assert len(index) == 2

    def test_unhashable_values_are_skipped(self):
        rel = Relation(["r.a"], [([1, 2],), (3,)])
        index = HashIndex(rel, "r.a")
        assert index.lookup(3) == [1]


class TestIndexCatalog:
    def test_caches_per_relation_and_column(self):
        catalog = IndexCatalog()
        rel = relation()
        first = catalog.get(rel, "r", "r.a")
        second = catalog.get(rel, "r", "r.a")
        assert first is second
        assert len(catalog) == 1

    def test_rebuilds_when_relation_object_changes(self):
        catalog = IndexCatalog()
        first = catalog.get(relation(), "r", "r.a")
        second = catalog.get(relation(), "r", "r.a")
        assert first is not second

    def test_fresh_view_of_same_data_hits_cache(self):
        # Regression: a fresh aliased view of unchanged data used to force a
        # rebuild (the cache compared object identity).  Views created by
        # prefixed()/rename() share the data-version token, so repeated
        # indexed selects build exactly one index.
        catalog = IndexCatalog()
        rel = relation()
        first = catalog.get(rel, "r", "r.a")
        view = rel.prefixed("r")
        assert view is not rel
        second = catalog.get(view, "r", "r.a")
        assert first is second
        assert catalog.builds == 1

    def test_mutation_forces_rebuild(self):
        catalog = IndexCatalog()
        rel = relation()
        first = catalog.get(rel, "r", "r.a")
        rel.append((5, "w"))
        second = catalog.get(rel, "r", "r.a")
        assert first is not second
        assert second.lookup(5) == [3]
        assert catalog.builds == 2

    def test_invalidation_listener_notified(self):
        catalog = IndexCatalog()
        seen = []
        catalog.add_invalidation_listener(seen.append)
        catalog.get(relation(), "r", "r.a")
        catalog.invalidate("r")
        catalog.invalidate()
        assert seen == ["r", None]
        catalog.remove_invalidation_listener(seen.append)
        catalog.invalidate()
        assert seen == ["r", None]

    def test_invalidate_single_relation(self):
        catalog = IndexCatalog()
        rel = relation()
        catalog.get(rel, "r", "r.a")
        catalog.get(rel, "r", "r.b")
        catalog.invalidate("r")
        assert len(catalog) == 0

    def test_invalidate_all(self):
        catalog = IndexCatalog()
        catalog.get(relation(), "r", "r.a")
        catalog.invalidate()
        assert len(catalog) == 0


class TestRebuildAfterWrites:
    """A write bumps the version token; the next ``get`` builds a fresh index."""

    def test_append_rebuilds_on_next_get(self):
        catalog = IndexCatalog()
        rel = relation()
        index = catalog.get(rel, "r", "r.a")
        rel.append_rows([(2, "w"), (4, "u")])
        rebuilt = catalog.get(rel, "r", "r.a")
        assert rebuilt is not index
        assert rebuilt.lookup(2) == [1, 3]
        assert rebuilt.lookup(4) == [4]
        assert rebuilt.lookup_rows(2) == [(2, "y"), (2, "w")]
        assert catalog.builds == 2

    def test_delete_rebuilds_on_next_get(self):
        # Deleting positions 1 and 3 keeps rows 0/2/4, which shift down to
        # 0/1/2 in the rebuilt buckets.
        catalog = IndexCatalog()
        rel = Relation(["r.a"], [(1,), (2,), (1,), (3,), (2,)], name="r")
        catalog.get(rel, "r", "r.a")
        rel.delete_rows([1, 3])
        rebuilt = catalog.get(rel, "r", "r.a")
        assert rebuilt.lookup(1) == [0, 1]
        assert rebuilt.lookup(2) == [2]
        assert 3 not in rebuilt
        assert catalog.builds == 2

    def test_update_rebuilds_on_next_get(self):
        catalog = IndexCatalog()
        rel = Relation(["r.a"], [(1,), (2,), (1,)], name="r")
        catalog.get(rel, "r", "r.a")
        rel.update_rows([0, 2], [(2,), (4,)])
        rebuilt = catalog.get(rel, "r", "r.a")
        assert rebuilt.lookup(1) == []
        assert rebuilt.lookup(2) == [0, 1]
        assert rebuilt.lookup(4) == [2]
        assert catalog.builds == 2

    def test_writes_between_reads_rebuild_once(self):
        catalog = IndexCatalog()
        rel = Relation(["r.a"], [(i % 3,) for i in range(9)], name="r")
        catalog.get(rel, "r", "r.a")
        rel.append_rows([(5,), (0,)])
        rel.update_rows([0, 4, 9], [(7,), (7,), (1,)])
        rel.delete_rows([2, 3, 10])
        rebuilt = catalog.get(rel, "r", "r.a")
        assert catalog.get(rel, "r", "r.a") is rebuilt
        assert rebuilt._buckets == HashIndex(rel, "r.a")._buckets
        assert catalog.builds == 2

    def test_prewrite_index_is_untouched_by_writes(self):
        catalog = IndexCatalog()
        rel = Relation(["r.a", "r.b"], [(1, "x"), (2, "y"), (1, "z")], name="r")
        index = catalog.get(rel, "r", "r.a")
        rel.update_rows([0], [(2, "u")])
        rel.append_rows([(1, "w")])
        assert index.lookup(1) == [0, 2]
        assert index.lookup_rows(1) == [(1, "x"), (1, "z")]
        assert index.lookup(2) == [1]

    def test_older_snapshot_gets_an_index_over_its_own_rows(self):
        # An executor that pinned a view before a write asks for the index of
        # that view: same version, same rows — never the live relation's.
        catalog = IndexCatalog()
        rel = relation()
        pinned = rel.prefixed("r")
        rel.delete_rows([0])
        live = catalog.get(rel, "r", "r.a")
        assert live.lookup_rows(1) == [(1, "z")]
        snapshot = catalog.get(pinned, "r", "r.a")
        assert snapshot.lookup_rows(1) == [(1, "x"), (1, "z")]
        assert catalog.builds == 2
