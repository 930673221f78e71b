"""Unit tests for the horizontal partitioners and the version-keyed shard cache."""

from __future__ import annotations

import pytest

from repro.relational.columnar import ColumnBatch
from repro.relational.database import Database
from repro.relational.parallel import (
    ParallelConfig,
    chunk_spans,
    configure,
    default_config,
    hash_partition_indices,
    round_robin_indices,
    shard_batch,
    shard_relation,
)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema


def make_relation(n: int = 20) -> Relation:
    return Relation(
        ["t.a", "t.b"], [(i, f"v{i % 3}") for i in range(n)], name="t"
    )


class TestChunkSpans:
    def test_balanced_and_complete(self):
        spans = chunk_spans(10, 3)
        assert spans == [(0, 4), (4, 7), (7, 10)]
        covered = [i for a, b in spans for i in range(a, b)]
        assert covered == list(range(10))

    def test_never_more_spans_than_rows(self):
        assert chunk_spans(2, 8) == [(0, 1), (1, 2)]

    def test_empty_input(self):
        assert chunk_spans(0, 4) == []

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            chunk_spans(5, 0)


class TestRoundRobin:
    def test_strided_assignment(self):
        indices = round_robin_indices(7, 3)
        assert indices == [[0, 3, 6], [1, 4], [2, 5]]

    def test_balanced_on_sorted_input(self):
        indices = round_robin_indices(100, 4)
        assert all(len(shard) == 25 for shard in indices)


class TestHashPartition:
    def test_equal_keys_colocated(self):
        values = [1, 2, 1, 3, 2, 1]
        partitions = hash_partition_indices(values, 3)
        home = {}
        for shard, indices in enumerate(partitions):
            for i in indices:
                assert home.setdefault(values[i], shard) == shard

    def test_covers_all_rows(self):
        partitions = hash_partition_indices(list("abcabcxyz"), 4)
        assert sorted(i for p in partitions for i in p) == list(range(9))


class TestShardSet:
    @pytest.mark.parametrize("mode,key", [("chunk", None), ("round-robin", None), ("hash", "a")])
    def test_reassemble_restores_row_order(self, mode, key):
        relation = make_relation(23)
        shard_set = shard_relation(relation, 4, mode=mode, key=key)
        assert shard_set.total_rows == 23
        assert list(shard_set.reassemble().iter_rows()) == relation.rows

    def test_hash_mode_needs_key(self):
        with pytest.raises(ValueError, match="key"):
            shard_relation(make_relation(), 4, mode="hash")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown partition mode"):
            shard_relation(make_relation(), 4, mode="range")

    def test_shard_batch_without_source(self):
        batch = ColumnBatch(["x"], [[3, 1, 2, 5, 4]])
        shard_set = shard_batch(batch, 2)
        assert [list(s.data[0]) for s in shard_set.shards] == [[3, 1, 2], [5, 4]]


class TestShardCache:
    def test_shards_cached_per_version(self):
        relation = make_relation()
        first = shard_relation(relation, 3)
        second = shard_relation(relation, 3)
        # Same underlying column lists: the second call hit the cache.
        assert first.shards[0].data[0] is second.shards[0].data[0]

    def test_cache_reused_across_prefixed_and_renamed_views(self):
        relation = make_relation()
        base = shard_relation(relation, 3)
        prefixed = shard_relation(relation.prefixed("x"), 3)
        renamed = shard_relation(relation.rename({"t.a": "t.alpha"}), 3)
        assert base.shards[0].data[0] is prefixed.shards[0].data[0]
        assert base.shards[0].data[0] is renamed.shards[0].data[0]
        # ... but each view's shards carry the view's own labels.
        assert prefixed.shards[0].columns == ("x.a", "x.b")
        assert renamed.shards[0].columns == ("t.alpha", "t.b")

    def test_distinct_shard_counts_cached_separately(self):
        relation = make_relation()
        three = shard_relation(relation, 3)
        four = shard_relation(relation, 4)
        assert len(three.shards) == 3
        assert len(four.shards) == 4

    def test_mutation_invalidates(self):
        relation = make_relation()
        before = shard_relation(relation, 3)
        relation.append((99, "z"))
        after = shard_relation(relation, 3)
        assert after.total_rows == before.total_rows + 1
        # The append rebuilds the shards as brand-new lists; the pre-append
        # ShardSet keeps its snapshot untouched.
        assert before.shards[-1].data[0] is not after.shards[-1].data[0]
        assert after.shards[-1].data[0][-1] == 99
        assert before.total_rows == 20
        assert after.reassemble().data[0] == [row[0] for row in relation.rows]

    def test_nonappend_mutation_rebuilds_shards(self):
        relation = make_relation()
        before = shard_relation(relation, 3)
        relation.delete_rows([0])
        after = shard_relation(relation, 3)
        assert after.total_rows == before.total_rows - 1
        assert after.reassemble().data[0] == [row[0] for row in relation.rows]

    def test_set_relation_yields_fresh_shards(self):
        schema = DatabaseSchema(
            "db",
            [RelationSchema("t", [Attribute("t", "a"), Attribute("t", "b")])],
        )
        database = Database(schema, {"t": make_relation()})
        before = shard_relation(database.relation("t"), 3)
        database.set_relation(
            "t", Relation(["t.a", "t.b"], [(1, "x")], name="t")
        )
        after = shard_relation(database.relation("t"), 3)
        assert after.total_rows == 1
        assert before.total_rows == 20


class TestParallelConfig:
    def test_workers_resolution_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "7")
        assert ParallelConfig(workers=2).resolved_workers() == 2
        assert ParallelConfig().resolved_workers() == 7

    def test_shards_for_respects_min_rows(self):
        config = ParallelConfig(workers=4, min_partition_rows=100)
        assert config.shards_for(50) == 1  # too small to shard
        assert config.shards_for(250) == 2
        assert config.shards_for(10_000) == 4

    def test_zero_min_rows_always_shards(self):
        config = ParallelConfig(workers=4, min_partition_rows=0)
        assert config.shards_for(2) == 2
        assert config.shards_for(100) == 4

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="pool kind"):
            ParallelConfig(kind="greenlet")

    def test_configure_restores_default(self):
        original = default_config()
        with configure(workers=13) as config:
            assert default_config() is config
            assert config.workers == 13
        assert default_config() is original
