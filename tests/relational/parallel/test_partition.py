"""Unit tests for contiguous-morsel sharding and the version-keyed shard cache."""

from __future__ import annotations

import pytest

from repro.relational.database import Database
from repro.relational.parallel import (
    ParallelConfig,
    available_cpus,
    cached_chunk_columns,
    chunk_spans,
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


class TestShardCache:
    def test_slices_cached_per_version(self):
        relation = make_relation()
        first, spans = cached_chunk_columns(relation, 3, [0])
        second, _ = cached_chunk_columns(relation, 3, [0])
        # Same underlying slices: the second call hit the cache.
        assert first[0][0] is second[0][0]
        assert spans == [(0, 7), (7, 14), (14, 20)]
        assert [shard[0] for shard in first] == [
            [row[0] for row in relation.rows[a:b]] for a, b in spans
        ]

    def test_cache_reused_across_prefixed_and_renamed_views(self):
        relation = make_relation()
        base, _ = cached_chunk_columns(relation, 3, [0, 1])
        prefixed, _ = cached_chunk_columns(relation.prefixed("x"), 3, [0, 1])
        renamed, _ = cached_chunk_columns(relation.rename({"t.a": "t.alpha"}), 3, [0, 1])
        assert base[0][0] is prefixed[0][0] is renamed[0][0]
        assert base[2][1] is prefixed[2][1] is renamed[2][1]

    def test_new_shard_count_reslices(self):
        relation = make_relation()
        three, _ = cached_chunk_columns(relation, 3, [0])
        four, spans = cached_chunk_columns(relation, 4, [0])
        assert len(three) == 3 and len(four) == len(spans) == 4
        assert [value for shard in four for value in shard[0]] == list(range(20))

    def test_append_rebuilds(self):
        relation = make_relation()
        before, _ = cached_chunk_columns(relation, 3, [0])
        relation.append((99, "z"))
        after, spans = cached_chunk_columns(relation, 3, [0])
        assert spans[-1][1] == 21
        # The append rebuilds the slices as brand-new lists; the pre-append
        # slices keep their snapshot untouched.
        assert before[-1][0] is not after[-1][0]
        assert after[-1][0][-1] == 99
        assert sum(len(shard[0]) for shard in before) == 20
        assert [value for shard in after for value in shard[0]] == [
            row[0] for row in relation.rows
        ]

    def test_delete_rebuilds(self):
        relation = make_relation()
        cached_chunk_columns(relation, 3, [0])
        relation.delete_rows([0])
        after, spans = cached_chunk_columns(relation, 3, [0])
        assert spans[-1][1] == 19
        assert [value for shard in after for value in shard[0]] == [
            row[0] for row in relation.rows
        ]

    def test_set_relation_yields_fresh_slices(self):
        schema = DatabaseSchema(
            "db",
            [RelationSchema("t", [Attribute("t", "a"), Attribute("t", "b")])],
        )
        database = Database(schema, {"t": make_relation()})
        before, _ = cached_chunk_columns(database.relation("t"), 3, [0])
        database.set_relation(
            "t", Relation(["t.a", "t.b"], [(1, "x")], name="t")
        )
        after, spans = cached_chunk_columns(database.relation("t"), 3, [0])
        assert after == [[[1]]] and spans == [(0, 1)]
        assert sum(len(shard[0]) for shard in before) == 20


class TestParallelConfig:
    def test_workers_resolution_explicit_wins(self):
        assert ParallelConfig(workers=2).resolved_workers() == 2
        assert ParallelConfig().resolved_workers() == available_cpus()

    def test_shards_for_respects_min_rows(self):
        config = ParallelConfig(workers=4, min_partition_rows=100)
        assert config.shards_for(50) == 1  # too small to shard
        assert config.shards_for(250) == 2
        assert config.shards_for(10_000) == 4

    def test_zero_min_rows_always_shards(self):
        config = ParallelConfig(workers=4, min_partition_rows=0)
        assert config.shards_for(2) == 2
        assert config.shards_for(100) == 4
