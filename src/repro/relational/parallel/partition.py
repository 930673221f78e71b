"""Horizontal sharding of relations and column batches.

Three partitioners cut an input of ``n`` rows into ``k`` shards:

* :func:`chunk_spans` — contiguous morsels (the parallel operators' default:
  concatenating per-morsel results in span order reproduces the serial row
  order exactly, which is what keeps answers byte-identical);
* :func:`round_robin_indices` — strided assignment, perfectly balanced even
  on sorted inputs (row ``i`` goes to shard ``i % k``);
* :func:`hash_partition_indices` — co-partitioning by a key column, so equal
  keys land in the same shard (the classic partitioned-join layout).

:func:`shard_relation` materialises shards of a base relation through a
**version-keyed shard cache** stored on the relation itself, alongside the
existing column-major cache: repeated parallel scans of the same (unchanged)
relation reuse the shard lists, relabelled views (``prefixed``/``rename``)
share them because the holder travels with the data, and any mutation bumps
the version token which invalidates the cached shards transparently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.relational.columnar import ColumnBatch
from repro.relational.relation import Relation

#: The partitioning modes :func:`shard_batch` understands.
PARTITION_MODES = ("chunk", "round-robin", "hash")


# --------------------------------------------------------------------------- #
# index-level partitioners
# --------------------------------------------------------------------------- #
def chunk_spans(n: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``shards`` contiguous, balanced ``(start, stop)`` spans.

    Sizes differ by at most one row; empty spans are never produced (fewer
    spans are returned when ``n < shards``).
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    shards = min(shards, n) or (1 if n == 0 else shards)
    if n == 0:
        return []
    base, extra = divmod(n, shards)
    spans = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


def round_robin_indices(n: int, shards: int) -> list[list[int]]:
    """Strided row-index lists: row ``i`` lands in shard ``i % shards``."""
    if shards <= 0:
        raise ValueError("shards must be positive")
    return [list(range(i, n, shards)) for i in range(min(shards, max(n, 1)))]


def hash_partition_indices(values: Sequence, shards: int) -> list[list[int]]:
    """Row-index lists co-partitioned by ``hash(value) % shards``.

    Equal key values always land in the same shard (the property a
    partitioned hash join needs).  Unhashable values raise ``TypeError``
    like any dict insertion would.
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    partitions: list[list[int]] = [[] for _ in range(shards)]
    for i, value in enumerate(values):
        partitions[hash(value) % shards].append(i)
    return partitions


# --------------------------------------------------------------------------- #
# shard sets
# --------------------------------------------------------------------------- #
@dataclass
class ShardSet:
    """The shards of one batch plus the bookkeeping to restore row order."""

    #: partitioning mode (one of :data:`PARTITION_MODES`)
    mode: str
    #: the shards, in partition order
    shards: list[ColumnBatch]
    #: original row indices per shard (``None`` entries for contiguous spans,
    #: whose indices are implied by :attr:`spans`)
    indices: list[list[int] | None]
    #: ``(start, stop)`` spans per shard for ``chunk`` mode, else ``None``
    spans: list[tuple[int, int]] | None = None

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def total_rows(self) -> int:
        """Rows across all shards (equals the source batch's length)."""
        return sum(len(shard) for shard in self.shards)

    def row_indices(self) -> list[list[int]]:
        """Original row indices per shard (computed for chunk spans)."""
        if self.spans is not None:
            return [list(range(start, stop)) for start, stop in self.spans]
        return [list(indices) for indices in self.indices]

    def reassemble(self) -> ColumnBatch:
        """Reconstruct a batch in the original row order (test helper)."""
        if not self.shards:
            return ColumnBatch((), [], length=0)
        first = self.shards[0]
        n = self.total_rows
        data: list[list] = [[None] * n for _ in first.columns]
        for shard, indices in zip(self.shards, self.row_indices()):
            for column, out in zip(shard.data, data):
                for local, original in enumerate(indices):
                    out[original] = column[local]
        return ColumnBatch(first.columns, data, name=first.name, length=n)


# --------------------------------------------------------------------------- #
# sharding (with the version-keyed cache for base relations)
# --------------------------------------------------------------------------- #
def _shard_data(
    data: Sequence[list], n: int, shards: int, mode: str, key_position: int | None
) -> tuple[list[list[list]], list[list[int] | None], list[tuple[int, int]] | None]:
    """Partition column-major ``data`` into per-shard column lists."""
    if mode == "chunk":
        spans = chunk_spans(n, shards)
        shard_data = [[column[a:b] for column in data] for a, b in spans]
        return shard_data, [None] * len(spans), spans
    if mode == "round-robin":
        index_lists = round_robin_indices(n, shards)
    elif mode == "hash":
        if key_position is None:
            raise ValueError("hash partitioning needs a key column position")
        index_lists = hash_partition_indices(data[key_position], shards)
    else:
        raise ValueError(f"unknown partition mode {mode!r}; available: {PARTITION_MODES}")
    shard_data = [
        [list(map(column.__getitem__, indices)) for column in data]
        for indices in index_lists
    ]
    return shard_data, [list(indices) for indices in index_lists], None


def shard_batch(
    batch: ColumnBatch,
    shards: int,
    mode: str = "chunk",
    key: str | int | None = None,
) -> ShardSet:
    """Cut ``batch`` into ``shards`` horizontal shards.

    ``key`` (a column label or position) selects the partitioning column for
    ``mode="hash"``.  When the batch wraps an unmutated base
    :class:`Relation` (``ColumnBatch.from_relation``), the shard lists come
    from the relation's version-keyed shard cache — see
    :func:`shard_relation`.
    """
    key_position = _resolve_key(batch, key) if mode == "hash" else None
    source = batch._source
    if source is not None:
        shard_data, indices, spans = _cached_shard_data(
            source, shards, mode, key_position
        )
    else:
        shard_data, indices, spans = _shard_data(
            batch.data, len(batch), shards, mode, key_position
        )
    batches = [
        ColumnBatch(batch.columns, data, name=batch.name, length=_shard_len(data, span))
        for data, span in zip(shard_data, spans or [None] * len(shard_data))
    ]
    return ShardSet(mode=mode, shards=batches, indices=indices, spans=spans)


def shard_relation(
    relation: Relation,
    shards: int,
    mode: str = "chunk",
    key: str | int | None = None,
) -> ShardSet:
    """Shard a base relation through its version-keyed shard cache.

    The cache holder lives on the relation (shared with ``prefixed``/
    ``rename`` views, exactly like the column-major cache), and entries are
    keyed on ``(version, shards, mode, key_position)``: a relabelled view of
    unchanged data reuses the shard lists, while ``set_relation`` (a new
    relation object) or an in-place ``append`` (a new version token) makes
    the cached shards unreachable or stale.
    """
    return shard_batch(ColumnBatch.from_relation(relation), shards, mode=mode, key=key)


def _shard_len(data: list[list], span: tuple[int, int] | None) -> int:
    if span is not None:
        return span[1] - span[0]
    return len(data[0]) if data else 0


def _resolve_key(batch: ColumnBatch, key: str | int | None) -> int:
    if key is None:
        raise ValueError("hash partitioning needs a key column (label or position)")
    if isinstance(key, int):
        if not 0 <= key < len(batch.columns):
            raise ValueError(f"key position {key} out of range for {list(batch.columns)}")
        return key
    return batch.resolve(key)


def cached_chunk_columns(
    relation: Relation, shards: int, positions: Sequence[int]
) -> tuple[list[list[list]], list[tuple[int, int]]]:
    """Contiguous-morsel slices of selected columns, version-cached per column.

    This is the entry point the parallel operators use to shard
    base-relation inputs: repeated parallel sweeps over the same unchanged
    relation (the common case in a workload — every source query scans the
    same base relations, and o-sharing re-feeds shared intermediates as
    materialized leaves) slice each *referenced* column once per shard
    count.  Caching per column keeps a wide relation whose predicate touches
    one attribute from paying slices for the other columns.

    Returns ``(shard_data, spans)`` where ``shard_data[i]`` holds the
    requested columns (in ``positions`` order) of morsel ``i``.

    The cache holds slices for **one shard count at a time** (the last one
    used): a config change rebuilds it rather than accumulating a redundant
    full copy of every hot column per distinct worker count.
    """
    holder = relation._shard_cache
    cached = holder[0]
    if cached is None or cached[0] != relation.version:
        entries: dict = {}
        holder[0] = (relation.version, entries)
    else:
        entries = cached[1]
    chunked = entries.get("chunk-columns")
    if chunked is None or chunked["shards"] != shards:
        chunked = {
            "shards": shards,
            "spans": chunk_spans(len(relation), shards),
            "columns": {},
        }
        entries["chunk-columns"] = chunked
    spans = chunked["spans"]
    column_cache = chunked["columns"]
    data = relation.column_data()
    sliced = []
    for position in positions:
        column_shards = column_cache.get(position)
        if column_shards is None:
            column = data[position]
            column_shards = [column[a:b] for a, b in spans]
            column_cache[position] = column_shards
        sliced.append(column_shards)
    shard_data = [
        [column_shards[i] for column_shards in sliced] for i in range(len(spans))
    ]
    return shard_data, spans


def _cached_shard_data(
    relation: Relation, shards: int, mode: str, key_position: int | None
):
    """Shard ``relation``'s column data, memoised on its version token."""
    holder = relation._shard_cache
    cached = holder[0]
    if cached is None or cached[0] != relation.version:
        entries: dict = {}
        holder[0] = (relation.version, entries)
    else:
        entries = cached[1]
    cache_key = (shards, mode, key_position)
    entry = entries.get(cache_key)
    if entry is None:
        entry = _shard_data(
            relation.column_data(), len(relation), shards, mode, key_position
        )
        entries[cache_key] = entry
    return entry
