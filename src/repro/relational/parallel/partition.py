"""Contiguous-morsel sharding of relations and column batches.

:func:`chunk_spans` cuts an input of ``n`` rows into ``k`` contiguous,
balanced morsels; concatenating per-morsel results in span order reproduces
the serial row order exactly, which is what keeps the parallel engine's
answers byte-identical.

:func:`cached_chunk_columns` slices base-relation columns into those morsels
through a **version-keyed shard cache** stored on the relation itself,
alongside the column-major cache: repeated parallel sweeps of the same
(unchanged) relation reuse the slices, relabelled views (``prefixed``/
``rename``) share them because the holder travels with the data, and any
mutation bumps the version token which invalidates the cached slices
transparently.
"""

from __future__ import annotations

from typing import Sequence

from repro.relational.relation import Relation


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
    if cached is None or cached[0] != relation.version or cached[1]["shards"] != shards:
        cached = (
            relation.version,
            {"shards": shards, "spans": chunk_spans(len(relation), shards), "columns": {}},
        )
        holder[0] = cached
    chunked = cached[1]
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
