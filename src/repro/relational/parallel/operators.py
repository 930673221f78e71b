"""Morsel-driven parallel implementations of the columnar operators.

Every function here reproduces its serial twin in
:mod:`repro.relational.columnar` / :class:`~repro.relational.executor.Executor`
**byte-identically**: inputs are cut into contiguous morsels
(:func:`~repro.relational.parallel.partition.chunk_spans`), each morsel is
processed by a worker, and the per-morsel results are concatenated in span
order — which is exactly the serial iteration order.  Where an operator folds
floats (SUM/AVG), the fold happens per *group* with the members in serial
order, never across morsel partials, so even float rounding matches.

The kernels are building blocks; operator selection, statistics counting and
the per-node fallback to the serial columnar path stay in the executor.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import Any, Sequence

from repro.relational.columnar import ColumnBatch, predicate_mask
from repro.relational.parallel.config import ParallelConfig
from repro.relational.parallel.partition import cached_chunk_columns, chunk_spans
from repro.relational.parallel.pool import run_tasks
from repro.relational.predicates import Predicate
from repro.relational.vector import vector_predicate_mask


# --------------------------------------------------------------------------- #
# predicate masks (select, join residuals)
# --------------------------------------------------------------------------- #
def _mask_morsel(
    predicate: Predicate, labels: tuple, data: list[list], length: int
) -> list[bool]:
    """One morsel's mask.

    When NumPy is importable the morsel tries the vector kernel first — the
    mask is plain Python bools either way, so the parallel engine's results
    stay byte-identical while its sweeps run at array speed (this is what
    makes ``engine="parallel"`` pay off on column scans).
    """
    batch = ColumnBatch(labels, data, length=length)
    mask = vector_predicate_mask(predicate, batch)
    if mask is not None:
        return mask
    return predicate_mask(predicate, batch)


def _referenced_restriction(
    predicate: Predicate, batch: ColumnBatch
) -> tuple[tuple, list[int]] | None:
    """Only the columns the predicate touches (cuts slicing cost).

    Resolution against the restricted label subset cannot drift from the full
    batch: qualified/exact references keep their label, and an unqualified
    suffix match that is unique in the full label set stays unique in any
    subset of it.  ``None`` when the references cannot be resolved up front
    (the serial sweep will raise the same error the row engine would).
    """
    try:
        refs = predicate.referenced_columns()
        positions: list[int] = []
        seen: set[int] = set()
        for ref in refs:
            position = batch.resolve(ref.name, ref.qualifier)
            if position not in seen:
                seen.add(position)
                positions.append(position)
    except (KeyError, AttributeError):
        return None
    labels = tuple(batch.columns[i] for i in positions)
    return labels, positions


def parallel_predicate_mask(
    predicate: Predicate,
    batch: ColumnBatch,
    config: ParallelConfig,
    pools=None,
    tracer=None,
) -> list[bool]:
    """``predicate_mask`` computed over contiguous morsels in parallel.

    A batch that still wraps a relation (``ColumnBatch.from_relation``: a
    scanned base relation, or a shared intermediate re-fed as a
    ``Materialized`` leaf — o-sharing sweeps those once per e-unit) shards
    through the relation's version-keyed shard cache, so every sweep over
    the same unchanged relation — across operators, queries and relabelled
    views — reuses the morsel slices instead of re-slicing the columns.
    Only the columns the predicate references are sliced and cached.
    """
    n = len(batch)
    shards = config.shards_for(n)
    if shards <= 1:
        return predicate_mask(predicate, batch)
    restricted = _referenced_restriction(predicate, batch)
    if restricted is None:
        return predicate_mask(predicate, batch)
    labels, positions = restricted
    source = batch._source
    if source is not None:
        shard_data, spans = cached_chunk_columns(source, shards, positions)
        tasks = [
            (predicate, labels, data, b - a)
            for data, (a, b) in zip(shard_data, spans)
        ]
    else:
        spans = chunk_spans(n, shards)
        columns = [batch.data[p] for p in positions]
        tasks = [
            (predicate, labels, [column[a:b] for column in columns], b - a)
            for a, b in spans
        ]
    if tracer is not None:
        tracer.event("kernel", kernel="predicate_mask", morsels=len(tasks), rows=n)
    masks = run_tasks(config, _mask_morsel, tasks, pools=pools, tracer=tracer)
    return list(chain.from_iterable(masks))


# --------------------------------------------------------------------------- #
# hash join (build + probe over morsels)
# --------------------------------------------------------------------------- #
def _build_single(column: list, start: int, stop: int, drop_null: bool) -> dict:
    buckets: dict[Any, list[int]] = defaultdict(list)
    if drop_null:
        for i in range(start, stop):
            value = column[i]
            if value is not None and value == value:
                buckets[value].append(i)
    else:
        for i in range(start, stop):
            buckets[column[i]].append(i)
    return buckets


def _build_composite(
    columns: list[list], start: int, stop: int, drop_null: bool
) -> dict:
    buckets: dict[tuple, list[int]] = defaultdict(list)
    slices = [column[start:stop] for column in columns]
    if drop_null:
        for i, key in enumerate(zip(*slices)):
            if all(value is not None and value == value for value in key):
                buckets[key].append(start + i)
    else:
        for i, key in enumerate(zip(*slices)):
            buckets[key].append(start + i)
    return buckets


def _probe_single(
    column: list, start: int, stop: int, buckets: dict
) -> tuple[list[int], list[int]]:
    left_idx: list[int] = []
    right_idx: list[int] = []
    lookup = buckets.get
    for i in range(start, stop):
        bucket = lookup(column[i])
        if bucket:
            left_idx.extend([i] * len(bucket))
            right_idx.extend(bucket)
    return left_idx, right_idx


def _probe_composite(
    columns: list[list], start: int, stop: int, buckets: dict
) -> tuple[list[int], list[int]]:
    left_idx: list[int] = []
    right_idx: list[int] = []
    lookup = buckets.get
    slices = [column[start:stop] for column in columns]
    for i, key in enumerate(zip(*slices)):
        bucket = lookup(key)
        if bucket:
            left_idx.extend([start + i] * len(bucket))
            right_idx.extend(bucket)
    return left_idx, right_idx


def parallel_join_indices(
    left: ColumnBatch,
    right: ColumnBatch,
    pairs: Sequence[tuple[int, int]],
    pure_equi: bool,
    config: ParallelConfig,
    pools=None,
    tracer=None,
) -> tuple[list[int], list[int]]:
    """Matching ``(left_idx, right_idx)`` row indices of a hash equi-join.

    Build side (right) morsels produce local bucket dicts with *global* row
    indices; merging them in span order keeps every bucket's index list
    ascending — the order the serial build produces.  Probe side (left)
    morsels then scan the shared merged buckets; concatenating their outputs
    in span order is exactly the serial probe order.  Both phases share the
    bucket dicts across the pool's threads.
    """
    single = len(pairs) == 1
    if single:
        right_column = right.data[pairs[0][1]]
        left_column = left.data[pairs[0][0]]
    else:
        right_columns = [right.data[p[1]] for p in pairs]
        left_columns = [left.data[p[0]] for p in pairs]

    build_shards = config.shards_for(len(right))
    build_spans = chunk_spans(len(right), max(build_shards, 1))
    if tracer is not None:
        tracer.event(
            "kernel",
            kernel="join_build_probe",
            build_morsels=len(build_spans),
            build_rows=len(right),
            probe_rows=len(left),
        )
    if single:
        build_tasks = [(right_column, a, b, pure_equi) for a, b in build_spans]
        locals_ = run_tasks(
            config, _build_single, build_tasks, pools=pools, tracer=tracer
        )
    else:
        build_tasks = [(right_columns, a, b, pure_equi) for a, b in build_spans]
        locals_ = run_tasks(
            config, _build_composite, build_tasks, pools=pools, tracer=tracer
        )
    if len(locals_) == 1:
        buckets = locals_[0]
    else:
        buckets = {}
        for local in locals_:
            for key, indices in local.items():
                existing = buckets.get(key)
                if existing is None:
                    buckets[key] = indices
                else:
                    existing.extend(indices)

    probe_shards = config.shards_for(len(left))
    probe_spans = chunk_spans(len(left), max(probe_shards, 1))
    if single:
        probe_tasks = [(left_column, a, b, buckets) for a, b in probe_spans]
        parts = run_tasks(
            config, _probe_single, probe_tasks, pools=pools, tracer=tracer
        )
    else:
        probe_tasks = [(left_columns, a, b, buckets) for a, b in probe_spans]
        parts = run_tasks(
            config, _probe_composite, probe_tasks, pools=pools, tracer=tracer
        )
    left_idx = list(chain.from_iterable(part[0] for part in parts))
    right_idx = list(chain.from_iterable(part[1] for part in parts))
    return left_idx, right_idx


# --------------------------------------------------------------------------- #
# grouping and aggregation
# --------------------------------------------------------------------------- #
def _group_morsel(key_columns: list[list], start: int, stop: int) -> dict:
    groups: dict[tuple, list[int]] = {}
    slices = [column[start:stop] for column in key_columns]
    for i, key in enumerate(zip(*slices)):
        members = groups.get(key)
        if members is None:
            groups[key] = [start + i]
        else:
            members.append(start + i)
    return groups


def parallel_group_indices(
    key_columns: list[list],
    length: int,
    config: ParallelConfig,
    pools=None,
    tracer=None,
) -> dict[tuple, list[int]]:
    """Group rows by key tuple, preserving serial insertion order exactly.

    Each morsel groups locally (dict insertion order = local first
    occurrence); merging the morsel dicts in span order appends member
    indices in ascending order and inserts new keys in global
    first-occurrence order — identical to the serial single pass.
    """
    spans = chunk_spans(length, max(config.shards_for(length), 1))
    tasks = [(key_columns, a, b) for a, b in spans]
    if tracer is not None:
        tracer.event("kernel", kernel="group_indices", morsels=len(tasks), rows=length)
    locals_ = run_tasks(config, _group_morsel, tasks, pools=pools, tracer=tracer)
    if len(locals_) == 1:
        return locals_[0]
    merged: dict[tuple, list[int]] = {}
    for local in locals_:
        for key, indices in local.items():
            existing = merged.get(key)
            if existing is None:
                merged[key] = indices
            else:
                existing.extend(indices)
    return merged


def parallel_fold_groups(
    fold, groups: Sequence[tuple], config: ParallelConfig, pools=None, tracer=None
) -> list[Any]:
    """Apply ``fold(group)`` to every group, parallel over chunks of groups.

    ``fold`` receives one group at a time and runs the exact serial
    aggregation fold (member values in ascending row order), so float
    accumulation matches the serial engine bit for bit; only *which worker*
    folds a group changes.
    """
    n = len(groups)
    shards = config.shards_for(n)
    if shards <= 1:
        return [fold(group) for group in groups]
    spans = chunk_spans(n, shards)
    tasks = [(fold, groups, a, b) for a, b in spans]
    if tracer is not None:
        tracer.event("kernel", kernel="fold_groups", morsels=len(tasks), groups=n)
    chunks = run_tasks(config, _fold_chunk, tasks, pools=pools, tracer=tracer)
    return list(chain.from_iterable(chunks))


def _fold_chunk(fold, groups: Sequence[tuple], start: int, stop: int) -> list[Any]:
    return [fold(groups[i]) for i in range(start, stop)]


# --------------------------------------------------------------------------- #
# duplicate elimination (DISTINCT project / union)
# --------------------------------------------------------------------------- #
def _distinct_morsel(data: list[list], start: int, stop: int) -> list[tuple]:
    """(row, first global index) pairs for the morsel's locally new rows."""
    seen: set[tuple] = set()
    firsts: list[tuple] = []
    slices = [column[start:stop] for column in data]
    for i, row in enumerate(zip(*slices)):
        if row not in seen:
            seen.add(row)
            firsts.append((row, start + i))
    return firsts


def parallel_distinct_indices(
    data: list[list], length: int, config: ParallelConfig, pools=None, tracer=None
) -> list[int]:
    """Indices of first occurrences, in ascending order (serial dedup order).

    Morsels record their local first occurrences; the serial merge keeps a
    row's globally first index because spans are visited in order and local
    first indices ascend within a span.
    """
    spans = chunk_spans(length, max(config.shards_for(length), 1))
    tasks = [(data, a, b) for a, b in spans]
    if tracer is not None:
        tracer.event(
            "kernel", kernel="distinct_indices", morsels=len(tasks), rows=length
        )
    locals_ = run_tasks(config, _distinct_morsel, tasks, pools=pools, tracer=tracer)
    seen: set[tuple] = set()
    keep: list[int] = []
    for firsts in locals_:
        for row, index in firsts:
            if row not in seen:
                seen.add(row)
                keep.append(index)
    return keep
