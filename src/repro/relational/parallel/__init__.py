"""Parallel sharded execution engine (``engine="parallel"``).

The package adds intra-operator parallelism to the columnar batch engine:

* :mod:`~repro.relational.parallel.partition` — contiguous-morsel sharding
  with a version-keyed shard cache on base relations;
* :mod:`~repro.relational.parallel.pool` — shared, lazily-started thread
  pools owned by a :class:`PoolManager`;
* :mod:`~repro.relational.parallel.operators` — morsel-driven select /
  hash-join / aggregate / distinct kernels that are byte-identical to the
  serial columnar operators by construction;
* :mod:`~repro.relational.parallel.config` — the :class:`ParallelConfig`
  knobs (worker count, sharding threshold).

The engine switch itself lives on
:class:`~repro.relational.executor.Executor`: ``engine="parallel"`` runs the
columnar engine with these kernels wherever an operator's input is large
enough (``min_partition_rows``), and falls back **per node** to the serial
columnar code below that bound — answers are byte-identical in every mix,
which the differential harness asserts.
"""

from repro.relational.parallel.config import ParallelConfig, available_cpus
from repro.relational.parallel.operators import (
    parallel_distinct_indices,
    parallel_fold_groups,
    parallel_group_indices,
    parallel_join_indices,
    parallel_predicate_mask,
)
from repro.relational.parallel.partition import cached_chunk_columns, chunk_spans
from repro.relational.parallel.pool import (
    ROLE_MORSEL,
    ROLE_SERVING,
    PoolManager,
    default_manager,
    run_tasks,
    shutdown_pools,
)

__all__ = [
    "ParallelConfig",
    "available_cpus",
    "parallel_distinct_indices",
    "parallel_fold_groups",
    "parallel_group_indices",
    "parallel_join_indices",
    "parallel_predicate_mask",
    "cached_chunk_columns",
    "chunk_spans",
    "PoolManager",
    "ROLE_MORSEL",
    "ROLE_SERVING",
    "default_manager",
    "run_tasks",
    "shutdown_pools",
]
