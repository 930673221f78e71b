"""Configuration of the parallel sharded execution engine.

A :class:`ParallelConfig` tells the executor *how much* parallelism to use
(worker count) and *when* it is worth it (the minimum shard size below which
an operator falls back to the serial columnar implementation).  An executor
built with ``engine="parallel"`` and no config uses ``ParallelConfig()``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


def available_cpus() -> int:
    """Number of CPUs usable by this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ParallelConfig:
    """Tuning knobs of the parallel engine.

    Attributes
    ----------
    workers:
        Thread-pool worker count; ``0`` (the default) resolves to the number
        of available CPUs.
    min_partition_rows:
        Smallest shard worth dispatching; an operator whose input is
        shorter than two shards of this size runs the serial columnar code.
    """

    workers: int = 0
    min_partition_rows: int = 2048

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = autodetect)")
        if self.min_partition_rows < 0:
            raise ValueError("min_partition_rows must be >= 0")

    # ------------------------------------------------------------------ #
    def resolved_workers(self) -> int:
        """The effective worker count (explicit, else available CPUs)."""
        return self.workers or available_cpus()

    def shards_for(self, rows: int) -> int:
        """How many shards an input of ``rows`` rows should be cut into.

        At least ``min_partition_rows`` rows per shard (so tiny inputs
        return 1 — the caller's signal to stay serial), at most the worker
        count.  ``min_partition_rows=0`` always shards to the worker count
        (useful in tests that must exercise the parallel paths on small
        data).
        """
        workers = self.resolved_workers()
        if workers <= 1 or rows == 0:
            return 1
        if not self.min_partition_rows:
            return min(workers, max(rows, 1))
        return max(1, min(workers, rows // self.min_partition_rows))
