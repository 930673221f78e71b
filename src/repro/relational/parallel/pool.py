"""Thread pools for morsel-driven execution.

The parallel operators submit *leaf* tasks (per-morsel predicate sweeps,
bucket builds, probes, group folds) to a shared thread pool: zero
serialization cost and shared memory, which hash-join probes and group
merges rely on.  CPython's GIL limits the speedup of pure-Python sweeps, but
threaded morsels are always safe.

Pools are owned by a :class:`PoolManager`: created lazily, keyed by
``(role, workers)``, and shared across executors — morsel tasks never
submit further pool tasks, so a single level of pooling cannot deadlock.
The serving front end's request workers use a pool under a separate
``role`` (a request *does* submit morsel tasks, so the two levels must never
share one pool; see :mod:`repro.serving`).

One process-wide default manager serves everything that does not pass an
explicit ``pools=``; a :class:`~repro.session.Session` owns a private
manager so its pools live exactly as long as the session
(``Session.close()`` shuts them down without touching anyone else's).
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from repro.obs.trace import activate
from repro.relational.parallel.config import ParallelConfig

#: Pool role running operator morsels (leaf tasks — never submit pool work).
ROLE_MORSEL = "morsel"
#: Pool role running the serving front end's per-tenant request workers
#: (:mod:`repro.serving`).  A serving task drives a whole ``Session`` call —
#: which may itself fan out morsel tasks — so this level must never share a
#: pool with :data:`ROLE_MORSEL`.
ROLE_SERVING = "serving"


class PoolManager:
    """Lazily-created thread pools with an explicit lifetime.

    Pools are keyed by ``(role, workers)``; nothing is started until the
    first task arrives, and :meth:`shutdown` tears down exactly the pools
    this manager created.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._thread_pools: dict[tuple[str, int], ThreadPoolExecutor] = {}
        self._started_total = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    def thread_pool(self, workers: int, role: str = ROLE_MORSEL) -> ThreadPoolExecutor:
        """The (lazily-started) thread pool for ``role`` at ``workers``."""
        key = (role, workers)
        with self._lock:
            if self._closed:
                raise RuntimeError("pool manager is closed")
            pool = self._thread_pools.get(key)
            if pool is None:
                pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix=f"repro-{role}"
                )
                self._thread_pools[key] = pool
                self._started_total += 1
        return pool

    # ------------------------------------------------------------------ #
    @property
    def started_pools(self) -> int:
        """Pools this manager started over its lifetime (survives shutdown)."""
        with self._lock:
            return self._started_total

    def queue_depth(self) -> int:
        """Tasks submitted to this manager's pools but not yet running.

        An instantaneous gauge (the serving front end's saturation signal):
        0 means every submitted task has a worker.
        """
        depth = 0
        with self._lock:
            pools = list(self._thread_pools.values())
        for pool in pools:
            queue = getattr(pool, "_work_queue", None)
            if queue is not None:
                depth += queue.qsize()
        return depth

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` has run."""
        return self._closed

    def shutdown(self, wait: bool = False, reopen: bool = False) -> None:
        """Tear down every pool this manager started (idempotent).

        ``reopen=True`` reclaims the workers but leaves the manager usable —
        the next task lazily recreates its pool.  The process-wide default
        manager is reset this way (holders of the reference keep working);
        a session's private manager closes terminally.
        """
        with self._lock:
            self._closed = not reopen
            pools = list(self._thread_pools.values())
            self._thread_pools.clear()
        for pool in pools:
            pool.shutdown(wait=wait, cancel_futures=True)


#: The process-wide manager used whenever no explicit ``pools=`` is given.
_DEFAULT_MANAGER = PoolManager()


def default_manager() -> PoolManager:
    """The process-wide :class:`PoolManager`."""
    return _DEFAULT_MANAGER


@atexit.register
def shutdown_pools() -> None:
    """Tear down the default manager's pools (atexit; callable from tests).

    The manager object stays the same and stays usable — pools are
    re-created lazily on the next task — so every holder of
    :func:`default_manager` (the fresh sessions of
    :func:`repro.bench.harness.cold_query`, any session given
    ``pools=default_manager()``) keeps working after a reset.
    """
    _DEFAULT_MANAGER.shutdown(reopen=True)


def run_tasks(
    config: ParallelConfig,
    fn: Callable[..., Any],
    args_list: Sequence[tuple],
    pools: PoolManager | None = None,
    tracer=None,
) -> list[Any]:
    """Run ``fn(*args)`` for every args tuple, returning results in order.

    One task (or one worker) short-circuits to a serial loop; otherwise the
    tasks run on the morsel thread pool and a task exception propagates to
    the caller exactly as the serial loop would raise it.

    ``pools`` selects the owning :class:`PoolManager` (a session's, usually);
    the process-wide default serves callers that pass none.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) propagates the
    submitting thread's current span into the workers, so events a task
    records nest under the operator that scheduled it; the fan-out itself is
    recorded as a ``pool`` event (tasks, workers).
    """
    manager = pools if pools is not None else _DEFAULT_MANAGER
    workers = config.resolved_workers()
    if workers <= 1 or len(args_list) <= 1:
        return [fn(*args) for args in args_list]
    pool = manager.thread_pool(workers)
    task = fn
    if tracer is not None:
        tracer.event("pool", tasks=len(args_list), workers=workers)
        parent = tracer.current()

        def task(*args):
            # Workers carry neither the ambient tracer nor the submitting
            # thread's span stack; restore both so anything the morsel
            # records lands under the scheduling operator's span.
            with activate(tracer), tracer.attach(parent):
                return fn(*args)

    futures = [pool.submit(task, *args) for args in args_list]
    return [future.result() for future in futures]
