"""Worker pools for morsel-driven execution.

The parallel operators submit *leaf* tasks (per-morsel predicate sweeps,
bucket builds, probes, group folds) to a shared pool.  Two pool kinds exist:

* **threads** (default) — zero serialization cost and shared memory, which
  hash-join probes and group merges rely on.  CPython's GIL limits the
  speedup of pure-Python sweeps, but threaded morsels are always safe.
* **processes** — CPU-bound sweeps sidestep the GIL.  Task arguments must
  pickle; when they don't (closures, live objects), the call *falls back to
  threads* without poisoning the healthy pool, so correctness never depends
  on picklability.  Only a genuinely broken pool (dead worker, no fork) is
  remembered and skipped for the rest of the manager's lifetime.

Pools are owned by a :class:`PoolManager`: created lazily, keyed by
``(role, kind, workers)``, and shared across executors — morsel tasks never
submit further pool tasks, so a single level of pooling cannot deadlock.
The batch evaluator's *inter-query* parallelism uses a pool under a separate
``role`` (inter-query tasks *do* submit morsel tasks, so the two levels must
never share one pool; see
:class:`~repro.core.evaluators.batch.BatchEvaluator`).

One process-wide default manager serves everything that does not pass an
explicit ``pools=``; a :class:`~repro.session.Session` owns a private
manager so its pools live exactly as long as the session
(``Session.close()`` shuts them down without touching anyone else's).
"""

from __future__ import annotations

import atexit
import pickle
import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Sequence

from repro.obs.trace import activate
from repro.relational.parallel.config import ParallelConfig

#: Pool role running operator morsels (leaf tasks — never submit pool work).
ROLE_MORSEL = "morsel"
#: Pool role running whole workload queries (these DO submit morsel tasks,
#: so they must never share a pool with :data:`ROLE_MORSEL`).
ROLE_INTERQUERY = "interquery"
#: Pool role running the serving front end's per-tenant request workers
#: (:mod:`repro.serving`).  A serving task drives a whole ``Session`` call —
#: which may itself fan out inter-query and morsel tasks — so this level,
#: like :data:`ROLE_INTERQUERY`, must never share a pool with the levels it
#: submits to.
ROLE_SERVING = "serving"


class PoolManager:
    """Lazily-created worker pools with an explicit lifetime.

    Thread pools are keyed by ``(role, workers)`` and process pools by
    ``workers``; nothing is started until the first task arrives, and
    :meth:`shutdown` tears down exactly the pools this manager created.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._thread_pools: dict[tuple[str, int], ThreadPoolExecutor] = {}
        self._process_pools: dict[int, ProcessPoolExecutor] = {}
        #: worker counts whose process pool is genuinely broken (a dead worker
        #: or no fork support); calls fall back to threads from then on.
        #: Mere pickling failures do NOT land here — they are per-task
        #: properties, handled per call without poisoning a healthy pool.
        self._broken_process_pools: set[int] = set()
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

    def process_pool(self, workers: int) -> ProcessPoolExecutor | None:
        """The (lazily-started) process pool, or ``None`` when unusable."""
        with self._lock:
            if self._closed:
                raise RuntimeError("pool manager is closed")
            if workers in self._broken_process_pools:
                return None
            pool = self._process_pools.get(workers)
            if pool is None:
                try:
                    pool = ProcessPoolExecutor(max_workers=workers)
                except (OSError, ValueError):  # pragma: no cover - no fork available
                    self._broken_process_pools.add(workers)
                    return None
                self._process_pools[workers] = pool
                self._started_total += 1
        return pool

    def mark_process_pool_broken(self, workers: int) -> None:
        """Remember that the ``workers``-wide process pool died."""
        with self._lock:
            self._broken_process_pools.add(workers)

    # ------------------------------------------------------------------ #
    @property
    def started_pools(self) -> int:
        """Pools this manager started over its lifetime (survives shutdown)."""
        with self._lock:
            return self._started_total

    def queue_depth(self) -> int:
        """Tasks submitted to this manager's thread pools but not yet running.

        An instantaneous gauge (the serving front end's saturation signal):
        0 means every submitted morsel/inter-query task has a worker.
        Process pools are excluded — their queues live across the process
        boundary and expose no cheap depth.
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
            pools: list = list(self._thread_pools.values())
            pools.extend(self._process_pools.values())
            self._thread_pools.clear()
            self._process_pools.clear()
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
    picklable: bool = False,
    pools: PoolManager | None = None,
    tracer=None,
) -> list[Any]:
    """Run ``fn(*args)`` for every args tuple, returning results in order.

    One task (or one worker) short-circuits to a serial loop.  Process pools
    are used only when the caller vouches the task is ``picklable`` *and*
    the config asks for them; a task that does not actually pickle falls
    back to the thread pool for that call (a cheap pre-flight pickle of the
    first task catches the common case — e.g. a locally defined predicate
    class — up front), a dead worker marks the pool broken for the rest of
    the manager's lifetime, and a genuine task exception propagates to the
    caller exactly as the serial and threaded paths would raise it.

    ``pools`` selects the owning :class:`PoolManager` (a session's, usually);
    the process-wide default serves callers that pass none.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) propagates the
    submitting thread's current span into thread-pool workers, so events a
    task records nest under the operator that scheduled it; the fan-out
    itself is recorded as a ``pool`` event (kind, tasks, workers).  A live
    tracer cannot cross a process boundary, so process-pool runs record the
    fan-out on the scheduling side only.
    """
    manager = pools if pools is not None else _DEFAULT_MANAGER
    workers = config.resolved_workers()
    if workers <= 1 or len(args_list) <= 1:
        return [fn(*args) for args in args_list]
    if picklable and config.kind == "process":
        results = _try_process_pool(manager, workers, fn, args_list)
        if results is not None:
            if tracer is not None:
                tracer.event(
                    "pool", kind="process", tasks=len(args_list), workers=workers
                )
            return results
    pool = manager.thread_pool(workers)
    task = fn
    if tracer is not None:
        tracer.event("pool", kind="thread", tasks=len(args_list), workers=workers)
        parent = tracer.current()

        def task(*args):
            # Workers carry neither the ambient tracer nor the submitting
            # thread's span stack; restore both so anything the morsel
            # records lands under the scheduling operator's span.
            with activate(tracer), tracer.attach(parent):
                return fn(*args)

    futures = [pool.submit(task, *args) for args in args_list]
    return [future.result() for future in futures]


def _try_process_pool(
    manager: PoolManager,
    workers: int,
    fn: Callable[..., Any],
    args_list: Sequence[tuple],
) -> list[Any] | None:
    """Process-pool attempt; ``None`` means "use the thread pool instead"."""
    pool = manager.process_pool(workers)
    if pool is None:
        return None
    try:
        pickle.dumps((fn, args_list[0]))
    except Exception:
        return None  # the task cannot cross a process boundary; pool is fine
    try:
        futures = [pool.submit(fn, *args) for args in args_list]
        return [future.result() for future in futures]
    except BrokenProcessPool:
        manager.mark_process_pool_broken(workers)
        return None
    except (pickle.PicklingError, AttributeError):
        # A later task (or a result) failed to serialize after the pre-flight
        # passed; recompute the whole call on threads.  Any other exception
        # is a real task error and propagates.
        return None


class InflightComputations:
    """Compute-once registry for results shared between concurrent queries.

    The batch evaluator's inter-query parallelism hands every per-query
    executor the same registry: the first executor to reach a shared
    materialization *claims* its key and computes it; every other executor
    blocks on the claim's future and receives the finished relation (counted
    as a plan-cache hit).  Claims always have a running owner, and waits
    follow the strict sub-plan partial order, so no cycle of waits can form.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._futures: dict[str, Future] = {}

    def claim(self, key: str) -> tuple[Future, bool]:
        """Return ``(future, owner)``; ``owner`` is True for the first claimant."""
        with self._lock:
            future = self._futures.get(key)
            if future is not None:
                return future, False
            future = Future()
            self._futures[key] = future
            return future, True

    def resolve(self, key: str, future: Future, value: Any) -> None:
        """Publish the owner's result and retire the claim."""
        future.set_result(value)
        with self._lock:
            self._futures.pop(key, None)

    def fail(self, key: str, future: Future, error: BaseException) -> None:
        """Propagate the owner's failure to every waiter and retire the claim."""
        future.set_exception(error)
        with self._lock:
            self._futures.pop(key, None)


def map_ordered(
    pool_workers: int,
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    pools: PoolManager | None = None,
) -> list[Any]:
    """Thread-pool map preserving item order (inter-query scheduling helper).

    With a ``pools`` manager the map runs on its long-lived
    :data:`ROLE_INTERQUERY` pool (distinct from the morsel pools — these
    tasks submit morsel work, sharing a pool would deadlock); without one (a
    batch evaluator built outside a session) it spins up an ephemeral pool
    for the call.

    Error semantics match the ephemeral pool on both paths: when one item's
    task raises, the call waits out (or cancels, if not yet started) every
    sibling task *before* re-raising — no orphan task may outlive the call,
    or a session's ``close()`` drain could shut the pools down under one.
    """
    items = list(items)
    if pool_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if pools is not None:
        pool = pools.thread_pool(pool_workers, role=ROLE_INTERQUERY)
        futures = [pool.submit(fn, item) for item in items]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            wait(futures)
            raise
    with ThreadPoolExecutor(max_workers=pool_workers) as pool:
        return list(pool.map(fn, items))
