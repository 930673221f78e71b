"""Plan-result cache and materialization policies for shared execution.

This is the machinery that turns the e-MQO *global plan* (and the batch
serving API) into actual shared work: a :class:`PlanCache` maps the canonical
fingerprint of a sub-plan to its already-computed result
:class:`~repro.relational.relation.Relation`, and a
:class:`MaterializationPolicy` decides *which* sub-plans the executor should
look up and store — the classical MQO materialisation choice of Roy et al. /
Zhou et al., rather than blind memoisation of every node.

The cache is bounded (LRU), keeps hit/miss/eviction statistics, and stays
correct under data changes: every entry records which base relations its plan
scans, and invalidation hooks tied to
:meth:`~repro.relational.database.Database.set_relation` and
:meth:`~repro.relational.indexes.IndexCatalog.invalidate` drop exactly the
entries that depend on a mutated relation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.relational.algebra import Materialized, PlanNode, Scan
from repro.relational.relation import Relation


@dataclass
class PlanCacheStats:
    """Counters describing how effective a :class:`PlanCache` has been."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: operators that cache hits avoided executing
    operators_saved: int = 0
    #: entries delta-patched in place by a write instead of being dropped
    patches: int = 0

    @property
    def lookups(self) -> int:
        """Total number of cache probes."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict:
        """A plain-dict snapshot for reports and benchmark tables."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "operators_saved": self.operators_saved,
            "patches": self.patches,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class CachedPlan:
    """One cache entry: a sub-plan's result plus its bookkeeping."""

    key: str
    relation: Relation
    #: number of operators executing the plan would cost (the saving per hit)
    operator_count: int
    #: names of the base relations the plan scans (invalidation dependencies)
    dependencies: frozenset[str] = field(default_factory=frozenset)
    #: data-version token of each dependency at store time (staleness check)
    dependency_versions: dict[str, int] = field(default_factory=dict)
    #: the plan itself, kept so append deltas can be replayed through it
    node: PlanNode | None = None


def plan_cost(node: PlanNode) -> int:
    """Operators the executor would count to evaluate ``node`` from scratch.

    Every non-:class:`Materialized` node is counted once — this matches
    :class:`~repro.relational.executor.Executor`, which records scans as
    operators too.
    """
    return sum(1 for child in node.walk() if not isinstance(child, Materialized))


def plan_dependencies(node: PlanNode) -> frozenset[str]:
    """Names of the base relations ``node`` reads (its invalidation keys)."""
    return frozenset(
        child.relation for child in node.walk() if isinstance(child, Scan)
    )


def append_shape(node: PlanNode) -> str | None:
    """``"plain"``/``"distinct"`` when ``node`` is monotone under appends.

    Monotone means a cached result can be *extended* by executing the plan
    over just the appended rows: exactly one :class:`Scan`, and above it only
    order-preserving unary operators (:class:`Select` and
    :class:`~repro.relational.algebra.Project`) — appended source rows can
    then only append output rows, in source order, exactly as a full
    recompute would place them.  ``"distinct"`` marks a set-semantic output
    (a distinct projection with only selections above it): delta outputs
    already present in the cached result must be filtered out.  A distinct
    below an ordinary projection is rejected (the projection may legitimately
    re-duplicate rows, so membership filtering would be wrong), as is
    everything binary or aggregating — ``Union`` included, because rows
    appended to its left input belong *mid*-output, not at the end.
    """
    from repro.relational.algebra import Project, Select

    shape = "plain"
    reprojected = False
    current = node
    while not isinstance(current, Scan):
        if isinstance(current, Select):
            current = current.child
        elif isinstance(current, Project):
            if current.distinct:
                if reprojected:
                    return None
                shape = "distinct" if shape == "plain" else shape
            else:
                reprojected = True
            current = current.child
        else:
            return None
    return shape


class PlanCache:
    """Bounded LRU cache of sub-plan results keyed by canonical fingerprint.

    ``maxsize=None`` disables the bound (used by the legacy memoizing
    executor); any other value evicts the least recently used entry once the
    cache is full.  Call :meth:`attach` to subscribe the cache to a
    database's mutation events so that stale entries can never be served.

    Lookups, stores and invalidations are guarded by a re-entrant lock so
    one cache can serve the batch evaluator's concurrently running queries
    (the LRU reordering and the stats counters are not otherwise atomic).
    The executor probes through :meth:`claim`, which computes each key once:
    a miss marks the key in flight until :meth:`release`, and a concurrent
    caller probing the same key waits for it and then counts a hit.
    """

    def __init__(self, maxsize: int | None = 1024):
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive (or None for unbounded)")
        self.maxsize = maxsize
        self.stats = PlanCacheStats()
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()
        self._attached: list = []
        self._write_hooks: dict[int, object] = {}
        self._lock = threading.RLock()
        #: key -> a lock held by the caller computing it (see :meth:`claim`)
        self._in_flight: dict[str, threading.Lock] = {}

    # ------------------------------------------------------------------ #
    # lookup / store
    # ------------------------------------------------------------------ #
    def claim(self, key: str, database=None) -> CachedPlan | None:
        """The cached entry for ``key``, computing each key once across callers.

        With a ``database``, the entry's recorded dependency versions are
        checked against the stored relations' current
        :attr:`~repro.relational.relation.Relation.version` tokens; a stale
        entry (e.g. after an in-place ``Relation.append``, which fires no
        mutation hook) is dropped and reported as a miss.

        A hit returns the entry.  A miss returns ``None`` and marks ``key`` in
        flight: the caller computes it, stores it with :meth:`put` and must
        then :meth:`release` it (also when computing fails).  Until then every
        other caller probing ``key`` waits, and then probes again -- a hit
        once the result is stored, the new owner if computing failed.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None and database is not None:
                    if not self._fresh(entry, database):
                        del self._entries[key]
                        self.stats.invalidations += 1
                        entry = None
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    self.stats.operators_saved += entry.operator_count
                    return entry
                pending = self._in_flight.get(key)
                if pending is None:
                    pending = self._in_flight[key] = threading.Lock()
                    pending.acquire()
                    self.stats.misses += 1
                    return None
            with pending:
                pass

    def release(self, key: str) -> None:
        """End the computation :meth:`claim` handed out for ``key``."""
        with self._lock:
            pending = self._in_flight.pop(key, None)
        if pending is not None:
            pending.release()

    @staticmethod
    def _fresh(entry: CachedPlan, database) -> bool:
        for name, version in entry.dependency_versions.items():
            try:
                if database.relation(name).version != version:
                    return False
            except KeyError:
                return False
        return True

    def put(
        self,
        key: str,
        node: PlanNode,
        relation: Relation,
        database=None,
        versions: dict[str, int] | None = None,
    ) -> CachedPlan:
        """Store the result of ``node`` under ``key`` (evicting LRU if full).

        With a ``database``, the version token of every scanned base relation
        is recorded so :meth:`claim` can detect staleness.  ``versions`` lets
        the executor supply tokens captured *before* it read the data: if a
        concurrent write swapped the data mid-execution, the entry is
        recorded under the pre-write token and the next version-checked
        lookup discards it — recording the post-write token would instead
        serve pre-write rows as current forever.  Missing names fall back to
        the live token.
        """
        dependencies = plan_dependencies(node)
        recorded: dict[str, int] = {}
        if database is not None:
            for name in dependencies:
                if versions is not None and name in versions:
                    recorded[name] = versions[name]
                    continue
                try:
                    recorded[name] = database.relation(name).version
                except KeyError:
                    pass
        entry = CachedPlan(
            key=key,
            relation=relation,
            operator_count=plan_cost(node),
            dependencies=dependencies,
            dependency_versions=recorded,
            node=node,
        )
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = entry
            if self.maxsize is not None:
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
        return entry

    def stats_snapshot(self) -> dict:
        """A lock-guarded, point-in-time copy of the cache statistics.

        :attr:`stats` is mutated under the cache lock (``claim``/``put``/
        ``apply_write``); reading its fields live from another thread can
        observe a torn update (hits incremented, operators_saved not yet).
        Sessions and reports read this snapshot instead.  ``entries`` is the
        current cache population (not part of :class:`PlanCacheStats`).
        """
        with self._lock:
            snapshot = self.stats.snapshot()
            snapshot["entries"] = len(self._entries)
            return snapshot

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # invalidation
    # ------------------------------------------------------------------ #
    def invalidate(self, relation_name: str | None = None) -> int:
        """Drop entries depending on ``relation_name`` (all entries if None).

        Returns the number of entries dropped.
        """
        with self._lock:
            if relation_name is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                stale = [
                    key
                    for key, entry in self._entries.items()
                    if relation_name in entry.dependencies
                ]
                for key in stale:
                    del self._entries[key]
                dropped = len(stale)
            self.stats.invalidations += dropped
            return dropped

    def clear(self) -> None:
        """Drop every entry and reset nothing else (stats are kept)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------ #
    # delta maintenance
    # ------------------------------------------------------------------ #
    def apply_write(self, database, relation_name: str, delta) -> tuple[int, int]:
        """Maintain the entries that read ``relation_name`` through one write.

        Entries that never read the written relation are untouched.  For an
        append delta, entries whose plan is append-monotone (see
        :func:`append_shape`) and whose recorded version matches the delta's
        base are *patched*: the cached plan is replayed over a shadow
        database holding only the appended rows, and the delta output is
        folded onto the cached result — byte-identical to a full recompute
        because the monotone operators preserve input row order.  Everything
        else (updates, deletes, wholesale replacements, non-monotone plans,
        version gaps) drops the entry.  Returns ``(patched, dropped)``.
        """
        with self._lock:
            patched = dropped = 0
            for key in list(self._entries):
                entry = self._entries[key]
                if relation_name not in entry.dependencies:
                    continue
                replacement = None
                if delta is not None and delta.is_append:
                    replacement = self._patched_entry(
                        database, entry, relation_name, delta
                    )
                if replacement is None:
                    del self._entries[key]
                    dropped += 1
                else:
                    self._entries[key] = replacement
                    patched += 1
            self.stats.patches += patched
            self.stats.invalidations += dropped
            return patched, dropped

    @staticmethod
    def _patched_entry(database, entry: CachedPlan, relation_name: str, delta):
        """``entry`` with an append delta folded in, or ``None`` to drop it."""
        node = entry.node
        if node is None:
            return None
        if entry.dependency_versions.get(relation_name) != delta.base_version:
            return None
        shape = append_shape(node)
        if shape is None:
            return None
        # Replay the cached plan over just the appended rows, through the
        # real operator implementations (a throwaway database + executor),
        # so the patch can never drift from execution semantics.
        from repro.relational.database import Database
        from repro.relational.executor import Executor

        schema = database.schema.relation(relation_name)
        shadow = Database(
            database.schema, {relation_name: Relation.from_schema(schema, delta.rows)}
        )
        extra = Executor(shadow).execute(node)
        cached = entry.relation
        if shape == "distinct":
            seen = set(cached.rows)
            rows = cached.rows + [row for row in extra.rows if row not in seen]
            patched = Relation(cached.columns, rows, name=cached.name)
        elif cached.columns and cached.columns == extra.columns:
            # Columnar-native concat: the patched entry keeps a column-major
            # backing, so serving it back into the columnar engine stays a
            # free round trip.
            from repro.relational.columnar import ColumnBatch

            patched = (
                ColumnBatch.from_relation(cached)
                .concat(ColumnBatch.from_relation(extra))
                .to_relation()
            )
        else:
            patched = Relation(
                cached.columns, cached.rows + extra.rows, name=cached.name
            )
        versions = dict(entry.dependency_versions)
        versions[relation_name] = delta.version
        return CachedPlan(
            key=entry.key,
            relation=patched,
            operator_count=entry.operator_count,
            dependencies=entry.dependencies,
            dependency_versions=versions,
            node=node,
        )

    # ------------------------------------------------------------------ #
    # database hooks
    # ------------------------------------------------------------------ #
    def attach(self, database) -> None:
        """Subscribe to ``database`` so mutations maintain dependent entries.

        Two hooks: the database's :meth:`IndexCatalog.invalidate` listener
        chain (fired by the wholesale :meth:`Database.set_relation` and by
        direct ``database.index_catalog.invalidate(...)`` calls) drops the
        written relation's dependents, and the delta-aware write-listener
        chain (fired by ``append_rows``/``update_rows``/``delete_rows``)
        routes into :meth:`apply_write` so append deltas patch instead of
        drop.
        """
        database.index_catalog.add_invalidation_listener(self.invalidate)
        if hasattr(database, "add_write_listener"):

            def hook(name, delta, _database=database):
                self.apply_write(_database, name, delta)

            self._write_hooks[id(database)] = hook
            database.add_write_listener(hook)
        self._attached.append(database)

    def detach(self, database) -> None:
        """Undo :meth:`attach`."""
        database.index_catalog.remove_invalidation_listener(self.invalidate)
        hook = self._write_hooks.pop(id(database), None)
        if hook is not None:
            database.remove_write_listener(hook)
        if database in self._attached:
            self._attached.remove(database)

    def serves(self, database) -> bool:
        """True when this cache is attached to ``database``'s mutation hooks.

        Cache keys are database-agnostic canonical fingerprints, so sharing
        a cache with a database it is *not* attached to could serve another
        database's materializations (version tokens are independent counters
        that can coincide).  Callers injecting a long-lived cache gate on
        this.
        """
        return database in self._attached


# --------------------------------------------------------------------------- #
# materialization policies
# --------------------------------------------------------------------------- #
class MaterializationPolicy:
    """Decides which sub-plans the executor materialises through the cache.

    ``cache_key(node)`` returns the cache key to use for ``node`` or ``None``
    when the node should be executed directly (no lookup, no store).
    """

    def cache_key(self, node: PlanNode) -> str | None:
        raise NotImplementedError


class MaterializeAll(MaterializationPolicy):
    """Blind memoisation: every sub-plan is cached (legacy e-MQO executor)."""

    def cache_key(self, node: PlanNode) -> str | None:
        return node.canonical()


class MaterializeSelected(MaterializationPolicy):
    """Materialise only the sub-plans a global plan selected for sharing.

    This is the policy e-MQO and the batch engine use: the MQO planner
    identifies the shared subexpressions (benefit-ordered), and only those
    are looked up and stored — everything else executes directly without
    paying fingerprinting or cache-management costs for results that could
    never be reused.
    """

    def __init__(self, selected: frozenset[str] | set[str]):
        self.selected = frozenset(selected)

    def cache_key(self, node: PlanNode) -> str | None:
        key = node.canonical()
        return key if key in self.selected else None

    def __len__(self) -> int:
        return len(self.selected)


class MaterializeNone(MaterializationPolicy):
    """Never materialise (plain executor behaviour, useful as a baseline)."""

    def cache_key(self, node: PlanNode) -> str | None:
        return None
