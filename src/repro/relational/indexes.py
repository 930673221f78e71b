"""Hash indexes over base relations.

Equality selections dominate the paper's workload (Table III), so the engine
builds hash indexes on demand: ``Database.index(relation, column)`` returns a
value → row-positions map that the executor consults when a selection's
predicate is a single ``column = constant`` comparison over a base-relation
scan.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Hashable

from repro.relational.relation import Relation


class HashIndex:
    """A value → row positions index over one column of a relation.

    The index keeps the row list it was built from, so :meth:`lookup_rows`
    answers from that snapshot even after the relation is written (a write
    installs a new row list and leaves this one untouched).
    """

    def __init__(self, relation: Relation, column: str):
        self.column = column
        self._position = relation.column_index(column)
        self._rows = relation.rows
        buckets: dict[Hashable, list[int]] = defaultdict(list)
        for row_number, row in enumerate(self._rows):
            value = row[self._position]
            if isinstance(value, Hashable):
                buckets[value].append(row_number)
        self._buckets = dict(buckets)

    def lookup(self, value: Any) -> list[int]:
        """Row positions whose indexed column equals ``value``."""
        return self._buckets.get(value, [])

    def lookup_rows(self, value: Any) -> list[tuple]:
        """Rows whose indexed column equals ``value``."""
        rows = self._rows
        return [rows[i] for i in self.lookup(value)]

    def __len__(self) -> int:
        return len(self._buckets)

    def __contains__(self, value: object) -> bool:
        return value in self._buckets


class IndexCatalog:
    """Lazy cache of :class:`HashIndex` objects keyed by (relation name, column).

    A cached index is reused as long as the relation *data* is unchanged: the
    cache entry records the :attr:`Relation.version` token it was built from,
    so passing a fresh aliased/prefixed view of the same rows (which shares
    the token) hits the cache instead of rebuilding.  :attr:`builds` counts
    the indexes actually constructed, which regression tests and benchmarks
    use to assert that repeated indexed selects build exactly once.  A write
    bumps the relation's token, so the next :meth:`get` rebuilds the index.
    """

    def __init__(self) -> None:
        self._indexes: dict[tuple[str, str], tuple[HashIndex, int]] = {}
        self._listeners: list[Callable[[str | None], None]] = []
        #: number of hash indexes physically built since creation
        self.builds: int = 0

    def get(self, relation: Relation, relation_name: str, column: str) -> HashIndex:
        """Return (building if needed) the index on ``relation_name.column``."""
        key = (relation_name, column)
        entry = self._indexes.get(key)
        if entry is not None:
            index, version = entry
            if version == relation.version:
                return index
        index = HashIndex(relation, column)
        self.builds += 1
        self._indexes[key] = (index, relation.version)
        return index

    def invalidate(self, relation_name: str | None = None) -> None:
        """Drop cached indexes (all of them, or only one relation's).

        Registered invalidation listeners (e.g. a
        :class:`~repro.relational.plancache.PlanCache`) are notified with the
        relation name (``None`` meaning "everything").
        """
        if relation_name is None:
            self._indexes.clear()
        else:
            for key in [key for key in self._indexes if key[0] == relation_name]:
                del self._indexes[key]
        for listener in list(self._listeners):
            listener(relation_name)

    def add_invalidation_listener(self, listener: Callable[[str | None], None]) -> None:
        """Call ``listener(relation_name)`` whenever indexes are invalidated."""
        self._listeners.append(listener)

    def remove_invalidation_listener(self, listener: Callable[[str | None], None]) -> None:
        """Detach a previously registered invalidation listener."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def __len__(self) -> int:
        return len(self._indexes)
