"""The :class:`Database` — a catalog of named relations (the source instance ``D``)."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.relational.indexes import HashIndex, IndexCatalog
from repro.relational.relation import Delta, Relation
from repro.relational.schema import DatabaseSchema, RelationSchema

#: Signature of a write listener: ``listener(relation_name, delta)``.
#: ``delta`` is ``None`` for a wholesale replacement (``set_relation``).
WriteListener = Callable[[str, "Delta | None"], None]


class Database:
    """A named collection of :class:`Relation` instances plus their schema.

    This plays the role of the paper's source instance ``D``: source queries
    (reformulated target queries) are executed against it by
    :class:`~repro.relational.executor.Executor`.
    """

    def __init__(self, schema: DatabaseSchema, relations: dict[str, Relation] | None = None):
        self.schema = schema
        self._relations: dict[str, Relation] = {}
        self._indexes = IndexCatalog()
        self._stats_catalog = None
        self._write_listeners: list[WriteListener] = []
        if relations:
            for name, relation in relations.items():
                self.set_relation(name, relation)

    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, schema: DatabaseSchema) -> "Database":
        """A database with an empty relation for every schema relation."""
        database = cls(schema)
        for relation_schema in schema:
            database.set_relation(
                relation_schema.name, Relation.from_schema(relation_schema, [])
            )
        return database

    # ------------------------------------------------------------------ #
    def set_relation(self, name: str, relation: Relation) -> None:
        """Install (or replace) the contents of relation ``name``."""
        if not self.schema.has_relation(name):
            raise KeyError(f"schema {self.schema.name!r} has no relation {name!r}")
        expected = self.schema.relation(name)
        if len(relation.columns) != len(expected):
            raise ValueError(
                f"relation {name!r} expects {len(expected)} columns, got {len(relation.columns)}"
            )
        self._relations[name] = relation
        # Invalidates stale indexes and, through the catalog's listener
        # chain, any attached caches (e.g. a PlanCache) that depend on the
        # mutated relation.  The scope is ``name`` only: caches for
        # relations that were not written keep their state, and the
        # replaced relation's own version-keyed caches (column-major,
        # shards, statistics) become unreachable with the old object.
        self._indexes.invalidate(name)

    # ------------------------------------------------------------------ #
    # the delta-aware write API
    # ------------------------------------------------------------------ #
    def append_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> Delta | None:
        """Append ``rows`` to relation ``name``, publishing the delta.

        Unlike :meth:`set_relation` (the wholesale path), the write is
        described precisely: registered write listeners (plan caches,
        sessions) receive the :class:`~repro.relational.relation.Delta`, so
        a plan cache can patch — rather than drop — its append-monotone
        entries over ``name``.  Hash indexes and statistics are keyed by the
        relation's version and rebuild lazily on next use.  Returns ``None``
        for an empty input (nothing written, nothing published).
        """
        return self._finish_write(name, self.relation(name).append_rows(rows))

    def update_rows(
        self, name: str, positions: Sequence[int], rows: Iterable[Sequence[Any]]
    ) -> Delta | None:
        """Replace the rows of ``name`` at ``positions`` with ``rows``."""
        return self._finish_write(
            name, self.relation(name).update_rows(positions, rows)
        )

    def delete_rows(self, name: str, positions: Sequence[int]) -> Delta | None:
        """Delete the rows of ``name`` at ``positions``."""
        return self._finish_write(name, self.relation(name).delete_rows(positions))

    def _finish_write(self, name: str, delta: Delta | None) -> Delta | None:
        """Publish ``delta`` (if anything was written) to the write listeners."""
        if delta is None:
            return None
        for listener in list(self._write_listeners):
            listener(name, delta)
        return delta

    def add_write_listener(self, listener: WriteListener) -> None:
        """Call ``listener(name, delta)`` after every delta-producing write."""
        self._write_listeners.append(listener)

    def remove_write_listener(self, listener: WriteListener) -> None:
        """Detach a previously registered write listener."""
        if listener in self._write_listeners:
            self._write_listeners.remove(listener)

    @property
    def index_catalog(self) -> IndexCatalog:
        """The database's lazy hash-index cache."""
        return self._indexes

    @property
    def stats_catalog(self):
        """The database's lazy, version-keyed statistics catalog.

        Created on first access (the import is deferred to keep the
        relational substrate free of an optimizer dependency); entries are
        keyed on relation data versions, so no explicit invalidation hook is
        needed — stale statistics are re-collected transparently.
        """
        if self._stats_catalog is None:
            from repro.relational.optimizer.statistics import StatsCatalog

            self._stats_catalog = StatsCatalog(self)
        return self._stats_catalog

    def relation(self, name: str) -> Relation:
        """The stored relation called ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"database has no relation {name!r}") from None

    def relation_schema(self, name: str) -> RelationSchema:
        """Schema of relation ``name``."""
        return self.schema.relation(name)

    def has_relation(self, name: str) -> bool:
        """True when relation ``name`` is loaded."""
        return name in self._relations

    def scan(self, name: str, alias: str | None = None) -> Relation:
        """Return relation ``name`` with columns requalified under ``alias``."""
        relation = self.relation(name)
        if alias is None or alias == relation.name:
            return relation
        return relation.prefixed(alias)

    def index(self, relation_name: str, column: str) -> HashIndex:
        """Return (building if needed) a hash index on ``relation_name.column``.

        ``column`` is the *unqualified* attribute name; the index is built on
        the stored relation whose labels are ``relation_name.column``.
        """
        relation = self.relation(relation_name)
        label = f"{relation_name}.{column}" if not relation.has_column(column) else column
        return self._indexes.get(relation, relation_name, label)

    # ------------------------------------------------------------------ #
    @property
    def relation_names(self) -> list[str]:
        """Names of loaded relations."""
        return list(self._relations)

    @property
    def total_rows(self) -> int:
        """Total number of rows across all loaded relations."""
        return sum(len(relation) for relation in self._relations.values())

    def cardinalities(self) -> dict[str, int]:
        """Row count per loaded relation."""
        return {name: len(relation) for name, relation in self._relations.items()}

    def __iter__(self) -> Iterator[tuple[str, Relation]]:
        return iter(self._relations.items())

    def __len__(self) -> int:
        return len(self._relations)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Database(schema={self.schema.name!r}, relations={len(self._relations)}, "
            f"rows={self.total_rows})"
        )
