"""The :class:`Relation` container — an ordered bag of rows with labelled columns.

A relation produced by the executor carries *column labels* rather than a full
:class:`~repro.relational.schema.RelationSchema`: labels are strings of the
form ``alias.attribute`` (for scanned base relations) or whatever a projection
chose to call its outputs.  Labels are what predicates and projections resolve
against, and what o-sharing uses to decide whether an intermediate result
already covers the source attributes an operator needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.relational.schema import RelationSchema

Row = tuple

#: Monotonic source of data-version tokens (see :attr:`Relation.version`).
_DATA_VERSIONS = itertools.count(1)

#: The delta kinds a :class:`Relation` write can produce.
DELTA_APPEND = "append"
DELTA_UPDATE = "update"
DELTA_DELETE = "delete"


@dataclass(frozen=True)
class Delta:
    """One write, described precisely enough to patch plan-cache entries.

    A delta records the transition ``base_version → version`` of one
    relation's data: ``append`` carries the appended rows, ``update`` the
    affected row positions plus their replacement rows, ``delete`` the
    removed positions (positions refer to the *pre-write* row numbering).
    A wholesale :meth:`~repro.relational.database.Database.set_relation`
    has no delta — consumers receive ``None`` and must invalidate.
    """

    kind: str
    base_version: int
    version: int
    #: appended rows (``append``) or replacement rows (``update``)
    rows: tuple[Row, ...] = ()
    #: affected pre-write row positions (``update``/``delete``), ascending
    positions: tuple[int, ...] = ()

    @property
    def is_append(self) -> bool:
        """True for the monotone (cache-extending) delta kind."""
        return self.kind == DELTA_APPEND

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        payload = len(self.positions) if self.positions else len(self.rows)
        return (
            f"Delta({self.kind}, v{self.base_version}->v{self.version}, "
            f"{payload} rows)"
        )


def missing_column_error(columns: Sequence[str], label: str, display_name: str) -> KeyError:
    """The standard error for a label that is not among ``columns``."""
    return KeyError(
        f"relation {display_name or '<anonymous>'} has no column {label!r}; "
        f"columns are {list(columns)}"
    )


def resolve_label(columns: Sequence[str], name: str, qualifier: str | None = None) -> int:
    """Resolve an attribute reference against a plain label sequence.

    Mirrors :meth:`Relation.resolve` exactly (used by the optimizer's schema
    inference, which works on label tuples without materialised data): with a
    qualifier the exact label ``qualifier.name`` must exist; without one, an
    exact label match wins, then a unique ``*.name`` suffix match.
    """
    if qualifier is not None:
        label = f"{qualifier}.{name}"
        for i, candidate in enumerate(columns):
            if candidate == label:
                return i
        raise missing_column_error(columns, label, "")
    for i, candidate in enumerate(columns):
        if candidate == name:
            return i
    return resolve_unqualified(columns, name)


def unique_labels(labels: Sequence[str]) -> list[str]:
    """Deduplicate output labels (a projection may repeat a column).

    Shared by the executor's projection operator and the optimizer's schema
    inference so inferred output columns can never drift from executed ones.
    """
    seen: dict[str, int] = {}
    unique: list[str] = []
    for label in labels:
        seen[label] = seen.get(label, 0) + 1
        unique.append(label if seen[label] == 1 else f"{label}#{seen[label]}")
    return unique


def combine_labels(left: Sequence[str], right: Sequence[str]) -> list[str]:
    """Concatenate column labels, suffixing the right side on collisions.

    Shared by the executor's product/join operators and the optimizer's schema
    inference (same drift-prevention rationale as :func:`unique_labels`).
    """
    columns = list(left)
    taken = set(columns)
    for label in right:
        candidate = label
        counter = 2
        while candidate in taken:
            candidate = f"{label}#{counter}"
            counter += 1
        taken.add(candidate)
        columns.append(candidate)
    return columns


def resolve_unqualified(columns: Sequence[str], name: str) -> int:
    """Resolve an unqualified attribute reference against column labels.

    ``name`` must match exactly one ``*.name`` suffix (exact matches are the
    caller's fast path).  Shared by :class:`Relation` and
    :class:`~repro.relational.columnar.ColumnBatch` so the two engines can
    never drift apart on resolution semantics.
    """
    suffix = f".{name}"
    matches = [i for i, label in enumerate(columns) if label.endswith(suffix)]
    if not matches:
        raise KeyError(
            f"no column matches unqualified reference {name!r}; "
            f"columns are {list(columns)}"
        )
    if len(matches) > 1:
        ambiguous = [columns[i] for i in matches]
        raise KeyError(f"ambiguous reference {name!r}: matches {ambiguous}")
    return matches[0]


class Relation:
    """An ordered bag of rows over a fixed list of column labels."""

    __slots__ = (
        "columns",
        "name",
        "version",
        "_column_positions",
        "_column_cache",
        "_shard_cache",
        "_vector_cache",
        "_rows",
        "_length",
    )

    def __init__(
        self,
        columns: Sequence[str],
        rows: Iterable[Sequence[Any]] = (),
        name: str = "",
    ):
        self.columns: tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate column labels: {self.columns}")
        self._rows: list[Row] | None = [tuple(row) for row in rows]
        for row in self._rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} does not match column count {len(self.columns)}"
                )
        self._length = len(self._rows)
        self.name = name
        #: Data-version token: changes on every mutation, and is shared by
        #: derived relations that hold the *same* rows (``prefixed``,
        #: ``rename``), so caches keyed on it survive relabelling.
        self.version = next(_DATA_VERSIONS)
        self._column_positions = {label: i for i, label in enumerate(self.columns)}
        # Shared one-slot holder for the lazily built column-major view (see
        # column_data); derived relations over the same rows share the holder.
        self._column_cache: list = [None]
        # Shared one-slot holder for horizontal shards of the column data,
        # keyed on the version token exactly like the column-major cache (see
        # repro.relational.parallel.partition.cached_chunk_columns).
        self._shard_cache: list = [None]
        # Shared one-slot holder for the vector engine's classified NumPy
        # columns, keyed on the version token (see repro.relational.vector).
        self._vector_cache: list = [None]

    @property
    def rows(self) -> list[Row]:
        """The row-major tuples, materialised on first access.

        A relation built by :meth:`from_columns` starts with only the
        column-major view; its rows are assembled here the first time
        something actually iterates tuples.  Intermediate results that flow
        straight back into the columnar engine therefore never pay the
        row-assembly cost.
        """
        rows = self._rows
        if rows is None:
            data = self._column_cache[0][1]
            rows = list(zip(*data)) if data else [()] * self._length
            self._rows = rows
        return rows

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_schema(
        cls,
        schema: RelationSchema,
        rows: Iterable[Sequence[Any]] = (),
        alias: str | None = None,
    ) -> "Relation":
        """Build a relation whose labels are ``alias.attribute`` for ``schema``."""
        prefix = alias or schema.name
        columns = [f"{prefix}.{attribute.name}" for attribute in schema]
        return cls(columns, rows, name=prefix)

    @classmethod
    def from_dicts(cls, columns: Sequence[str], dicts: Iterable[dict]) -> "Relation":
        """Build a relation from a sequence of ``{label: value}`` dictionaries."""
        rows = [tuple(record.get(label) for label in columns) for record in dicts]
        return cls(columns, rows)

    @classmethod
    def empty(cls, columns: Sequence[str] = (), name: str = "") -> "Relation":
        """An empty relation (possibly with zero columns)."""
        return cls(columns, [], name=name)

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[str],
        data: Sequence[Sequence[Any]],
        name: str = "",
    ) -> "Relation":
        """Build a relation from column-major ``data`` (one sequence per column).

        This is the fast boundary between the columnar execution engine and
        the row-major :class:`Relation`: rows are assembled in one ``zip``
        pass and the column-major view is kept, so converting the result back
        into a :class:`~repro.relational.columnar.ColumnBatch` is free.  The
        column sequences are adopted as-is and must not be mutated afterwards.
        """
        if len(data) != len(columns):
            raise ValueError(
                f"got {len(data)} columns of data for {len(columns)} column labels"
            )
        relation = cls.__new__(cls)
        relation.columns = tuple(columns)
        if len(set(relation.columns)) != len(relation.columns):
            raise ValueError(f"duplicate column labels: {relation.columns}")
        relation._rows = None  # assembled lazily by the ``rows`` property
        relation._length = len(data[0]) if data else 0
        relation.name = name
        relation.version = next(_DATA_VERSIONS)
        relation._column_positions = {label: i for i, label in enumerate(relation.columns)}
        relation._column_cache = [
            (
                relation.version,
                [column if isinstance(column, list) else list(column) for column in data],
            )
        ]
        relation._shard_cache = [None]
        relation._vector_cache = [None]
        return relation

    # ------------------------------------------------------------------ #
    # column handling
    # ------------------------------------------------------------------ #
    def column_index(self, label: str) -> int:
        """Position of an exact column label."""
        try:
            return self._column_positions[label]
        except KeyError:
            raise missing_column_error(self.columns, label, self.name) from None

    def has_column(self, label: str) -> bool:
        """True when the exact label is present."""
        return label in self._column_positions

    def resolve(self, name: str, qualifier: str | None = None) -> int:
        """Resolve an attribute reference to a column position.

        With a qualifier the label ``qualifier.name`` must exist.  Without a
        qualifier the unqualified ``name`` must match exactly one column
        suffix (``*.name``) or an exact label ``name``.
        """
        if qualifier is not None:
            return self.column_index(f"{qualifier}.{name}")
        if name in self._column_positions:
            return self._column_positions[name]
        return resolve_unqualified(self.columns, name)

    def _relabelled_view(self, columns: Sequence[str], name: str) -> "Relation":
        """A view over this relation's data with different column labels.

        The rows, version token and column-major holder are shared, so the
        view costs O(columns) regardless of the row count and caches keyed on
        the version token keep hitting.  Sharing is copy-on-write: a write to
        either relation installs a brand-new row list and new cache holders
        on that relation only (see :meth:`_commit`), so views keep their
        snapshot semantics.
        """
        view = Relation.__new__(Relation)
        view.columns = tuple(columns)
        if len(set(view.columns)) != len(view.columns):
            raise ValueError(f"duplicate column labels: {view.columns}")
        view._rows = self._rows
        view._length = self._length
        view.name = name
        view.version = self.version
        view._column_positions = {label: i for i, label in enumerate(view.columns)}
        view._column_cache = self._column_cache
        view._shard_cache = self._shard_cache
        view._vector_cache = self._vector_cache
        return view

    def rename(self, renaming: dict[str, str]) -> "Relation":
        """Return a relation with columns renamed per ``renaming`` (missing keys kept)."""
        columns = [renaming.get(label, label) for label in self.columns]
        return self._relabelled_view(columns, self.name)

    def prefixed(self, prefix: str) -> "Relation":
        """Return a copy whose column labels are requalified with ``prefix``."""
        columns = [f"{prefix}.{label.split('.', 1)[-1]}" for label in self.columns]
        return self._relabelled_view(columns, prefix)

    def column_data(self) -> list[list]:
        """The column-major view of the rows (one list per column), cached.

        The cache is keyed on :attr:`version`, so it survives relabelling
        (``prefixed``/``rename`` views share both the rows and the holder) and
        is rebuilt after a mutation.  The returned lists are shared — callers
        must treat them as read-only.
        """
        # Read the token before the rows: a write swaps the rows before it
        # bumps the token, so data built here is never filed under a newer
        # token than the rows it was built from.
        version = self.version
        cached = self._column_cache[0]
        if cached is not None and cached[0] == version:
            return cached[1]
        rows = self.rows
        if rows:
            data = [list(column) for column in zip(*rows)]
        else:
            data = [[] for _ in self.columns]
        self._column_cache[0] = (version, data)
        return data

    # ------------------------------------------------------------------ #
    # row handling
    # ------------------------------------------------------------------ #
    def _validated(self, rows: Iterable[Sequence[Any]]) -> list[Row]:
        """Rows as width-checked tuples."""
        validated = [tuple(row) for row in rows]
        width = len(self.columns)
        for row in validated:
            if len(row) != width:
                raise ValueError(
                    f"row width {len(row)} does not match column count {width}"
                )
        return validated

    def _commit(self, delta: Delta, rows: list[Row]) -> Delta:
        """Install ``rows`` (a brand-new list) as the data at ``delta.version``.

        The column, shard and vector holders are replaced by empty ones:
        relabelled views keep the old holders with their payloads (their
        snapshot), and everything derived from the new rows is rebuilt
        lazily on next use, keyed by the new token.  Data is swapped before
        the token is bumped, so a concurrent version-checked reader can
        observe (old version, new data) — which it treats as stale — but
        never the reverse.
        """
        self._rows = rows
        self._length = len(rows)
        self._column_cache = [None]
        self._shard_cache = [None]
        self._vector_cache = [None]
        self.version = delta.version
        return delta

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> Delta | None:
        """Append many rows, returning the :class:`Delta` describing the write.

        Version-keyed derived data (column-major lists, shards, vector
        arrays, and the database's indexes and statistics) is rebuilt lazily
        on next use; only the :class:`Delta` goes to listeners such as the
        plan cache.  Returns ``None`` (and writes nothing) for an empty
        input.
        """
        appended = self._validated(rows)
        if not appended:
            return None
        delta = Delta(
            DELTA_APPEND, self.version, next(_DATA_VERSIONS), rows=tuple(appended)
        )
        return self._commit(delta, self.rows + appended)

    def update_rows(
        self, positions: Sequence[int], rows: Iterable[Sequence[Any]]
    ) -> Delta | None:
        """Replace the rows at ``positions`` (pre-write numbering) with ``rows``."""
        replacements = self._validated(rows)
        targets = [int(position) for position in positions]
        if len(targets) != len(replacements):
            raise ValueError(
                f"{len(targets)} positions for {len(replacements)} replacement rows"
            )
        if not targets:
            return None
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate update positions: {targets}")
        for position in targets:
            if not 0 <= position < self._length:
                raise IndexError(
                    f"row position {position} out of range for {self._length} rows"
                )
        order = sorted(range(len(targets)), key=targets.__getitem__)
        targets = [targets[i] for i in order]
        replacements = [replacements[i] for i in order]
        delta = Delta(
            DELTA_UPDATE,
            self.version,
            next(_DATA_VERSIONS),
            rows=tuple(replacements),
            positions=tuple(targets),
        )
        new_rows = list(self.rows)
        for position, row in zip(targets, replacements):
            new_rows[position] = row
        return self._commit(delta, new_rows)

    def delete_rows(self, positions: Sequence[int]) -> Delta | None:
        """Remove the rows at ``positions`` (pre-write numbering)."""
        targets = sorted({int(position) for position in positions})
        if not targets:
            return None
        for position in targets:
            if not 0 <= position < self._length:
                raise IndexError(
                    f"row position {position} out of range for {self._length} rows"
                )
        delta = Delta(
            DELTA_DELETE, self.version, next(_DATA_VERSIONS), positions=tuple(targets)
        )
        doomed = set(targets)
        return self._commit(
            delta, [row for i, row in enumerate(self.rows) if i not in doomed]
        )

    def append(self, row: Sequence[Any]) -> None:
        """Append one row (validated for width)."""
        self.append_rows([row])

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append many rows."""
        self.append_rows(rows)

    def value(self, row: Row, label: str) -> Any:
        """Value of ``label`` within ``row``."""
        return row[self.column_index(label)]

    def project_rows(self, indexes: Sequence[int]) -> list[Row]:
        """Rows restricted to the given column positions."""
        return [tuple(row[i] for i in indexes) for row in self.rows]

    def filter(self, keep: Callable[[Row], bool]) -> "Relation":
        """A new relation containing the rows for which ``keep`` returns True."""
        return Relation(self.columns, [row for row in self.rows if keep(row)], name=self.name)

    def distinct(self) -> "Relation":
        """A new relation with duplicate rows removed (first occurrence kept)."""
        seen: set[Row] = set()
        rows = []
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                rows.append(row)
        return Relation(self.columns, rows, name=self.name)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as ``{label: value}`` dictionaries (handy in tests and examples)."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    # ------------------------------------------------------------------ #
    # dunder plumbing
    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        """True when the relation holds no rows."""
        return self._length == 0

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Relation(name={self.name!r}, columns={list(self.columns)}, "
            f"rows={len(self.rows)})"
        )

    def pretty(self, limit: int = 10) -> str:
        """A small fixed-width rendering used by the examples."""
        header = " | ".join(self.columns)
        divider = "-" * len(header)
        lines = [header, divider]
        for row in self.rows[:limit]:
            lines.append(" | ".join(str(value) for value in row))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)
