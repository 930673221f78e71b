"""Version-keyed statistics catalog over a :class:`~repro.relational.database.Database`.

The cost-based optimizer needs three things from the data: per-relation
cardinalities, per-column value profiles (NDV, min/max, null count, a small
equi-width histogram for numeric columns) and the *type family* of a column
(all-numeric, all-string, ...).  The catalog collects all of them lazily and
keys every entry on the source relation's
:attr:`~repro.relational.relation.Relation.version` token — exactly like
:class:`~repro.relational.indexes.IndexCatalog` — so statistics survive
relabelled views of unchanged data and are transparently re-collected after a
mutation.

The type family matters for *correctness*, not just cost: the executor's hash
join matches keys with dict semantics (no string↔number coercion), while a
selection over a Cartesian product compares with
:func:`~repro.relational.types.comparable` coercion.  The Select+Product→Join
rewrite is therefore only sound when both join columns live in the same
coercion-free family, which :func:`column_family` determines.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.relational.relation import Relation

# The family helpers live in repro.relational.types (the executor's runtime
# composite-key guard needs them without importing the optimizer package);
# re-exported here because they are part of the statistics vocabulary.
from repro.relational.types import (  # noqa: F401  (re-exports)
    FAMILY_EMPTY,
    FAMILY_MIXED,
    FAMILY_NUMERIC,
    FAMILY_STRING,
    column_family,
    hash_compatible,
)

#: Number of buckets in the per-column equi-width histograms.
HISTOGRAM_BUCKETS = 8


@dataclass
class ColumnStats:
    """Value profile of one column of a base relation."""

    relation: str
    attribute: str
    count: int
    nulls: int
    ndv: int
    family: str
    minimum: Any = None
    maximum: Any = None
    #: ``(low, high, count)`` equi-width buckets over the non-null numeric
    #: values; empty for non-numeric columns.
    histogram: list[tuple[float, float, int]] = field(default_factory=list)

    @property
    def non_null(self) -> int:
        """Number of non-null values."""
        return self.count - self.nulls

    # ------------------------------------------------------------------ #
    # selectivity estimation
    # ------------------------------------------------------------------ #
    def selectivity_eq(self, value: Any = None) -> float:
        """Estimated fraction of rows matching ``column = value``."""
        if self.count == 0 or self.non_null == 0:
            return 0.0
        if value is not None and self.histogram:
            numeric = _as_number(value)
            if numeric is not None:
                low, high = self.histogram[0][0], self.histogram[-1][1]
                if numeric < low or numeric > high:
                    return 0.0
        return min(1.0, (1.0 / max(1, self.ndv)) * (self.non_null / self.count))

    def selectivity_range(self, op: str, value: Any) -> float:
        """Estimated fraction of rows matching ``column <op> value``."""
        if self.count == 0 or self.non_null == 0:
            return 0.0
        fraction = None
        numeric = _as_number(value)
        if numeric is not None and self.histogram:
            below = self.fraction_below(numeric)
            if op in ("<", "<="):
                fraction = below
            elif op in (">", ">="):
                fraction = 1.0 - below
        if fraction is None:
            fraction = 1.0 / 3.0  # the classical System R default
        fraction *= self.non_null / self.count
        return min(1.0, max(0.0, fraction))

    def fraction_below(self, value: float) -> float:
        """Estimated fraction of non-null values ``<= value`` (histogram-based)."""
        if not self.histogram or self.non_null == 0:
            return 0.5
        covered = 0.0
        for low, high, count in self.histogram:
            if value >= high:
                covered += count
            elif value > low:
                width = high - low
                covered += count * ((value - low) / width if width else 1.0)
        return min(1.0, covered / self.non_null)


def collect_column_stats(relation: Relation, label: str, attribute: str) -> ColumnStats:
    """Profile one column of ``relation`` (one pass over the column data)."""
    position = relation.column_index(label)
    values = relation.column_data()[position] if len(relation) else []
    nulls = 0
    distinct: set = set()
    numeric: list[float] = []
    for value in values:
        if value is None:
            nulls += 1
            continue
        try:
            distinct.add(value)
        except TypeError:  # unhashable value: count it as its own distinct
            distinct.add(id(value))
        if isinstance(value, bool):
            numeric.append(int(value))
        elif isinstance(value, (int, float)) and value == value:
            numeric.append(value)
    stats = ColumnStats(
        relation=relation.name,
        attribute=attribute,
        count=len(values),
        nulls=nulls,
        ndv=len(distinct),
        family=column_family(values),
    )
    if numeric:
        stats.minimum, stats.maximum = min(numeric), max(numeric)
        stats.histogram = _equi_width_histogram(numeric, stats.minimum, stats.maximum)
    return stats


def _equi_width_histogram(
    values: list[float], low: float, high: float
) -> list[tuple[float, float, int]]:
    if high <= low:
        return [(low, high, len(values))]
    buckets = [0] * HISTOGRAM_BUCKETS
    width = (high - low) / HISTOGRAM_BUCKETS
    for value in values:
        index = min(HISTOGRAM_BUCKETS - 1, int((value - low) / width))
        buckets[index] += 1
    return [
        (low + i * width, low + (i + 1) * width, count)
        for i, count in enumerate(buckets)
    ]


def _as_number(value: Any) -> float | None:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        stripped = value.strip()
        for parser in (int, float):
            try:
                return parser(stripped)
            except ValueError:
                continue
    return None


class StatsCatalog:
    """Lazy, version-keyed statistics over the relations of one database.

    Statistics are collected the first time they are asked for and cached
    under the relation's data-version token; a stale entry (the relation was
    mutated or replaced) is transparently re-collected.  :attr:`collections`
    counts the physical profiling passes, mirroring ``IndexCatalog.builds``.
    """

    def __init__(self, database):
        self.database = database
        self._row_counts: dict[str, tuple[int, int]] = {}
        self._columns: dict[tuple[str, str], tuple[ColumnStats, int]] = {}
        #: number of column-profiling passes physically executed
        self.collections: int = 0
        # Entries are shared by every executor/session thread over this
        # database; reads-with-refresh must be atomic.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    def row_count(self, relation_name: str) -> int | None:
        """Cardinality of a base relation (``None`` when it is not loaded)."""
        try:
            relation = self.database.relation(relation_name)
        except KeyError:
            return None
        with self._lock:
            cached = self._row_counts.get(relation_name)
            if cached is not None and cached[1] == relation.version:
                return cached[0]
            count = len(relation)
            self._row_counts[relation_name] = (count, relation.version)
            return count

    def column(self, relation_name: str, attribute: str) -> ColumnStats | None:
        """Profile of ``relation_name.attribute`` (``None`` when unavailable).

        A stale entry (the relation was written or replaced since it was
        profiled) is re-profiled in one full pass.
        """
        try:
            relation = self.database.relation(relation_name)
        except KeyError:
            return None
        key = (relation_name, attribute)
        label = (
            attribute
            if relation.has_column(attribute)
            else f"{relation_name}.{attribute}"
        )
        if not relation.has_column(label):
            return None
        with self._lock:
            version = relation.version
            cached = self._columns.get(key)
            if cached is not None and cached[1] == version:
                return cached[0]
            stats = collect_column_stats(relation, label, attribute)
            self.collections += 1
            self._columns[key] = (stats, version)
            return stats

    def versions(self, relation_names: Iterable[str]) -> dict[str, int]:
        """Current version token per loaded relation (used for memo freshness)."""
        versions: dict[str, int] = {}
        for name in relation_names:
            try:
                versions[name] = self.database.relation(name).version
            except KeyError:
                versions[name] = -1
        return versions

    def __len__(self) -> int:
        return len(self._columns)
