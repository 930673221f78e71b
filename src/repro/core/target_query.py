"""Target queries: relational-algebra plans over a *target* schema.

A :class:`TargetQuery` wraps a plan tree (:mod:`repro.relational.algebra`)
whose scans name relations of the target schema ``T`` and whose column
references use target attributes.  It adds everything the paper's algorithms
need to know about the query:

* which target attributes the query references (the partitioning attributes
  of q-sharing, Section IV),
* which attributes each scan alias needs from its target relation (used by
  operator reformulation, Section VI-B),
* the query's *output attributes*, which define the shape of an answer tuple
  (Section III's answer semantics), and
* the alias → target relation map needed to interpret self-joins
  (``PO1 × PO2`` in the paper's Q4).

Column references are normalised at construction time so that every reference
carries an explicit alias qualifier; downstream code never has to re-resolve
ambiguous names.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.relational.algebra import (
    Aggregate,
    Join,
    PlanNode,
    Product,
    Project,
    Scan,
    Select,
    Union,
    plan_scans,
)
from repro.relational.expressions import ColumnRef
from repro.relational.schema import DatabaseSchema


class TargetQueryError(ValueError):
    """Raised when a target query does not type-check against its schema."""


@dataclass(frozen=True)
class TargetAttribute:
    """One referenced target attribute: a scan alias plus an attribute name."""

    alias: str
    relation: str
    name: str

    @property
    def qualified(self) -> str:
        """The schema-level identity ``relation.name`` (mapping correspondences key)."""
        return f"{self.relation}.{self.name}"

    @property
    def display(self) -> str:
        """The query-level identity ``alias.name``."""
        return f"{self.alias}.{self.name}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.display


class TargetQuery:
    """A probabilistic query issued against the target schema."""

    def __init__(self, plan: PlanNode, schema: DatabaseSchema, name: str = ""):
        self.schema = schema
        self.name = name or "target-query"
        self._aliases = self._collect_aliases(plan)
        self.plan = self._normalize(plan)
        self._referenced = self._collect_referenced(self.plan)
        self._validate()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _collect_aliases(self, plan: PlanNode) -> dict[str, str]:
        aliases: dict[str, str] = {}
        for scan in plan.walk():
            if not isinstance(scan, Scan):
                continue
            if not self.schema.has_relation(scan.relation):
                raise TargetQueryError(
                    f"query scans unknown target relation {scan.relation!r} "
                    f"(schema {self.schema.name!r})"
                )
            if scan.label in aliases:
                raise TargetQueryError(f"duplicate scan alias {scan.label!r} in target query")
            aliases[scan.label] = scan.relation
        if not aliases:
            raise TargetQueryError("a target query must scan at least one target relation")
        return aliases

    def _normalize(self, plan: PlanNode) -> PlanNode:
        """Rewrite the plan so every column reference carries an alias qualifier."""

        def qualify(ref: ColumnRef) -> ColumnRef:
            if ref.qualifier is not None:
                if ref.qualifier not in self._aliases:
                    raise TargetQueryError(
                        f"column reference {ref.display!r} uses unknown alias "
                        f"{ref.qualifier!r}; known aliases: {sorted(self._aliases)}"
                    )
                return ref
            owners = [
                alias
                for alias, relation in self._aliases.items()
                if self.schema.relation(relation).has_attribute(ref.name)
            ]
            if not owners:
                raise TargetQueryError(
                    f"column reference {ref.name!r} does not match any scanned target relation"
                )
            if len(owners) > 1:
                raise TargetQueryError(
                    f"column reference {ref.name!r} is ambiguous between aliases {owners}; "
                    "qualify it explicitly"
                )
            return ColumnRef(name=ref.name, qualifier=owners[0])

        def rewrite(node: PlanNode) -> PlanNode:
            # Rebuild the nodes that carry column references.
            if isinstance(node, Select):
                return Select(node.child, node.predicate.rename(qualify))
            if isinstance(node, Join):
                return Join(node.left, node.right, node.predicate.rename(qualify))
            if isinstance(node, Project):
                return Project(node.child, [qualify(ref) for ref in node.columns], node.distinct)
            if isinstance(node, Aggregate):
                argument = node.argument.rename(qualify) if node.argument is not None else None
                group_by = [qualify(ref) for ref in node.group_by]
                return Aggregate(node.child, node.function, argument, group_by)
            return node

        return plan.transform(rewrite)

    def _collect_referenced(self, plan: PlanNode) -> list[TargetAttribute]:
        seen: set[tuple[str, str]] = set()
        ordered: list[TargetAttribute] = []
        for ref in plan.subtree_columns():
            key = (ref.qualifier, ref.name)
            if key in seen:
                continue
            seen.add(key)
            ordered.append(self.resolve(ref))
        return ordered

    def _validate(self) -> None:
        for attribute in self._referenced:
            relation = self.schema.relation(attribute.relation)
            if not relation.has_attribute(attribute.name):
                raise TargetQueryError(
                    f"target relation {attribute.relation!r} has no attribute {attribute.name!r}"
                )

    # ------------------------------------------------------------------ #
    # alias / attribute introspection
    # ------------------------------------------------------------------ #
    @property
    def aliases(self) -> dict[str, str]:
        """Scan alias → target relation name."""
        return dict(self._aliases)

    def alias_relation(self, alias: str) -> str:
        """Target relation scanned under ``alias``."""
        try:
            return self._aliases[alias]
        except KeyError:
            raise KeyError(f"query has no scan alias {alias!r}") from None

    def resolve(self, ref: ColumnRef) -> TargetAttribute:
        """Resolve a (normalised) column reference into a :class:`TargetAttribute`."""
        if ref.qualifier is None:
            raise TargetQueryError(
                f"column reference {ref.name!r} is not qualified; "
                "resolve() must be called on a normalised query"
            )
        return TargetAttribute(
            alias=ref.qualifier,
            relation=self.alias_relation(ref.qualifier),
            name=ref.name,
        )

    @property
    def referenced_attributes(self) -> list[TargetAttribute]:
        """Distinct referenced target attributes, in first-use order."""
        return list(self._referenced)

    def attributes_for_alias(self, alias: str) -> list[TargetAttribute]:
        """Referenced attributes belonging to one scan alias."""
        return [attribute for attribute in self._referenced if attribute.alias == alias]

    def needed_attributes(self, alias: str) -> list[TargetAttribute]:
        """Attributes a reformulated scan of ``alias`` must cover (Section VI-B).

        These are the attributes the query references through the alias; when
        the query never references the alias (a bare cross-product operand,
        like ``Order`` in the paper's q2), *all* attributes of the scanned
        target relation are needed, mirroring Case 3 of the paper's binary
        operator reformulation.
        """
        referenced = self.attributes_for_alias(alias)
        if referenced:
            return referenced
        relation = self.alias_relation(alias)
        return [
            TargetAttribute(alias=alias, relation=relation, name=attribute.name)
            for attribute in self.schema.relation(relation)
        ]

    @property
    def partition_attributes(self) -> list[str]:
        """Qualified referenced target attributes, de-duplicated in a stable order."""
        seen: set[str] = set()
        ordered: list[str] = []
        for attribute in self._referenced:
            if attribute.qualified not in seen:
                seen.add(attribute.qualified)
                ordered.append(attribute.qualified)
        return ordered

    @property
    def partition_keys(self) -> list:
        """The partition keys q-sharing groups the mappings on (Section IV).

        Two mappings that agree on every key produce the same source query:
        they must assign the same source attribute to every *referenced*
        target attribute, and for every alias the query never constrains (a
        bare cross-product operand) they must cover it with the same set of
        source relations.
        """
        from repro.core.partition_tree import CoverKey

        keys: list = list(self.partition_attributes)
        for alias in self._aliases:
            if not self.attributes_for_alias(alias):
                needed = tuple(attribute.qualified for attribute in self.needed_attributes(alias))
                keys.append(CoverKey(alias=alias, attributes=needed))
        return keys

    # ------------------------------------------------------------------ #
    # output semantics
    # ------------------------------------------------------------------ #
    @property
    def _output_root(self) -> PlanNode:
        """The node that defines the answer shape.

        For a UNION root the output adopts the left branch's shape (and the
        executor produces the left branch's column labels), so the search
        descends into left children of unions.
        """
        node = self.plan
        while isinstance(node, Union):
            node = node.left
        return node

    @property
    def is_aggregate(self) -> bool:
        """True when the query's answers are aggregate values."""
        return isinstance(self._output_root, Aggregate)

    @property
    def output_attributes(self) -> list[TargetAttribute]:
        """The target attributes whose values form an answer tuple.

        * projection root → the projected attributes, in projection order;
        * aggregate root → empty (the answer is the aggregate value itself);
        * union root → the output attributes of the union's left branch;
        * otherwise → every referenced attribute, in first-use order.
        """
        root = self._output_root
        if isinstance(root, Aggregate):
            return []
        if isinstance(root, Project):
            return [self.resolve(ref) for ref in root.columns]
        return list(self._referenced)

    # ------------------------------------------------------------------ #
    # plan introspection
    # ------------------------------------------------------------------ #
    @property
    def operator_count(self) -> int:
        """Number of operators (non-leaf nodes) in the target plan."""
        return len(self.plan.operators())

    @property
    def attribute_count(self) -> int:
        """Number of distinct referenced target attributes (the paper's ``l``)."""
        return len(self._referenced)

    def operator_attributes(self, operator: PlanNode) -> list[TargetAttribute]:
        """Distinct target attributes referenced by one operator of the plan."""
        seen: set[tuple[str | None, str]] = set()
        ordered: list[TargetAttribute] = []
        for ref in operator.referenced_columns():
            key = (ref.qualifier, ref.name)
            if key in seen:
                continue
            seen.add(key)
            ordered.append(self.resolve(ref))
        return ordered

    def with_plan(self, plan: PlanNode) -> "TargetQuery":
        """This query over an equivalent, already normalised plan on the same scans.

        The copy keeps this query's scan aliases and referenced-attribute
        order, so its output attributes, partition keys and answer columns
        are this query's; only where the operators sit changes.
        """
        rewritten = copy.copy(self)
        rewritten.plan = plan
        return rewritten

    def describe(self) -> str:
        """A one-line description used by examples and benchmark output."""
        return f"{self.name}: {self.plan.canonical()}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TargetQuery(name={self.name!r}, schema={self.schema.name!r}, "
            f"operators={self.operator_count}, attributes={self.attribute_count})"
        )


def target_attribute_names(attributes: Iterable[TargetAttribute]) -> list[str]:
    """Qualified names of a sequence of target attributes (order preserved)."""
    return [attribute.qualified for attribute in attributes]


# --------------------------------------------------------------------------- #
# selection pushdown below products (the u-trace's target plan)
# --------------------------------------------------------------------------- #
def push_selections(query: TargetQuery) -> TargetQuery:
    """``query`` with each selection moved onto the product side it reads.

    The u-trace runs a selection only once everything below it is a leaf,
    so a selection above a product waits until the whole product is built.
    For every chain of selections over a ``Product`` or ``Join`` this moves
    each selection whose columns all belong to one side's scan aliases onto
    that side, unchanged and in its original order, then recurses into both
    sides.  When exactly one selection is left over a ``Product`` and it
    reads both sides, the pair becomes a ``Join``.  Every selection stays
    its own ``Select``: merging a chain into one conjunction would stop
    mappings that agree on some of its attributes from sharing those
    operators.

    The result keeps the original query's referenced-attribute order
    (:meth:`TargetQuery.with_plan`), so answers keep their column order.
    ``query`` itself is returned when no selection moves.
    """
    plan = _push(query.plan)
    if plan.canonical() == query.plan.canonical():
        return query
    return query.with_plan(plan)


def _push(node: PlanNode) -> PlanNode:
    selections: list[Select] = []
    bottom = node
    while isinstance(bottom, Select):
        selections.append(bottom)
        bottom = bottom.child
    selections.reverse()  # innermost first, the order they apply in
    if not selections or not isinstance(bottom, (Product, Join)):
        children = bottom.children()
        if children:
            bottom = bottom.with_children([_push(child) for child in children])
        return _stack(bottom, selections)

    left_aliases = {scan.label for scan in plan_scans(bottom.left)}
    right_aliases = {scan.label for scan in plan_scans(bottom.right)}
    to_left: list[Select] = []
    to_right: list[Select] = []
    kept: list[Select] = []
    for selection in selections:
        aliases = {ref.qualifier for ref in selection.referenced_columns()}
        if aliases and aliases <= left_aliases:
            to_left.append(selection)
        elif aliases and aliases <= right_aliases:
            to_right.append(selection)
        else:
            kept.append(selection)
    left = _push(_stack(bottom.left, to_left))
    right = _push(_stack(bottom.right, to_right))
    if isinstance(bottom, Product) and len(kept) == 1 and kept[0].referenced_columns():
        return Join(left, right, kept[0].predicate)
    return _stack(bottom.with_children([left, right]), kept)


def _stack(node: PlanNode, selections: Sequence[Select]) -> PlanNode:
    """``node`` under ``selections``, the first applied innermost."""
    for selection in selections:
        node = Select(node, selection.predicate)
    return node
