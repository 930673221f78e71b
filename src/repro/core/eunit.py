"""Execution units and the u-trace (Section V of the paper).

An *e-unit* captures the state of a partially executed target query:

* ``plan`` — the target query plan in which already-executed operators have
  been replaced by :class:`~repro.relational.algebra.Materialized` results;
* ``mappings`` — the possible mappings that share every correspondence used
  by the operators executed so far; and
* ``next_op`` — the operator chosen (by an operator-selection strategy) to be
  executed next.

The *u-trace* is the tree of e-units produced while o-sharing interleaves
query rewriting with operator execution.  An e-unit knows its position in
that tree (``path``: the partition-group index taken at every level), which
is all a schedule, a replay key or a per-unit random draw may depend on;
:mod:`repro.core.utrace` holds the one loop that grows the tree.

This module also hosts the *candidate operator* enumeration: which operators
of an e-unit's plan may be chosen as ``next_op`` (the "correctness" criterion
of Section VI-A), including the ``reorder_op`` rule that pushes a selection
below other selections so it can run directly against a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.target_query import TargetQuery
from repro.matching.mappings import Mapping
from repro.relational.algebra import (
    Aggregate,
    Join,
    Materialized,
    PlanNode,
    Product,
    Project,
    Scan,
    Select,
    Union,
)


@dataclass(frozen=True)
class CandidateOperator:
    """A target operator that may legally be executed next.

    ``pushdown_leaf`` is set for selections that sit above a chain of other
    selections: the selection is valid because it can be reordered to apply
    directly to ``pushdown_leaf`` (the paper's ``reorder_op``); it is ``None``
    when the operator's children are already leaves.
    """

    operator: PlanNode
    pushdown_leaf: PlanNode | None = None

    @property
    def effective_leaf(self) -> PlanNode:
        """The leaf the operator will be evaluated against (unary operators)."""
        if self.pushdown_leaf is not None:
            return self.pushdown_leaf
        return self.operator.children()[0]


@dataclass
class EUnit:
    """One execution unit of the u-trace."""

    plan: PlanNode
    mappings: list[Mapping]
    #: position in the u-trace: the index of the partition group taken at
    #: each level below the root (the root's path is empty)
    path: tuple[int, ...] = ()
    next_op: CandidateOperator | None = None

    @property
    def depth(self) -> int:
        """Number of operators executed on the way to this e-unit."""
        return len(self.path)

    @property
    def probability(self) -> float:
        """Total probability of the e-unit's mapping set."""
        return sum(mapping.probability for mapping in self.mappings)

    @property
    def is_fully_evaluated(self) -> bool:
        """Case 1 of ``run_qt``: the plan is a single materialised relation."""
        return isinstance(self.plan, Materialized)

    @property
    def result(self) -> Materialized:
        """The final materialised result (only valid when fully evaluated)."""
        if not isinstance(self.plan, Materialized):
            raise ValueError("e-unit is not fully evaluated")
        return self.plan

    def has_empty_intermediate(self) -> bool:
        """Case 2 of ``run_qt``: some materialised leaf is empty.

        The shortcut is only taken when no aggregate and no union operator
        remains in the plan: an aggregate over an empty input still produces a
        row (COUNT returns 0), and a union with one empty input still returns
        the other input's tuples, so pruning either would change the answer.
        """
        if any(isinstance(node, (Aggregate, Union)) for node in self.plan.walk()):
            return False
        return any(
            isinstance(node, Materialized) and node.is_empty for node in self.plan.walk()
        )

    def spawn(self, plan: PlanNode, mappings: Sequence[Mapping], index: int) -> "EUnit":
        """The child e-unit reached through partition group ``index``."""
        return EUnit(plan=plan, mappings=list(mappings), path=self.path + (index,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EUnit(path={self.path}, mappings={len(self.mappings)}, "
            f"p={self.probability:.3f})"
        )


# --------------------------------------------------------------------------- #
# candidate (valid) operator enumeration — the correctness criterion of VI-A
# --------------------------------------------------------------------------- #
def is_leaf(node: PlanNode) -> bool:
    """True for plan leaves (target scans and materialised intermediates)."""
    return isinstance(node, (Scan, Materialized))


def candidate_operators(plan: PlanNode, query: TargetQuery) -> list[CandidateOperator]:
    """All operators of ``plan`` that may correctly be executed next.

    * a selection is valid when the nodes between it and a leaf are all
      selections (it can be reordered down to the leaf);
    * a projection is valid when its child is a leaf and no remaining ancestor
      references a column the projection would drop;
    * an aggregate is valid when its child is a leaf;
    * a product, join or union is valid when both children are leaves.
    """
    parents = _parent_map(plan)
    candidates: list[CandidateOperator] = []
    for node in plan.walk():
        if isinstance(node, Select):
            leaf = _selection_pushdown_leaf(node)
            if leaf is not None:
                pushdown = None if node.children()[0] is leaf else leaf
                candidates.append(CandidateOperator(operator=node, pushdown_leaf=pushdown))
        elif isinstance(node, Project):
            if is_leaf(node.child) and _projection_keeps_needed_columns(node, parents):
                candidates.append(CandidateOperator(operator=node))
        elif isinstance(node, Aggregate):
            if is_leaf(node.child):
                candidates.append(CandidateOperator(operator=node))
        elif isinstance(node, (Product, Join, Union)):
            if all(is_leaf(child) for child in node.children()):
                candidates.append(CandidateOperator(operator=node))
    return candidates


def _selection_pushdown_leaf(node: Select) -> PlanNode | None:
    """The leaf a selection can be pushed down to, or ``None`` when invalid."""
    current: PlanNode = node.child
    while isinstance(current, Select):
        current = current.child
    return current if is_leaf(current) else None


def _projection_keeps_needed_columns(node: Project, parents: dict[int, PlanNode]) -> bool:
    """True when no ancestor of the projection references a dropped column."""
    kept = {(ref.qualifier, ref.name) for ref in node.columns}
    ancestor = parents.get(id(node))
    while ancestor is not None:
        for ref in ancestor.referenced_columns():
            if (ref.qualifier, ref.name) not in kept:
                return False
        ancestor = parents.get(id(ancestor))
    return True


def _parent_map(plan: PlanNode) -> dict[int, PlanNode]:
    """Map from node identity to its parent node."""
    parents: dict[int, PlanNode] = {}
    for node in plan.walk():
        for child in node.children():
            parents[id(child)] = node
    return parents


# --------------------------------------------------------------------------- #
# plan surgery used after executing an operator
# --------------------------------------------------------------------------- #
def splice_out(plan: PlanNode, operator: PlanNode) -> PlanNode:
    """Remove a unary operator from the plan, reconnecting its child."""
    children = operator.children()
    if len(children) != 1:
        raise ValueError("only unary operators can be spliced out")
    return plan.replace(operator, children[0])


def apply_execution(
    plan: PlanNode,
    candidate: CandidateOperator,
    result: Materialized,
) -> PlanNode:
    """Replace an executed operator (and the leaf it consumed) with its result.

    * binary operators and leaf-adjacent unary operators are replaced as a
      whole subtree;
    * a pushed-down selection is spliced out of its original position and the
      leaf it was evaluated against is replaced by the result.
    """
    operator = candidate.operator
    if candidate.pushdown_leaf is None:
        return plan.replace(operator, result)
    without_selection = splice_out(plan, operator)
    return without_selection.replace(candidate.pushdown_leaf, result)


def iter_materialized(plan: PlanNode) -> Iterator[Materialized]:
    """All materialised leaves of a plan."""
    for node in plan.walk():
        if isinstance(node, Materialized):
            yield node
