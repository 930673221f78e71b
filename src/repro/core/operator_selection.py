"""Operator selection strategies for o-sharing (Section VI-A).

Given an e-unit, o-sharing must decide which of the valid target operators to
execute next.  The paper studies three strategies:

* **Random** — pick uniformly among the valid operators.  Ignores all mapping
  information, so it tends to pick operators that split the mapping set into
  many partitions (many source operators executed).
* **SNF** (*Smallest Number of partitions First*) — pick the operator whose
  partitioning of the e-unit's mapping set has the fewest partitions.
* **SEF** (*Smallest Entropy First*) — pick the operator whose partitioning
  has the lowest entropy (Definition 1), i.e. whose mappings are concentrated
  in few, large partitions.  This is the strategy the paper recommends.

A strategy returns an :class:`OperatorChoice`, which also carries the mapping
partitions with respect to the chosen operator so that the evaluator does not
have to re-partition.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.core.eunit import CandidateOperator, EUnit
from repro.core.partition_tree import CoverKey, PartitionKey, partition
from repro.core.target_query import TargetQuery, target_attribute_names
from repro.matching.mappings import Mapping
from repro.relational.algebra import Scan


@dataclass(frozen=True)
class OperatorChoice:
    """The operator selected for execution, with its mapping partitions."""

    candidate: CandidateOperator
    #: partition keys the grouping was computed on
    attributes: tuple[PartitionKey, ...]
    partitions: tuple[tuple[Mapping, ...], ...]

    @property
    def partition_count(self) -> int:
        """Number of mapping partitions (source operators to execute)."""
        return len(self.partitions)


def _cover_key(query: TargetQuery, alias: str) -> CoverKey:
    """A cover key over the attributes a scan of ``alias`` must provide."""
    needed = tuple(attribute.qualified for attribute in query.needed_attributes(alias))
    return CoverKey(alias=alias, attributes=needed)


def _scan_keys(query: TargetQuery, alias: str) -> list[PartitionKey]:
    """Partition keys describing how a target scan of ``alias`` reformulates.

    A *referenced* alias is covered by the source relations of its referenced
    attributes, and a mapping that leaves any of them unmatched cannot answer
    the query at all — so the referenced attributes themselves are the keys
    (they distinguish both the cover and unmatchedness).  A *bare* alias (no
    referenced attributes) is covered by whatever its attributes map to, so
    the cover-relation set is the key.
    """
    referenced = query.attributes_for_alias(alias)
    if referenced:
        return list(target_attribute_names(referenced))
    return [_cover_key(query, alias)]


def partition_attributes(
    query: TargetQuery, candidate: CandidateOperator
) -> list[PartitionKey]:
    """The partition keys that determine how an operator reformulates.

    Two mappings reformulate the operator identically when they assign the
    same source attributes to the attributes the operator references, and —
    for every child that is still an (unreformulated) target scan — cover that
    scan with the same set of source relations (Section VI-B, Case 3).
    """
    if isinstance(candidate.operator, Scan):
        # Degenerate case: a bare target scan treated as the operator itself.
        return _scan_keys(query, candidate.operator.label)
    keys: list[PartitionKey] = list(
        target_attribute_names(query.operator_attributes(candidate.operator))
    )
    if len(candidate.operator.children()) == 2:
        # Binary operators replace each still-unreformulated scan child with
        # the source relations covering that alias, so how that scan
        # reformulates decides how the operator reformulates.  Unary operators
        # over a scan only cover the attributes they reference, which are
        # already in the keys.
        for child in candidate.operator.children():
            if isinstance(child, Scan):
                keys.extend(_scan_keys(query, child.label))
    elif not keys and isinstance(candidate.effective_leaf, Scan):
        # e.g. COUNT(*) directly over a target scan: the reformulated input is
        # the scan's cover, so partition on it.
        keys.extend(_scan_keys(query, candidate.effective_leaf.label))
    seen: set[PartitionKey] = set()
    ordered: list[PartitionKey] = []
    for key in keys:
        if key not in seen:
            seen.add(key)
            ordered.append(key)
    return ordered


def partition_for(
    query: TargetQuery,
    candidate: CandidateOperator,
    mappings: Sequence[Mapping],
) -> OperatorChoice:
    """Partition a mapping set with respect to one candidate operator."""
    attributes = partition_attributes(query, candidate)
    groups = partition(attributes, mappings)
    return OperatorChoice(
        candidate=candidate,
        attributes=tuple(attributes),
        partitions=tuple(tuple(group) for group in groups),
    )


def entropy(choice: OperatorChoice) -> float:
    """The entropy of a mapping partitioning (Definition 1 of the paper).

    ``E = - sum_j (|P_j| / |M|) * log2(|P_j| / |M|)`` where ``P_1..P_g`` are
    the partitions of the e-unit's mapping set ``M``.
    """
    total = sum(len(group) for group in choice.partitions)
    if total == 0:
        return 0.0
    value = 0.0
    for group in choice.partitions:
        fraction = len(group) / total
        if fraction > 0:
            value -= fraction * math.log2(fraction)
    return value


class SelectionStrategy(Protocol):
    """Interface of an operator selection strategy (the ``next`` routine)."""

    name: str

    def choose(
        self,
        unit: EUnit,
        candidates: Sequence[CandidateOperator],
        query: TargetQuery,
    ) -> OperatorChoice:
        """Pick the next operator among the valid candidates."""
        ...  # pragma: no cover - protocol


class RandomStrategy:
    """Pick a valid operator uniformly at random (seeded for reproducibility).

    The draw is a pure function of ``(seed, unit.path)``: every e-unit gets
    its own stream, keyed by its position in the u-trace, so the choice does
    not depend on the order a schedule happens to visit the units in.
    """

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def choose(
        self,
        unit: EUnit,
        candidates: Sequence[CandidateOperator],
        query: TargetQuery,
    ) -> OperatorChoice:
        rng = random.Random(f"{self.seed}:{unit.path}")
        candidate = rng.choice(list(candidates))
        return partition_for(query, candidate, unit.mappings)


class SNFStrategy:
    """Smallest Number of partitions First."""

    name = "snf"

    def choose(
        self,
        unit: EUnit,
        candidates: Sequence[CandidateOperator],
        query: TargetQuery,
    ) -> OperatorChoice:
        choices = [partition_for(query, candidate, unit.mappings) for candidate in candidates]
        return min(
            choices,
            key=lambda choice: (choice.partition_count, choice.candidate.operator.canonical()),
        )


class SEFStrategy:
    """Smallest Entropy First (Definition 1) — the paper's recommended strategy."""

    name = "sef"

    def choose(
        self,
        unit: EUnit,
        candidates: Sequence[CandidateOperator],
        query: TargetQuery,
    ) -> OperatorChoice:
        choices = [partition_for(query, candidate, unit.mappings) for candidate in candidates]
        return min(
            choices,
            key=lambda choice: (entropy(choice), choice.candidate.operator.canonical()),
        )


#: Strategy registry used by the o-sharing evaluator and the benchmarks.
STRATEGIES = {
    "random": RandomStrategy,
    "snf": SNFStrategy,
    "sef": SEFStrategy,
}


def make_strategy(name: str, seed: int = 0) -> SelectionStrategy:
    """Instantiate a strategy by (case-insensitive) name."""
    key = name.lower()
    if key not in STRATEGIES:
        raise KeyError(f"unknown strategy {name!r}; available: {sorted(STRATEGIES)}")
    if key == "random":
        return RandomStrategy(seed=seed)
    return STRATEGIES[key]()
