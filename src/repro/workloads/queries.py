"""The target-query workload of the paper (Table III).

Ten queries over the three target schemas — Q1-Q5 on Excel, Q6-Q7 on Noris and
Q8-Q10 on Paragon — combining selections, projections, Cartesian products
(including self-joins), COUNT and SUM, exactly as listed in Table III.

Two faithful-but-necessary adjustments are made, both recorded in the Setup
section of REPRODUCTION.md:

* selection constants on *address-valued* attributes use ``'Central'`` (a
  street name that occurs in the generated instance) where the paper prints
  ``'ABC'``, so that the selections are satisfiable;
* Q3's ``σ itemNum1='00001' PO`` (a typo in the paper — ``PO`` has no
  ``itemNum``) is read as a selection on ``Item1.itemNum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.target_query import TargetQuery
from repro.relational.algebra import Aggregate, PlanNode, Product, Project, Scan, Select
from repro.relational.expressions import col
from repro.relational.predicates import ColumnEquals, Equals
from repro.relational.schema import DatabaseSchema

#: Constants shared by several queries (all occur in the generated instance).
PHONE = "335-1736"
PERSON = "Mary"
COMPANY = "ABC"
STREET = "Central"
ITEM = "00001"


@dataclass(frozen=True)
class QuerySpec:
    """One workload query: its paper id, target schema and plan builder."""

    query_id: str
    target: str
    description: str
    builder: Callable[[], PlanNode]

    def build(self, schema: DatabaseSchema) -> TargetQuery:
        """Instantiate the query against a target schema instance."""
        if schema.name.lower() != self.target.lower():
            raise ValueError(
                f"{self.query_id} is defined for the {self.target} schema, "
                f"got {schema.name}"
            )
        return TargetQuery(self.builder(), schema, name=self.query_id)


# --------------------------------------------------------------------------- #
# plan builders, one per Table III row
# --------------------------------------------------------------------------- #
def _q1() -> PlanNode:
    """σ telephone σ priority σ invoiceTo PO."""
    plan: PlanNode = Scan("PO")
    plan = Select(plan, Equals(col("PO.invoiceTo"), PERSON))
    plan = Select(plan, Equals(col("PO.priority"), 2))
    plan = Select(plan, Equals(col("PO.telephone"), PHONE))
    return plan


def _q2() -> PlanNode:
    """σ quantity σ itemNum (PO × Item)."""
    plan: PlanNode = Product(Scan("PO"), Scan("Item"))
    plan = Select(plan, Equals(col("Item.itemNum"), ITEM))
    plan = Select(plan, Equals(col("Item.quantity"), 10))
    return plan


def _q3() -> PlanNode:
    """σ PO.orderNum=Item1.orderNum σ Item1.itemNum ((σ telephone PO) × (Item1 ⋈ Item2))."""
    items = Select(
        Product(Scan("Item", alias="Item1"), Scan("Item", alias="Item2")),
        ColumnEquals(col("Item1.orderNum"), col("Item2.orderNum")),
    )
    left = Select(Scan("PO"), Equals(col("PO.telephone"), PHONE))
    plan: PlanNode = Product(left, items)
    plan = Select(plan, Equals(col("Item1.itemNum"), ITEM))
    plan = Select(plan, ColumnEquals(col("PO.orderNum"), col("Item1.orderNum")))
    return plan


def _q4() -> PlanNode:
    """σ Item1.itemNum ((PO1 ⋈ PO2) × (Item1 ⋈ Item2)) — the paper's default query."""
    orders = Select(
        Product(Scan("PO", alias="PO1"), Scan("PO", alias="PO2")),
        ColumnEquals(col("PO1.orderNum"), col("PO2.orderNum")),
    )
    items = Select(
        Product(Scan("Item", alias="Item1"), Scan("Item", alias="Item2")),
        ColumnEquals(col("Item1.orderNum"), col("Item2.orderNum")),
    )
    plan: PlanNode = Product(orders, items)
    plan = Select(plan, Equals(col("Item1.itemNum"), ITEM))
    return plan


def _q5() -> PlanNode:
    """COUNT(σ telephone σ company σ invoiceTo σ deliverToStreet PO)."""
    plan: PlanNode = Scan("PO")
    plan = Select(plan, Equals(col("PO.deliverToStreet"), STREET))
    plan = Select(plan, Equals(col("PO.invoiceTo"), PERSON))
    plan = Select(plan, Equals(col("PO.company"), COMPANY))
    plan = Select(plan, Equals(col("PO.telephone"), PHONE))
    return Aggregate(plan, "COUNT")


def _q6() -> PlanNode:
    """σ telephone σ invoiceTo σ deliverToStreet PO (Noris)."""
    plan: PlanNode = Scan("PO")
    plan = Select(plan, Equals(col("PO.deliverToStreet"), STREET))
    plan = Select(plan, Equals(col("PO.invoiceTo"), PERSON))
    plan = Select(plan, Equals(col("PO.telephone"), PHONE))
    return plan


def _q7() -> PlanNode:
    """π itemNum,unitPrice σ orderNum σ deliverTo σ deliverToStreet (PO × Item) (Noris)."""
    plan: PlanNode = Product(Scan("PO"), Scan("Item"))
    plan = Select(plan, Equals(col("PO.deliverToStreet"), STREET))
    plan = Select(plan, Equals(col("PO.deliverTo"), PERSON))
    plan = Select(plan, Equals(col("PO.orderNum"), ITEM))
    return Project(plan, [col("Item.itemNum"), col("Item.unitPrice")])


def _q8() -> PlanNode:
    """σ billTo σ shipToAddress σ shipToPhone PO (Paragon)."""
    plan: PlanNode = Scan("PO")
    plan = Select(plan, Equals(col("PO.shipToPhone"), PHONE))
    plan = Select(plan, Equals(col("PO.shipToAddress"), STREET))
    plan = Select(plan, Equals(col("PO.billTo"), PERSON))
    return plan


def _q9() -> PlanNode:
    """SUM(π price σ telephone σ billToAddress σ itemNum (PO × Item)) (Paragon)."""
    plan: PlanNode = Product(Scan("PO"), Scan("Item"))
    plan = Select(plan, Equals(col("Item.itemNum"), ITEM))
    plan = Select(plan, Equals(col("PO.billToAddress"), STREET))
    plan = Select(plan, Equals(col("PO.telephone"), PHONE))
    projected = Project(plan, [col("Item.price")])
    return Aggregate(projected, "SUM", col("Item.price"))


def _q10() -> PlanNode:
    """COUNT(σ invoiceTo σ billToAddress (PO × Item)) (Paragon)."""
    plan: PlanNode = Product(Scan("PO"), Scan("Item"))
    plan = Select(plan, Equals(col("PO.billToAddress"), STREET))
    plan = Select(plan, Equals(col("PO.invoiceTo"), PERSON))
    return Aggregate(plan, "COUNT")


#: Table III, keyed by query id.
PAPER_QUERIES: dict[str, QuerySpec] = {
    "Q1": QuerySpec("Q1", "Excel", "3 selections on PO", _q1),
    "Q2": QuerySpec("Q2", "Excel", "2 selections over PO × Item", _q2),
    "Q3": QuerySpec("Q3", "Excel", "selections + join over PO × Item × Item", _q3),
    "Q4": QuerySpec("Q4", "Excel", "self-joins of PO and Item (default query)", _q4),
    "Q5": QuerySpec("Q5", "Excel", "COUNT over 4 selections on PO", _q5),
    "Q6": QuerySpec("Q6", "Noris", "3 selections on PO", _q6),
    "Q7": QuerySpec("Q7", "Noris", "projection over selections on PO × Item", _q7),
    "Q8": QuerySpec("Q8", "Paragon", "3 selections on PO", _q8),
    "Q9": QuerySpec("Q9", "Paragon", "SUM over selections on PO × Item", _q9),
    "Q10": QuerySpec("Q10", "Paragon", "COUNT over selections on PO × Item", _q10),
}


def paper_query(query_id: str, schema: DatabaseSchema) -> TargetQuery:
    """Build one of the Table III queries against a target schema."""
    key = query_id.upper()
    if key not in PAPER_QUERIES:
        raise KeyError(f"unknown query {query_id!r}; available: {sorted(PAPER_QUERIES)}")
    return PAPER_QUERIES[key].build(schema)


def queries_for_target(target: str) -> list[QuerySpec]:
    """The Table III queries defined on one target schema."""
    return [spec for spec in PAPER_QUERIES.values() if spec.target.lower() == target.lower()]


def paper_queries() -> list[QuerySpec]:
    """All ten Table III queries, in paper order."""
    return list(PAPER_QUERIES.values())
