"""Selection pushdown on the target plan (``push_selections``), the u-trace's plan when optimizing."""

from collections import Counter

import pytest

from repro import connect
from repro.core.target_query import TargetQuery, push_selections
from repro.datagen.target_schemas import target_schema
from repro.relational.algebra import Join, Product, Scan, Select
from repro.relational.expressions import col
from repro.relational.predicates import ColumnEquals, Equals
from repro.workloads import paper_query
from repro.workloads.queries import PAPER_QUERIES

TEL = "(PO.telephone = '335-1736')"
ITEM = "(Item1.itemNum = '00001')"

PUSHED = {
    "Q2": "Product(Scan(PO AS PO), Select[(Item.quantity = 10)]"
    "(Select[(Item.itemNum = '00001')](Scan(Item AS Item))))",
    "Q3": f"Join[(PO.orderNum = Item1.orderNum)](Select[{TEL}](Scan(PO AS PO)), "
    f"Join[(Item1.orderNum = Item2.orderNum)](Select[{ITEM}](Scan(Item AS Item1)), "
    "Scan(Item AS Item2)))",
    "Q4": "Product(Join[(PO1.orderNum = PO2.orderNum)](Scan(PO AS PO1), Scan(PO AS PO2)), "
    f"Join[(Item1.orderNum = Item2.orderNum)](Select[{ITEM}](Scan(Item AS Item1)), "
    "Scan(Item AS Item2)))",
    "Q7": "Project[Item.itemNum, Item.unitPrice](Product(Select[(PO.orderNum = '00001')]"
    "(Select[(PO.deliverTo = 'Mary')](Select[(PO.deliverToStreet = 'Central')]"
    "(Scan(PO AS PO)))), Scan(Item AS Item)))",
    "Q9": f"Aggregate[SUM(Item.price)](Project[Item.price](Product(Select[{TEL}]"
    "(Select[(PO.billToAddress = 'Central')](Scan(PO AS PO))), "
    "Select[(Item.itemNum = '00001')](Scan(Item AS Item)))))",
    "Q10": "Aggregate[COUNT(*)](Product(Select[(PO.invoiceTo = 'Mary')]"
    "(Select[(PO.billToAddress = 'Central')](Scan(PO AS PO))), Scan(Item AS Item)))",
}


def _query(query_id):
    return paper_query(query_id, target_schema(PAPER_QUERIES[query_id].target))


def _selection_predicates(plan):
    """Every selection's predicate, with the ones a Join absorbed."""
    return Counter(
        node.predicate.canonical() for node in plan.walk() if isinstance(node, (Select, Join))
    )


@pytest.mark.parametrize("query_id", sorted(PUSHED))
def test_pushed_plan_shapes(query_id):
    assert push_selections(_query(query_id)).plan.canonical() == PUSHED[query_id]


@pytest.mark.parametrize("query_id", ["Q1", "Q5", "Q6", "Q8"])
def test_product_free_queries_are_left_alone(query_id):
    query = _query(query_id)
    assert push_selections(query) is query


@pytest.mark.parametrize("query_id", sorted(PAPER_QUERIES))
def test_one_select_per_original_selection(query_id):
    query = _query(query_id)
    pushed = push_selections(query)
    assert _selection_predicates(pushed.plan) == _selection_predicates(query.plan)


@pytest.mark.parametrize("query_id", sorted(PAPER_QUERIES))
def test_answer_shape_and_partitioning_are_the_original_queries(query_id):
    query = _query(query_id)
    pushed = push_selections(query)
    assert pushed.name == query.name
    assert pushed.output_attributes == query.output_attributes
    assert pushed.partition_keys == query.partition_keys
    assert pushed.aliases == query.aliases


def _excel(plan):
    return TargetQuery(plan, target_schema("Excel"))


def test_single_cross_side_select_over_product_becomes_a_join():
    joined = ColumnEquals(col("PO.orderNum"), col("Item.orderNum"))
    query = _excel(Select(Product(Scan("PO"), Scan("Item")), joined))
    plan = push_selections(query).plan
    assert isinstance(plan, Join)
    assert plan.predicate.canonical() == joined.canonical()
    assert (plan.left, plan.right) == (Scan("PO"), Scan("Item"))


def test_two_cross_side_selects_stay_selects():
    first = ColumnEquals(col("PO.orderNum"), col("Item.orderNum"))
    second = ColumnEquals(col("PO.company"), col("Item.itemNum"))
    product = Product(Scan("PO"), Scan("Item"))
    query = _excel(Select(Select(product, first), second))
    assert push_selections(query) is query


def test_one_side_selects_move_and_the_cross_side_one_joins():
    joined = ColumnEquals(col("PO.orderNum"), col("Item.orderNum"))
    plan = Select(Product(Scan("PO"), Scan("Item")), Equals(col("PO.priority"), 2))
    plan = Select(Select(plan, joined), Equals(col("Item.quantity"), 10))
    pushed = push_selections(_excel(plan)).plan
    assert pushed.canonical() == (
        "Join[(PO.orderNum = Item.orderNum)](Select[(PO.priority = 2)](Scan(PO AS PO)), "
        "Select[(Item.quantity = 10)](Scan(Item AS Item)))"
    )


def test_cross_side_select_over_a_join_stays_a_select():
    on = ColumnEquals(col("PO.orderNum"), col("Item.orderNum"))
    extra = ColumnEquals(col("PO.company"), col("Item.itemNum"))
    query = _excel(Select(Join(Scan("PO"), Scan("Item"), on), extra))
    assert push_selections(query) is query


# --------------------------------------------------------------------------- #
# through the evaluators
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("query_id", ["Q3", "Q4"])
def test_answer_columns_match_the_paper_plan(excel_scenario, query_id):
    query = paper_query(query_id, excel_scenario.target_schema)
    with connect(excel_scenario) as session:
        pushed = session.query(query)
        paper = session.query(query, optimize=False)
    # a permuted column would make every tuple differ
    assert pushed.answers.tuples
    assert set(pushed.answers.tuples) == set(paper.answers.tuples)
    assert pushed.answers.equals(paper.answers)


@pytest.mark.parametrize(
    "method, options", [("o-sharing", {}), ("top-k", {"k": 2}), ("anytime", {})]
)
def test_result_query_is_the_callers(excel_scenario, method, options):
    query = paper_query("Q3", excel_scenario.target_schema)
    with connect(excel_scenario, method=method, **options) as session:
        result = session.query(query)
        assert result.query is query
        budgeted = session.query(query, budget={"eunit_limit": 1})
        assert budgeted.query is query
        resumed = budgeted.resume()
    assert resumed.exhausted or resumed.converged
    assert resumed.query is query
