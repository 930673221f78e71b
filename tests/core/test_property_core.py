"""Property-based tests for the core algorithms (hypothesis).

The central property is the paper's own correctness claim: q-sharing and
o-sharing are *optimisations* of the basic evaluator, so on any instance —
random mappings, random data, random point queries — all evaluators must
return exactly the same probabilistic answer, and the top-k evaluator must
return a subset of the exact ranking.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.core.answer import ProbabilisticAnswer
from repro.core.evaluators.osharing import TopKEvaluator
from repro.core.links import SchemaLinks
from repro.core.partition_tree import partition, partition_naive, represent
from repro.core.target_query import TargetQuery
from repro.matching.mappings import Mapping, MappingSet
from repro.relational.algebra import Product, Project, Scan, Select
from repro.relational.database import Database
from repro.relational.expressions import col
from repro.relational.predicates import Equals
from repro.relational.relation import Relation
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.types import DataType

# --------------------------------------------------------------------------- #
# a small random universe: 2 source relations, 1-2 target relations
# --------------------------------------------------------------------------- #
_S = DataType.STRING

SOURCE_SCHEMA = DatabaseSchema(
    "RandSrc",
    [
        RelationSchema.build("src_a", [("x1", _S), ("x2", _S), ("x3", _S)]),
        RelationSchema.build("src_b", [("y1", _S), ("y2", _S)]),
    ],
)
TARGET_SCHEMA = DatabaseSchema(
    "RandTgt",
    [
        RelationSchema.build("T", [("p", _S), ("q", _S), ("r", _S)]),
        RelationSchema.build("U", [("s", _S), ("t", _S)]),
    ],
)
SOURCE_ATTRIBUTES = [attribute.qualified for attribute in SOURCE_SCHEMA.attributes]
TARGET_ATTRIBUTES = [attribute.qualified for attribute in TARGET_SCHEMA.attributes]

values = st.sampled_from(["a", "b", "c"])


@st.composite
def databases(draw):
    database = Database(SOURCE_SCHEMA)
    rows_a = draw(st.lists(st.tuples(values, values, values), min_size=0, max_size=8))
    rows_b = draw(st.lists(st.tuples(values, values), min_size=0, max_size=5))
    database.set_relation("src_a", Relation.from_schema(SOURCE_SCHEMA.relation("src_a"), rows_a))
    database.set_relation("src_b", Relation.from_schema(SOURCE_SCHEMA.relation("src_b"), rows_b))
    return database


@st.composite
def mapping_sets(draw):
    count = draw(st.integers(min_value=1, max_value=6))
    mappings = []
    for mapping_id in range(1, count + 1):
        correspondences = {}
        for target in TARGET_ATTRIBUTES:
            source = draw(st.sampled_from(SOURCE_ATTRIBUTES + [None, None]))
            if source is not None:
                correspondences[target] = source
        mappings.append(
            Mapping(
                mapping_id=mapping_id,
                correspondences=correspondences,
                score=draw(st.floats(min_value=0.1, max_value=5.0, allow_nan=False)),
                probability=0.0,
            )
        )
    return MappingSet(mappings, normalize=True)


@st.composite
def queries(draw):
    kind = draw(st.sampled_from(["select-project", "select", "product"]))
    constant = draw(values)
    if kind == "select-project":
        plan = Project(
            Select(Scan("T"), Equals(col("q"), constant)),
            [col("p")],
        )
    elif kind == "select":
        plan = Select(
            Select(Scan("T"), Equals(col("q"), constant)),
            Equals(col("r"), draw(values)),
        )
    else:
        plan = Select(Product(Scan("T"), Scan("U")), Equals(col("T.q"), constant))
    return TargetQuery(plan, TARGET_SCHEMA, name=f"random-{kind}")


LINKS = SchemaLinks.empty()


@settings(max_examples=40, deadline=None)
@given(database=databases(), mappings=mapping_sets(), query=queries())
def test_all_evaluators_agree_on_random_instances(database, mappings, query):
    with Session(database, mappings, links=LINKS) as session:
        reference = session.query(query, method="basic")
        for method in ("e-basic", "e-mqo", "q-sharing", "o-sharing"):
            result = session.query(query, method=method)
            assert reference.answers.equals(result.answers), (
                method,
                reference.answers.difference(result.answers),
            )


@settings(max_examples=30, deadline=None)
@given(database=databases(), mappings=mapping_sets(), query=queries(), k=st.integers(1, 4))
def test_topk_is_a_prefix_of_the_exact_ranking(database, mappings, query, k):
    with Session(database, mappings, links=LINKS) as session:
        exact = session.query(query, method="o-sharing")
    topk = TopKEvaluator(k=k, links=LINKS).evaluate(query, mappings, database)
    exact_ranking = exact.answers.top_k(k)
    exact_by_tuple = {answer.values: answer.probability for answer in exact.answers.ranked()}
    assert len(topk.answers) == len(exact_ranking)
    if exact_ranking:
        threshold = exact_ranking[-1].probability
        for values_tuple, lower_bound in topk.answers.items():
            assert values_tuple in exact_by_tuple
            assert lower_bound <= exact_by_tuple[values_tuple] + 1e-9
            # Every returned tuple is at least as probable as the k-th exact answer.
            assert exact_by_tuple[values_tuple] >= threshold - 1e-9


@settings(max_examples=50, deadline=None)
@given(mappings=mapping_sets(), data=st.data())
def test_partition_tree_agrees_with_naive_partitioning(mappings, data):
    attributes = data.draw(
        st.lists(st.sampled_from(TARGET_ATTRIBUTES), min_size=1, max_size=4, unique=True)
    )
    tree_groups = partition(attributes, mappings)
    naive_groups = partition_naive(attributes, mappings)
    as_ids = lambda groups: sorted(sorted(m.mapping_id for m in group) for group in groups)
    assert as_ids(tree_groups) == as_ids(naive_groups)
    # Partitions form a disjoint cover of the mapping set.
    seen = [m.mapping_id for group in tree_groups for m in group]
    assert sorted(seen) == sorted(m.mapping_id for m in mappings)
    # Representatives preserve the total probability mass.
    representatives = represent(tree_groups)
    assert sum(r.probability for r in representatives) == pytest.approx(
        sum(m.probability for m in mappings)
    )


@settings(max_examples=50, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from(["t1", "t2", "t3", "t4"]), st.floats(0, 0.5, allow_nan=False)),
        max_size=12,
    )
)
def test_probabilistic_answer_aggregation_matches_python_sum(pairs):
    answer = ProbabilisticAnswer.from_pairs([((name,), probability) for name, probability in pairs])
    for name in {name for name, _ in pairs}:
        expected = sum(probability for candidate, probability in pairs if candidate == name)
        assert answer.probability((name,)) == pytest.approx(expected)
    ranked = answer.ranked()
    probabilities = [entry.probability for entry in ranked]
    assert probabilities == sorted(probabilities, reverse=True)
