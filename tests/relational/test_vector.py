"""Unit tests for the NumPy-vectorized kernels (``engine="vector"``).

The differential harness (tests/core/evaluators) pins end-to-end byte-identity
across all engines; these tests pin the kernel layer directly — classification
rules, per-node fallback triggers, serial-identical index orders, the
relation-level array cache, and the NumPy-less degradation path (simulated
by monkeypatching ``HAVE_NUMPY``).
"""

from __future__ import annotations

import math

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import vector
from repro.relational.columnar import ColumnBatch, predicate_mask
from repro.relational.expressions import col, lit
from repro.relational.predicates import (
    And,
    Between,
    Comparison,
    Equals,
    FalsePredicate,
    GreaterThan,
    In,
    LessEqual,
    Not,
    Or,
    TruePredicate,
)
from repro.relational.relation import Relation
from repro.relational.vector import (
    _entry_for_list,
    column_entry,
    numpy_available,
    vector_distinct_indices,
    vector_group_indices,
    vector_join_indices,
    vector_predicate_mask,
    vector_product_select_positions,
    vector_select_indices,
    vector_union_distinct_indices,
)


def batch(columns: dict[str, list]) -> ColumnBatch:
    labels = tuple(columns)
    data = [list(values) for values in columns.values()]
    lengths = {len(values) for values in data}
    assert len(lengths) <= 1
    return ColumnBatch(labels, data, length=lengths.pop() if lengths else 0)


# --------------------------------------------------------------------------- #
# column classification
# --------------------------------------------------------------------------- #
class TestClassification:
    def test_int_column(self):
        arr, has_nan = _entry_for_list([3, -1, 7])
        assert arr.dtype == np.int64
        assert arr.tolist() == [3, -1, 7]
        assert has_nan is False

    def test_bool_and_mixed_bool_int(self):
        arr, _ = _entry_for_list([True, False])
        assert arr.dtype == np.bool_
        arr, _ = _entry_for_list([True, 2, False])
        assert arr.dtype == np.int64
        assert arr.tolist() == [1, 2, 0]

    def test_float_column_records_nan(self):
        arr, has_nan = _entry_for_list([1.5, float("nan")])
        assert arr.dtype == np.float64
        assert has_nan is True
        _, has_nan = _entry_for_list([1.5, 2.5])
        assert has_nan is False

    def test_string_column(self):
        arr, _ = _entry_for_list(["b", "aa", ""])
        assert arr.dtype.kind == "U"
        assert arr.tolist() == ["b", "aa", ""]

    def test_empty_column(self):
        arr, has_nan = _entry_for_list([])
        assert arr.size == 0 and has_nan is False

    def test_rejections(self):
        assert _entry_for_list([1, None, 3]) is None  # None-bearing
        assert _entry_for_list([1, "x"]) is None  # mixed coercion family
        assert _entry_for_list([1, 2.5]) is None  # int/float mix
        assert _entry_for_list([2**70, 1]) is None  # beyond int64
        assert _entry_for_list([object()]) is None

    def test_rejection_is_monotone_under_appends(self):
        # Appending rows can never un-reject a column: the offending values
        # stay.
        column = [1, None]
        assert _entry_for_list(column) is None
        assert _entry_for_list(column + [2, 3]) is None


# --------------------------------------------------------------------------- #
# predicate masks vs the serial reference
# --------------------------------------------------------------------------- #
MIXED = {
    "t.i": [3, -1, 7, 3, 0, 6],
    "t.h": [2**60, 1, -(2**60), 3, 4, 5],  # beyond ±2^53: float-inexact
    "t.f": [1.5, float("nan"), -0.0, 3.0, 2.5, 1e300],
    "t.s": ["b", "aa", "", "b", "c", "aa"],
    "t.n": [1, None, 3, None, 5, 6],
}

PREDICATES = [
    Equals(col("t.i"), 3),
    Comparison(lit(3), "<=", col("t.i")),  # literal-left swap
    GreaterThan(col("t.f"), 1.5),
    Equals(col("t.f"), float("nan")),  # IEEE: all False
    Comparison(col("t.f"), "!=", lit(float("nan"))),  # IEEE: all True
    Equals(col("t.i"), 3.0),  # exact int/float cross
    Equals(col("t.h"), 2**60),  # int const within int64 stays exact
    Equals(col("t.i"), "3"),  # numeric string parses
    Equals(col("t.i"), None),  # None compares false
    Equals(col("t.s"), "b"),
    LessEqual(col("t.s"), "b"),  # code-point order
    Comparison(col("t.i"), "<", col("t.f")),
    In(col("t.i"), (3, True, "x", 2.0)),  # cross-family members dropped
    In(col("t.s"), ("b", "c", 7)),
    In(col("t.i"), ()),
    Between(col("t.i"), 0, 5),
    Between(col("t.s"), "a", "b"),
    And(Equals(col("t.i"), 3), Equals(col("t.n"), 3)),  # serial conjunct mix
    Or(Equals(col("t.n"), 1), GreaterThan(col("t.i"), 2)),
    Not(Equals(col("t.i"), 3)),
    TruePredicate(),
    FalsePredicate(),
]


class TestPredicateMasks:
    @pytest.mark.parametrize("predicate", PREDICATES, ids=lambda p: p.canonical())
    def test_matches_serial_mask(self, predicate):
        b = batch(MIXED)
        vectorized = vector_predicate_mask(predicate, b)
        serial = predicate_mask(predicate, b)
        assert vectorized is not None, "expected the kernel to engage"
        assert vectorized == serial
        assert all(type(value) is bool for value in vectorized)
        indices = vector_select_indices(predicate, b)
        assert indices == [i for i, keep in enumerate(serial) if keep]

    @pytest.mark.parametrize(
        "predicate",
        [
            Equals(col("t.n"), 3),  # None-bearing column
            Equals(col("t.h"), 3.0),  # float const vs float-inexact ints
            Comparison(col("t.h"), "<", col("t.f")),  # inexact col-col cross
            In(col("t.h"), (1, 2.0)),  # float member vs inexact int column
            In(col("t.f"), (float("nan"),)),  # NaN member: identity semantics
            In(col("t.f"), (1.5,)),  # NaN-bearing column rejected for IN
            Between(col("t.i"), None, 5),  # None bound: serial comparable()
            Equals(col("t.s"), 3),  # cross-family comparison
            And(Equals(col("t.n"), 3), Equals(col("t.n"), 5)),  # no part vectorizes
        ],
        ids=lambda p: p.canonical(),
    )
    def test_falls_back(self, predicate):
        assert vector_predicate_mask(predicate, batch(MIXED)) is None

    def test_empty_batch_falls_back(self):
        empty = batch({"t.i": []})
        assert vector_predicate_mask(TruePredicate(), empty) is None

    @given(
        column=st.lists(
            st.one_of(st.integers(-5, 5), st.integers(2**53, 2**60)),
            min_size=1,
            max_size=30,
        ),
        const=st.one_of(st.integers(-5, 5), st.floats(allow_nan=True, width=32)),
        op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_comparison_matches_serial(self, column, const, op):
        b = batch({"t.i": column})
        predicate = Comparison(col("t.i"), op, lit(const))
        vectorized = vector_predicate_mask(predicate, b)
        if vectorized is not None:
            assert vectorized == predicate_mask(predicate, b)


# --------------------------------------------------------------------------- #
# join / distinct / group kernels vs the serial reference
# --------------------------------------------------------------------------- #
def serial_join(left: ColumnBatch, right: ColumnBatch, pairs):
    """The serial hash-join probe order (build right, probe left ascending)."""
    buckets: dict = {}
    for i in range(len(right)):
        key = tuple(right.data[p][i] for _, p in pairs)
        if all(v is not None and v == v for v in key):
            buckets.setdefault(key, []).append(i)
    left_idx, right_idx = [], []
    for i in range(len(left)):
        key = tuple(left.data[p][i] for p, _ in pairs)
        for j in buckets.get(key, []):
            left_idx.append(i)
            right_idx.append(j)
    return left_idx, right_idx


class TestJoinKernel:
    def test_single_key_matches_serial(self):
        left = batch({"l.k": [1, 2, 3, 2, 1], "l.v": [10, 20, 30, 40, 50]})
        right = batch({"r.k": [2, 1, 2, 9, 1]})
        assert vector_join_indices(left, right, [(0, 0)]) == serial_join(
            left, right, [(0, 0)]
        )

    def test_composite_key_matches_serial(self):
        left = batch({"l.a": [1, 1, 2, 2], "l.b": ["x", "y", "x", "y"]})
        right = batch({"r.a": [1, 2, 1, 2], "r.b": ["y", "x", "y", "z"]})
        pairs = [(0, 0), (1, 1)]
        assert vector_join_indices(left, right, pairs) == serial_join(
            left, right, pairs
        )

    def test_int_float_cross_family_key(self):
        left = batch({"l.k": [1, 2, 3]})
        right = batch({"r.k": [2.0, 3.0, 2.5]})
        assert vector_join_indices(left, right, [(0, 0)]) == serial_join(
            left, right, [(0, 0)]
        )

    def test_empty_side_short_circuits(self):
        left = batch({"l.k": []})
        right = batch({"r.k": [1]})
        assert vector_join_indices(left, right, [(0, 0)]) == ([], [])

    def test_fallback_triggers(self):
        nan = batch({"l.k": [1.0, float("nan")]})
        plain = batch({"r.k": [1.0, 2.0]})
        assert vector_join_indices(nan, plain, [(0, 0)]) is None  # NaN key
        nones = batch({"l.k": [1, None]})
        assert vector_join_indices(nones, plain, [(0, 0)]) is None  # rejected
        strings = batch({"l.k": ["1", "2"]})
        ints = batch({"r.k": [1, 2]})
        assert vector_join_indices(strings, ints, [(0, 0)]) is None  # families
        huge = batch({"l.k": [2**60]})
        floats = batch({"r.k": [1.5]})
        assert vector_join_indices(huge, floats, [(0, 0)]) is None  # inexact

    @given(
        left_keys=st.lists(st.integers(0, 4), max_size=20),
        right_keys=st.lists(st.integers(0, 4), max_size=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_matches_serial(self, left_keys, right_keys):
        left = batch({"l.k": left_keys})
        right = batch({"r.k": right_keys})
        assert vector_join_indices(left, right, [(0, 0)]) == serial_join(
            left, right, [(0, 0)]
        )


def serial_distinct(data: list[list], length: int) -> list[int]:
    seen, keep = set(), []
    for i, row in enumerate(zip(*data)) if data else ():
        if row not in seen:
            seen.add(row)
            keep.append(i)
    return keep


class TestDistinctAndGroupKernels:
    def test_distinct_first_occurrence_order(self):
        b = batch({"t.a": [2, 1, 2, 3, 1, 2], "t.b": ["x", "x", "x", "y", "x", "z"]})
        keep = vector_distinct_indices(b, [0, 1])
        assert keep == serial_distinct(b.data, len(b))
        assert keep == [0, 1, 3, 5]

    def test_distinct_collapses_bool_int_like_python(self):
        b = batch({"t.a": [True, 1, 0, False, 2]})
        assert vector_distinct_indices(b, [0]) == serial_distinct(b.data, len(b))

    def test_distinct_fallback(self):
        b = batch({"t.a": [1, None]})
        assert vector_distinct_indices(b, [0]) is None
        nan = batch({"t.a": [1.0, float("nan")]})
        assert vector_distinct_indices(nan, [0]) is None

    def test_union_distinct_matches_stacked_serial(self):
        left = batch({"t.a": [1, 2, 2], "t.b": ["x", "y", "y"]})
        right = batch({"t.a": [2, 3, 1], "t.b": ["y", "z", "x"]})
        stacked = [
            left.data[p] + right.data[p] for p in range(len(left.data))
        ]
        assert vector_union_distinct_indices(left, right) == serial_distinct(
            stacked, len(left) + len(right)
        )

    def test_union_distinct_cross_family_fallback(self):
        left = batch({"t.a": [1, 2]})
        right = batch({"t.a": ["x", "y"]})
        assert vector_union_distinct_indices(left, right) is None

    def test_group_indices_match_serial_dict(self):
        b = batch({"t.k": [2, 1, 2, 3, 1], "t.g": ["b", "a", "b", "b", "a"]})
        key_columns = [b.data[0], b.data[1]]
        groups = vector_group_indices(b, [0, 1], key_columns, len(b))
        serial: dict = {}
        for i, key in enumerate(zip(*key_columns)):
            serial.setdefault(key, []).append(i)
        assert groups == serial
        assert list(groups) == list(serial)  # first-occurrence key order
        # Keys are the original Python objects, not NumPy scalars.
        assert all(type(k[0]) is int and type(k[1]) is str for k in groups)

    def test_group_fallback_on_rejected_key(self):
        b = batch({"t.k": [1, None]})
        assert vector_group_indices(b, [0], [b.data[0]], len(b)) is None


# --------------------------------------------------------------------------- #
# relation-level array cache
# --------------------------------------------------------------------------- #
class TestRelationCache:
    def test_entries_cached_on_relation(self):
        rel = Relation(["t.a"], [(1,), (2,)], name="t")
        b = ColumnBatch.from_relation(rel)
        first = column_entry(b, 0)
        assert first is not None
        payload = rel._vector_cache[0]
        assert payload is not None and payload[0] == rel.version
        again = column_entry(ColumnBatch.from_relation(rel), 0)
        assert again is first  # same cached entry across fresh batches

    def test_relabelled_view_shares_cache(self):
        rel = Relation(["t.a"], [(1,), (2,)], name="t")
        column_entry(ColumnBatch.from_relation(rel), 0)
        view = rel.prefixed("x")
        assert view._vector_cache is rel._vector_cache

    def test_append_reclassifies_arrays_lazily(self):
        rel = Relation(["t.a", "t.b"], [(1, "x"), (2, "y")], name="t")
        b = ColumnBatch.from_relation(rel)
        column_entry(b, 0)
        column_entry(b, 1)
        rel.append_rows([(3, "z")])
        assert rel._vector_cache[0] is None
        rebuilt = column_entry(ColumnBatch.from_relation(rel), 0)
        assert rebuilt is not None
        assert rebuilt[0].tolist() == [1, 2, 3]
        assert rel._vector_cache[0][0] == rel.version
        strings = column_entry(ColumnBatch.from_relation(rel), 1)
        assert strings[0].tolist() == ["x", "y", "z"]

    def test_rejected_entry_stays_rejected_across_appends(self):
        rel = Relation(["t.a"], [(1,), (None,)], name="t")
        assert column_entry(ColumnBatch.from_relation(rel), 0) is None
        rel.append_rows([(2,)])
        assert column_entry(ColumnBatch.from_relation(rel), 0) is None

    def test_family_change_drops_only_that_position(self):
        rel = Relation(["t.a", "t.b"], [(1, 10), (2, 20)], name="t")
        b = ColumnBatch.from_relation(rel)
        column_entry(b, 0)
        column_entry(b, 1)
        rel.append_rows([(3, "oops")])  # t.b turns mixed; t.a stays clean
        fresh = ColumnBatch.from_relation(rel)
        assert column_entry(fresh, 0)[0].tolist() == [1, 2, 3]
        assert column_entry(fresh, 1) is None

    def test_nonappend_write_abandons_cache(self):
        rel = Relation(["t.a"], [(1,), (2,), (3,)], name="t")
        column_entry(ColumnBatch.from_relation(rel), 0)
        rel.delete_rows([0])
        assert rel._vector_cache[0] is None
        fresh = column_entry(ColumnBatch.from_relation(rel), 0)
        assert fresh[0].tolist() == [2, 3]

    def test_prewrite_batch_keeps_its_snapshot(self):
        rel = Relation(["t.a"], [(1,), (2,)], name="t")
        stale = ColumnBatch.from_relation(rel)
        column_entry(stale, 0)
        rel.append_rows([(3,)])
        # The stale batch classifies against its own two-row snapshot.
        entry = column_entry(stale, 0)
        assert entry[0].tolist() == [1, 2]
        assert column_entry(ColumnBatch.from_relation(rel), 0)[0].tolist() == [1, 2, 3]

    def test_anonymous_batch_caches_locally(self):
        b = batch({"t.a": [1, 2, 3]})
        first = column_entry(b, 0)
        assert column_entry(b, 0) is first
        assert b._vectors[0] is first


# --------------------------------------------------------------------------- #
# NumPy-less degradation
# --------------------------------------------------------------------------- #
class TestWithoutNumpy:
    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)

    def test_numpy_available_is_false(self):
        assert numpy_available() is False

    def test_kernels_return_none(self):
        b = batch({"t.a": [1, 2, 3]})
        assert vector_predicate_mask(TruePredicate(), b) is None
        assert vector_select_indices(TruePredicate(), b) is None
        assert vector_join_indices(b, b, [(0, 0)]) is None
        assert vector_distinct_indices(b, [0]) is None
        assert vector_union_distinct_indices(b, b) is None
        assert vector_group_indices(b, [0], [b.data[0]], len(b)) is None
        other = batch({"u.a": [1, 2]})
        labels = list(b.columns) + list(other.columns)
        assert (
            vector_product_select_positions(TruePredicate(), b, other, labels)
            is None
        )

    def test_vector_engine_excluded_from_available(self):
        from repro.relational.executor import available_engines

        assert "vector" not in available_engines()
        assert "columnar" in available_engines()

    def test_executor_raises_actionable_error(self):
        from repro.relational.database import Database
        from repro.relational.executor import Executor
        from repro.relational.schema import DatabaseSchema

        db = Database(DatabaseSchema("S", []))
        with pytest.raises(ValueError, match="requires NumPy"):
            Executor(db, engine="vector")

    def test_policy_rejects_vector(self):
        from repro.policy import ExecutionPolicy

        with pytest.raises(ValueError, match="unknown engine"):
            ExecutionPolicy(engine="vector")

    def test_evaluator_rejects_vector_at_construction(self):
        from repro.core import make_evaluator

        with pytest.raises(ValueError, match="requires NumPy"):
            make_evaluator("e-basic", engine="vector")

    def test_executor_and_evaluator_share_one_message(self):
        from repro.core import make_evaluator
        from repro.relational.database import Database
        from repro.relational.executor import Executor
        from repro.relational.schema import DatabaseSchema

        db = Database(DatabaseSchema("S", []))
        with pytest.raises(ValueError) as executor_error:
            Executor(db, engine="vector")
        with pytest.raises(ValueError) as evaluator_error:
            make_evaluator("e-basic", engine="vector")
        assert str(executor_error.value) == str(evaluator_error.value)

    def test_evaluator_names_only_the_engines_that_are_there(self):
        from repro.core import make_evaluator

        with pytest.raises(ValueError, match="unknown engine 'vectr'") as err:
            make_evaluator("e-basic", engine="vectr")
        assert "'vector'" not in str(err.value)


class TestVectorEngineAvailable:
    def test_engine_listed_and_constructible(self):
        from repro.relational.database import Database
        from repro.relational.executor import Executor, available_engines
        from repro.relational.schema import DatabaseSchema

        assert "vector" in available_engines()
        executor = Executor(Database(DatabaseSchema("S", [])), engine="vector")
        assert executor.vector is True

    def test_policy_accepts_vector(self):
        from repro.policy import ExecutionPolicy

        assert ExecutionPolicy(engine="vector").engine == "vector"

    def test_unknown_engine_lists_vector(self):
        from repro.relational.database import Database
        from repro.relational.executor import Executor
        from repro.relational.schema import DatabaseSchema

        with pytest.raises(ValueError, match="vector"):
            Executor(Database(DatabaseSchema("S", [])), engine="vectorised")


def test_nan_identity_note():
    """Documented invariant: Python containers treat NaN by identity."""
    nan = float("nan")
    assert nan in {nan}  # identity short-circuit
    assert math.isnan(nan)


# --------------------------------------------------------------------------- #
# fused selection over a cross product
# --------------------------------------------------------------------------- #
def serial_product_select(predicate, left: ColumnBatch, right: ColumnBatch):
    """Reference: materialise the product, filter serially, return coordinates."""
    labels = list(left.columns) + list(right.columns)
    n_left, n_right = len(left), len(right)
    data = [
        [column[i] for i in range(n_left) for _ in range(n_right)]
        for column in left.data
    ]
    data += [column * n_left for column in right.data]
    product = ColumnBatch(labels, data, length=n_left * n_right)
    mask = predicate_mask(predicate, product)
    kept = [i for i, hit in enumerate(mask) if hit]
    return [i // n_right for i in kept], [i % n_right for i in kept]


def _product_sides():
    left = batch(
        {
            "l.i": [1, 2, 3, 4],
            "l.s": ["a", "b", "a", "c"],
            "l.f": [0.5, 2.5, float("nan"), 1.0],
            "l.n": [1, None, 3, 4],
        }
    )
    right = batch({"r.i": [2, 3, 5], "r.s": ["b", "c", "b"]})
    return left, right


FUSED_PREDICATES = [
    Equals(col("l.i"), 3),  # left side only
    Equals(col("r.s"), "b"),  # right side only
    Comparison(col("l.i"), "<", col("r.i")),  # cross-side numeric
    Equals(col("l.s"), col("r.s")),  # cross-side string
    Comparison(lit(3), "<=", col("r.i")),  # literal-left swap
    Comparison(col("l.f"), "<", col("r.i")),  # NaN rows: IEEE False, like Python
    And(
        Equals(col("l.i"), 2),
        Equals(col("r.s"), "b"),
        Comparison(col("l.i"), "<", col("r.i")),
    ),
    Or(Equals(col("l.i"), 1), Equals(col("r.i"), 5)),
    Not(Equals(col("l.s"), col("r.s"))),
    In(col("r.i"), (2, 5)),
    Between(col("l.i"), 2, 3),
    TruePredicate(),
    FalsePredicate(),
]

FUSED_FALLBACKS = [
    Equals(col("l.n"), 3),  # None-bearing column rejects
    And(Equals(col("l.n"), 3), Equals(col("r.i"), 2)),  # strict: no fill-in
    Equals(col("l.i"), col("l.s")),  # same-side cross-family
    Equals(col("missing"), 1),  # unresolvable reference
]


class TestProductSelectFusion:
    @pytest.mark.parametrize("predicate", FUSED_PREDICATES, ids=repr)
    def test_matches_serial_product_filter(self, predicate):
        left, right = _product_sides()
        labels = list(left.columns) + list(right.columns)
        got = vector_product_select_positions(predicate, left, right, labels)
        assert got is not None, f"{predicate!r} unexpectedly fell back"
        assert got == serial_product_select(predicate, left, right)

    @pytest.mark.parametrize("predicate", FUSED_FALLBACKS, ids=repr)
    def test_fallback_returns_none(self, predicate):
        left, right = _product_sides()
        labels = list(left.columns) + list(right.columns)
        assert vector_product_select_positions(predicate, left, right, labels) is None

    def test_empty_product_falls_back(self):
        left, _ = _product_sides()
        empty = batch({"r.i": [], "r.s": []})
        labels = list(left.columns) + list(empty.columns)
        assert (
            vector_product_select_positions(TruePredicate(), left, empty, labels)
            is None
        )

    @given(
        left_col=st.lists(st.integers(-5, 5), min_size=1, max_size=8),
        right_col=st.lists(st.integers(-5, 5), min_size=1, max_size=8),
        threshold=st.integers(-5, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_cross_comparison_matches_serial(
        self, left_col, right_col, threshold
    ):
        left = batch({"l.a": left_col})
        right = batch({"r.a": right_col})
        labels = ["l.a", "r.a"]
        predicate = And(
            Comparison(col("l.a"), "<=", col("r.a")),
            Comparison(col("l.a"), ">", lit(threshold)),
        )
        got = vector_product_select_positions(predicate, left, right, labels)
        assert got == serial_product_select(predicate, left, right)

    def test_executor_fused_path_matches_columnar(self):
        from repro.relational.algebra import Product, Scan, Select
        from repro.relational.database import Database
        from repro.relational.executor import Executor
        from repro.relational.relation import Relation
        from repro.relational.schema import DatabaseSchema, RelationSchema
        from repro.relational.types import DataType

        schema = DatabaseSchema(
            "S",
            [
                RelationSchema.build(
                    "emp", [("id", DataType.INTEGER), ("dept", DataType.INTEGER)]
                ),
                RelationSchema.build(
                    "dept", [("id", DataType.INTEGER), ("dname", DataType.STRING)]
                ),
            ],
        )
        db = Database(schema)
        db.set_relation(
            "emp",
            Relation.from_schema(
                schema.relation("emp"), [(1, 10), (2, 20), (3, 10), (4, 30)]
            ),
        )
        db.set_relation(
            "dept",
            Relation.from_schema(
                schema.relation("dept"), [(10, "db"), (20, "os"), (40, "pl")]
            ),
        )
        plan = Select(
            Product(Scan("emp"), Scan("dept")),
            Comparison(col("emp.dept"), "=", col("dept.id")),
        )
        results = {}
        stats = {}
        for engine in ("columnar", "vector"):
            executor = Executor(db, engine=engine)
            results[engine] = executor.execute(plan)
            stats[engine] = dict(executor.stats.operators)
        assert results["vector"].columns == results["columnar"].columns
        assert results["vector"].rows == results["columnar"].rows
        assert stats["vector"] == stats["columnar"]

    def test_fused_gather_preserves_object_identity(self):
        # A {bool, int} column classifies as int64 for masking, but the
        # surviving rows are gathered from the original Python lists — the
        # bool must come back as the very same object, not as 1.
        from repro.relational.algebra import Product, Scan, Select
        from repro.relational.database import Database
        from repro.relational.executor import Executor
        from repro.relational.relation import Relation
        from repro.relational.schema import DatabaseSchema, RelationSchema
        from repro.relational.types import DataType

        schema = DatabaseSchema(
            "S",
            [
                RelationSchema.build(
                    "flags", [("id", DataType.INTEGER), ("ok", DataType.INTEGER)]
                ),
                RelationSchema.build("one", [("x", DataType.INTEGER)]),
            ],
        )
        db = Database(schema)
        db.set_relation(
            "flags",
            Relation.from_schema(schema.relation("flags"), [(1, True), (2, 7)]),
        )
        db.set_relation("one", Relation.from_schema(schema.relation("one"), [(9,)]))
        plan = Select(
            Product(Scan("flags"), Scan("one")), Equals(col("flags.ok"), 1)
        )
        result = Executor(db, engine="vector").execute(plan)
        assert result.rows == [(1, True, 9)]
        assert result.rows[0][1] is True
