"""NumPy-vectorized kernels for the columnar engine (``engine="vector"``).

The columnar engine amortises interpretation per *operator*; this module goes
one step further and replaces the per-element Python sweeps with NumPy array
kernels: boolean-mask selection, hash join via joint factorisation
(``np.unique``) + ``searchsorted``, first-occurrence duplicate elimination and
grouped aggregation via sort-based segment extraction.

Byte-identity is the contract, and it is enforced *per column*: a kernel only
runs when every column it touches classifies into a clean dtype whose NumPy
semantics provably match the row engine's Python semantics — otherwise the
kernel returns ``None`` and the executor falls back to the serial columnar
path for that node, exactly like the parallel engine falls back below
``min_partition_rows``.  The classification rules:

* ``{int}``/``{bool}``/``{bool, int}`` → ``int64`` (``True == 1`` collapses in
  Python sets/dicts exactly as it does under an integer cast; values outside
  the int64 range reject the column);
* ``{float}`` → ``float64`` (bit-identical values; NaN presence is recorded
  because NaN breaks hash-semantics equivalence for joins/dedup and identity
  semantics for ``IN`` — NaN-bearing columns only serve comparison masks,
  where NumPy's IEEE ordering matches Python's);
* ``{str}`` → ``'U'`` arrays when the values round-trip exactly (NumPy
  compares strings by code point, like Python);
* anything else — ``None``-bearing columns, mixed ``str``/``int`` coercion
  families, mixed ``int``/``float`` — is rejected and served by the coercing
  serial code, the single source of truth for those semantics.

Cross-representation comparisons guard exactness: an ``int64``/``float64``
comparison only vectorizes when the integer side is within ±2^53 (exactly
representable in float64), because Python compares int↔float *exactly* while
NumPy promotes to float64.

Classified columns are cached.  A batch wrapping an unmutated base relation
(``ColumnBatch.from_relation``) stores its entries in the relation's
version-keyed one-slot ``_vector_cache`` holder — shared with relabelled
views, and replaced by an empty one on every write, so the arrays are
reclassified lazily on next use.  Anonymous intermediate batches cache per
batch.

NumPy is optional: without it every kernel returns ``None`` and
``engine="vector"`` raises a ``ValueError`` naming the available engines.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Sequence

try:  # NumPy is an optional extra (setup.py: repro[vector])
    import numpy as np
except ImportError:  # pragma: no cover - exercised via HAVE_NUMPY monkeypatch
    np = None

from repro.obs.trace import current_tracer
from repro.relational.columnar import _SWAPPED_OP, ColumnBatch, _mask
from repro.relational.predicates import (
    And,
    Between,
    Comparison,
    FalsePredicate,
    In,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.relational.expressions import ColumnRef, Literal
from repro.relational.types import _try_parse_number

#: True when NumPy imported.  Tests monkeypatch this to simulate a NumPy-less
#: install without uninstalling anything; every kernel checks it through
#: :func:`numpy_available`.
HAVE_NUMPY = np is not None

#: Largest integer magnitude exactly representable in a float64.
_EXACT_FLOAT_INT = 2**53

#: int64 bounds for constants folded into integer comparisons.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: Composite key codes stay below this so mixed-radix combination cannot
#: overflow int64.
_CODE_LIMIT = 2**62

#: Sentinel distinguishing "not cached yet" from a cached rejection (None).
_MISS = object()

_NP_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def numpy_available() -> bool:
    """True when the vector engine can run in this environment."""
    return np is not None and HAVE_NUMPY


def _traced_kernel(fn):
    """Record each kernel attempt as an ambient ``vector`` trace event.

    ``engaged=False`` means the kernel declined (returned ``None``) and the
    executor served the node through the serial fallback — exactly the
    decision traces need to explain why a "vector" query ran at columnar
    speed.  Untraced runs pay one thread-local read per *operator*, nothing
    per row.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer = current_tracer()
        if tracer is not None:
            tracer.event("vector", kernel=fn.__name__, engaged=result is not None)
        return result

    return wrapper


# --------------------------------------------------------------------------- #
# column classification and caching
# --------------------------------------------------------------------------- #
def _entry_for_list(column: list):
    """Classify one column: ``(array, has_nan)`` or ``None`` (rejected)."""
    kinds = set(map(type, column))
    n = len(column)
    if not kinds:
        return np.empty(0, dtype=np.int64), False
    if kinds == {bool}:
        return np.array(column, dtype=np.bool_), False
    if kinds <= {bool, int}:
        try:
            return np.fromiter(column, np.int64, count=n), False
        except OverflowError:
            return None  # beyond int64: keep Python's arbitrary precision
    if kinds == {float}:
        arr = np.fromiter(column, np.float64, count=n)
        return arr, bool(np.isnan(arr).any())
    if kinds == {str}:
        try:
            arr = np.asarray(column, dtype=np.str_)
        except Exception:
            return None
        if arr.ndim != 1 or arr.tolist() != column:
            return None  # embedded NULs etc. would not round-trip
        return arr, False
    return None


def _relation_entry(source, batch: ColumnBatch, position: int):
    """Serve ``position`` from the relation-level cache, or ``_MISS``.

    Eligibility is an identity check: the relation's version-keyed
    column-major cache must be current *and* hold the very list object the
    batch carries — a batch built before a write keeps classifying locally
    against its own snapshot.
    """
    cached_columns = source._column_cache[0]
    version = source.version
    if cached_columns is None or cached_columns[0] != version:
        return _MISS
    if cached_columns[1][position] is not batch.data[position]:
        return _MISS
    holder = source._vector_cache
    payload = holder[0]
    if payload is not None and payload[0] == version:
        entries = payload[1]
    else:
        entries = {}
        holder[0] = (version, entries)
    entry = entries.get(position, _MISS)
    if entry is _MISS:
        entry = _entry_for_list(batch.data[position])
        entries[position] = entry
    return entry


def column_entry(batch: ColumnBatch, position: int):
    """The classified array entry for one batch column (cached), or ``None``."""
    source = batch._source
    if source is not None:
        entry = _relation_entry(source, batch, position)
        if entry is not _MISS:
            return entry
    vectors = batch._vectors
    if vectors is None:
        vectors = batch._vectors = {}
    entry = vectors.get(position, _MISS)
    if entry is _MISS:
        entry = _entry_for_list(batch.data[position])
        vectors[position] = entry
    return entry


def _ref_entry(ref: ColumnRef, batch: ColumnBatch):
    try:
        position = batch.resolve(ref.name, ref.qualifier)
    except KeyError:
        return None  # the serial fallback raises the engine's standard error
    return column_entry(batch, position)


def _int_exact(arr) -> bool:
    """True when every value is exactly representable in a float64."""
    if arr.dtype.kind == "b" or arr.size == 0:
        return True
    return -_EXACT_FLOAT_INT <= int(arr.min()) and int(arr.max()) <= _EXACT_FLOAT_INT


# --------------------------------------------------------------------------- #
# predicate masks
# --------------------------------------------------------------------------- #
@_traced_kernel
def vector_predicate_mask(predicate: Predicate, batch: ColumnBatch):
    """``predicate_mask`` as Python bools via NumPy, or ``None`` (fallback).

    An empty batch falls back (the serial mask returns ``[]`` without
    touching the predicate, and so must we).
    """
    if not numpy_available() or batch.length == 0:
        return None
    mask = _vmask(predicate, batch, batch.length)
    if mask is None:
        return None
    return mask.tolist()


@_traced_kernel
def vector_select_indices(predicate: Predicate, batch: ColumnBatch):
    """Kept row positions for a selection, or ``None`` (fallback)."""
    if not numpy_available() or batch.length == 0:
        return None
    mask = _vmask(predicate, batch, batch.length)
    if mask is None:
        return None
    return np.flatnonzero(mask).tolist()


def _vmask(predicate: Predicate, batch: ColumnBatch, n: int, strict: bool = False):
    if isinstance(predicate, Comparison):
        return _vcomparison(predicate, batch, n)
    if isinstance(predicate, TruePredicate):
        return np.ones(n, dtype=np.bool_)
    if isinstance(predicate, FalsePredicate):
        return np.zeros(n, dtype=np.bool_)
    if isinstance(predicate, (And, Or)):
        parts = [_vmask(operand, batch, n, strict) for operand in predicate.operands]
        if strict:
            # Strict mode runs on virtual batches (no materialised column
            # lists), so there is nothing for the serial fill-in to sweep.
            if any(part is None for part in parts):
                return None
        elif all(part is None for part in parts):
            return None
        combine = np.logical_and if isinstance(predicate, And) else np.logical_or
        out = None
        for operand, part in zip(predicate.operands, parts):
            if part is None:
                # Serve the unvectorizable conjunct serially; combining its
                # exact Python mask keeps the whole node on the fast path.
                part = np.fromiter(_mask(operand, batch, n), np.bool_, count=n)
            out = part if out is None else combine(out, part)
        return out
    if isinstance(predicate, Not):
        inner = _vmask(predicate.operand, batch, n, strict)
        return None if inner is None else ~inner
    if isinstance(predicate, In):
        return _vin(predicate, batch, n)
    if isinstance(predicate, Between):
        return _vbetween(predicate, batch, n)
    return None  # unknown predicate type: row-fallback territory


def _vcomparison(cmp: Comparison, batch: ColumnBatch, n: int):
    left, right, op = cmp.left, cmp.right, cmp.op
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        left, right, op = right, left, _SWAPPED_OP[op]
    if not isinstance(left, ColumnRef):
        return None
    entry = _ref_entry(left, batch)
    if entry is None:
        return None
    arr = entry[0]
    if isinstance(right, Literal):
        return _const_mask(op, arr, right.value)
    if isinstance(right, ColumnRef):
        other = _ref_entry(right, batch)
        if other is None:
            return None
        return _col_col_mask(op, arr, other[0])
    return None  # arithmetic operand: serial expression evaluation


def _const_mask(op: str, arr, const):
    """``arr <op> const`` under the row engine's coercion rules, or ``None``."""
    kind = arr.dtype.kind
    if const is None:
        # None compares false under every operator.
        return np.zeros(arr.shape[0], dtype=np.bool_)
    kind_of_const = type(const)
    if kind in "bif":
        if kind_of_const is str:
            parsed = _try_parse_number(const)
            if parsed is None:
                return None  # Python stringifies the numbers instead
            const, kind_of_const = parsed, type(parsed)
        elif kind_of_const is bool:
            const, kind_of_const = int(const), int
        if kind_of_const is int:
            if kind == "f":
                if not -_EXACT_FLOAT_INT <= const <= _EXACT_FLOAT_INT:
                    return None  # promotion to float64 would be inexact
            elif not _INT64_MIN <= const <= _INT64_MAX:
                return None
        elif kind_of_const is float:
            if const != const:
                # NaN: IEEE ordering (everything False, "!=" True) matches
                # Python's, independent of the integer column's magnitude.
                return _NP_OPS[op](arr, const)
            if kind in "bi" and not _int_exact(arr):
                return None
        else:
            return None
        return _NP_OPS[op](arr, const)
    if kind == "U" and kind_of_const is str:
        return _NP_OPS[op](arr, const)  # code-point order, like Python
    return None  # cross-family: the coercing serial path decides


def _col_col_mask(op: str, a, b):
    ka, kb = a.dtype.kind, b.dtype.kind
    if ka in "bif" and kb in "bif":
        if ka == "f" and kb in "bi" and not _int_exact(b):
            return None
        if kb == "f" and ka in "bi" and not _int_exact(a):
            return None
        return _NP_OPS[op](a, b)
    if ka == "U" and kb == "U":
        return _NP_OPS[op](a, b)
    return None


def _vin(predicate: In, batch: ColumnBatch, n: int):
    """``IN`` membership via ``np.isin``, or ``None``.

    The row engine tests plain ``value in members`` — **no** coercion, so a
    string member can never match a numeric column (and vice versa); such
    members are dropped rather than rejected.  NaN anywhere rejects: ``in``
    uses identity-or-equality, which an array test cannot reproduce.
    """
    expr = predicate.expr
    if not isinstance(expr, ColumnRef):
        return None
    entry = _ref_entry(expr, batch)
    if entry is None:
        return None
    arr, has_nan = entry
    members = list(predicate.values)
    if not members:
        return np.zeros(n, dtype=np.bool_)
    kind = arr.dtype.kind
    if kind in "bif":
        if has_nan:
            return None
        numeric = []
        for member in members:
            member_type = type(member)
            if member_type is bool:
                numeric.append(int(member))
            elif member_type is int:
                numeric.append(member)
            elif member_type is float:
                if member != member:
                    return None
                numeric.append(member)
            elif member_type is str:
                continue  # == never matches a number
            else:
                return None
        any_float = any(type(member) is float for member in numeric)
        kept = []
        if kind in "bi":
            if any_float and not _int_exact(arr):
                return None
            for member in numeric:
                if type(member) is not int:
                    kept.append(member)
                elif any_float:
                    # isin promotes everything to float64; an int member
                    # beyond 2^53 cannot equal any exactly-held value anyway.
                    if -_EXACT_FLOAT_INT <= member <= _EXACT_FLOAT_INT:
                        kept.append(member)
                elif _INT64_MIN <= member <= _INT64_MAX:
                    kept.append(member)
        else:
            for member in numeric:
                if type(member) is not int:
                    kept.append(member)
                else:
                    try:
                        as_float = float(member)
                    except OverflowError:
                        continue  # cannot equal any float64
                    if int(as_float) == member:
                        kept.append(as_float)
        if not kept:
            return np.zeros(n, dtype=np.bool_)
        return np.isin(arr, kept)
    if kind == "U":
        kept = [member for member in members if type(member) is str]
        dropped = [member for member in members if type(member) is not str]
        if any(not isinstance(member, (bool, int, float)) for member in dropped):
            return None  # arbitrary objects could define __eq__ against str
        if not kept:
            return np.zeros(n, dtype=np.bool_)
        return np.isin(arr, np.asarray(kept, dtype=np.str_))
    return None


def _vbetween(predicate: Between, batch: ColumnBatch, n: int):
    expr = predicate.expr
    if not isinstance(expr, ColumnRef):
        return None
    entry = _ref_entry(expr, batch)
    if entry is None:
        return None
    arr = entry[0]
    low, high = predicate.low, predicate.high
    if low is None or high is None:
        return None  # comparable() has None-specific behaviour: serial path
    low_mask = _const_mask(">=", arr, low)
    if low_mask is None:
        return None
    high_mask = _const_mask("<=", arr, high)
    if high_mask is None:
        return None
    return low_mask & high_mask


# --------------------------------------------------------------------------- #
# fused selection over a cross product
# --------------------------------------------------------------------------- #
class _SideEntries(dict):
    """Lazy ``{combined position: entry}`` view of one product side.

    A virtual-product adapter batch carries the *combined* label list but only
    one side's rows; positions belonging to the other side classify as
    ``None`` (rejected), which makes any sub-predicate touching that side fail
    strict vectorisation on this adapter — exactly the signal
    :func:`_product_mask` uses to decompose the predicate instead.
    """

    def __init__(self, batch: ColumnBatch, offset: int, width: int):
        super().__init__()
        self._batch = batch
        self._offset = offset
        self._width = width

    def get(self, position, default=None):
        if position not in self:
            local = position - self._offset
            if 0 <= local < self._width:
                self[position] = column_entry(self._batch, local)
            else:
                self[position] = None
        return dict.__getitem__(self, position)


@_traced_kernel
def vector_product_select_positions(
    predicate: Predicate, left: ColumnBatch, right: ColumnBatch, labels: Sequence[str]
):
    """Surviving ``(left_rows, right_rows)`` of ``Select(Product)``, or ``None``.

    Fuses the selection into the cross product so the ``n × m`` value lists
    are never materialised: the mask over the virtual product is assembled
    from per-side masks (``np.repeat`` for the left side, ``np.tile`` for the
    right — the row engine's left-outer/right-inner ordering) and broadcast
    cross-side comparisons.  Only surviving coordinates are returned; the
    executor gathers them from the *original* Python column lists, preserving
    object identity (``True`` must stay ``bool``, not become ``1``).

    Strict: any sub-predicate that fails to vectorise rejects the whole node
    (there are no materialised product columns for a serial fill-in to
    sweep); the executor then materialises the product exactly as before.
    An empty product also rejects — the serial mask returns ``[]`` without
    evaluating the predicate, and the fallback reproduces that.
    """
    if not numpy_available():
        return None
    n_left, n_right = len(left), len(right)
    total = n_left * n_right
    if total == 0:
        return None
    split = len(left.data)
    placeholder = [[] for _ in labels]
    adapter_left = ColumnBatch(labels, placeholder, length=n_left)
    adapter_left._vectors = _SideEntries(left, 0, split)
    adapter_right = ColumnBatch(labels, placeholder, length=n_right)
    adapter_right._vectors = _SideEntries(right, split, len(right.data))
    mask = _product_mask(predicate, adapter_left, adapter_right, n_left, n_right)
    if mask is None:
        return None
    kept = np.flatnonzero(mask)
    left_rows = kept // n_right
    right_rows = kept - left_rows * n_right
    return left_rows.tolist(), right_rows.tolist()


def _product_mask(
    predicate: Predicate,
    adapter_left: ColumnBatch,
    adapter_right: ColumnBatch,
    n_left: int,
    n_right: int,
):
    """Boolean mask over the virtual product in global row order, or ``None``."""
    side = _vmask(predicate, adapter_left, n_left, strict=True)
    if side is not None:
        return np.repeat(side, n_right)
    side = _vmask(predicate, adapter_right, n_right, strict=True)
    if side is not None:
        return np.tile(side, n_left)
    if isinstance(predicate, (And, Or)):
        combine = np.logical_and if isinstance(predicate, And) else np.logical_or
        out = None
        for operand in predicate.operands:
            part = _product_mask(operand, adapter_left, adapter_right, n_left, n_right)
            if part is None:
                return None
            out = part if out is None else combine(out, part)
        return out
    if isinstance(predicate, Not):
        inner = _product_mask(
            predicate.operand, adapter_left, adapter_right, n_left, n_right
        )
        return None if inner is None else ~inner
    if isinstance(predicate, Comparison):
        return _cross_comparison(predicate, adapter_left, adapter_right)
    return None


def _cross_comparison(
    cmp: Comparison, adapter_left: ColumnBatch, adapter_right: ColumnBatch
):
    """Broadcast a column-to-column comparison that spans both product sides.

    ``mask[l, r]`` compares the left side's row ``l`` against the right
    side's row ``r``; ravelling the ``(n_left, n_right)`` result in C order
    is exactly the global product row order.  Exactness guards are
    :func:`_col_col_mask`'s own (it accepts the broadcast 2-D views).
    """
    left, right, op = cmp.left, cmp.right, cmp.op
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        left, right, op = right, left, _SWAPPED_OP[op]
    if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
        return None
    first = _cross_entry(left, adapter_left, adapter_right)
    second = _cross_entry(right, adapter_left, adapter_right)
    if first is None or second is None:
        return None
    (first_left, a), (second_left, b) = first, second
    if first_left == second_left:
        return None  # same side: the per-side attempt already rejected it
    if first_left:
        mask = _col_col_mask(op, a[:, None], b[None, :])
    else:
        mask = _col_col_mask(op, a[None, :], b[:, None])
    return None if mask is None else mask.ravel()


def _cross_entry(ref: ColumnRef, adapter_left: ColumnBatch, adapter_right: ColumnBatch):
    """``(is_left_side, array)`` for a reference on the combined labels, or ``None``."""
    try:
        position = adapter_left.resolve(ref.name, ref.qualifier)
    except KeyError:
        return None  # the serial fallback raises the engine's standard error
    entry = column_entry(adapter_left, position)
    if entry is not None:
        return True, entry[0]
    entry = column_entry(adapter_right, position)
    if entry is not None:
        return False, entry[0]
    return None


# --------------------------------------------------------------------------- #
# hash join: joint factorisation + stable sort + searchsorted
# --------------------------------------------------------------------------- #
@_traced_kernel
def vector_join_indices(
    left: ColumnBatch, right: ColumnBatch, pairs: Sequence[tuple[int, int]]
):
    """Matching ``(left_idx, right_idx)`` of a hash equi-join, or ``None``.

    Exactly the serial probe order: left rows in ascending order, each
    emitting its matching right rows in ascending order (a stable sort of
    the right key codes keeps equal keys in ascending index order, so the
    ``searchsorted`` span *is* the serial bucket).  Key columns must
    classify, carry no NaN (Python buckets give NaN identity semantics) and
    live in one family per pair — int/float crosses vectorize only when the
    integer side is float64-exact, mirroring dict hash/eq equivalence.
    """
    if not numpy_available():
        return None
    left_n, right_n = len(left), len(right)
    if left_n == 0 or right_n == 0:
        return [], []
    pair_codes = []
    sizes = []
    for left_pos, right_pos in pairs:
        left_entry = column_entry(left, left_pos)
        right_entry = column_entry(right, right_pos)
        if (
            left_entry is None
            or right_entry is None
            or left_entry[1]
            or right_entry[1]
        ):
            return None
        left_arr, right_arr = left_entry[0], right_entry[0]
        ka, kb = left_arr.dtype.kind, right_arr.dtype.kind
        if ka in "bif" and kb in "bif":
            if "f" in (ka, kb):
                if ka in "bi" and not _int_exact(left_arr):
                    return None
                if kb in "bi" and not _int_exact(right_arr):
                    return None
                left_arr = left_arr.astype(np.float64)
                right_arr = right_arr.astype(np.float64)
            else:
                left_arr = left_arr.astype(np.int64)
                right_arr = right_arr.astype(np.int64)
        elif not (ka == "U" and kb == "U"):
            return None  # cross-family keys: serial dict semantics decide
        both = np.concatenate([left_arr, right_arr])
        _, inverse = np.unique(both, return_inverse=True)
        pair_codes.append(inverse.astype(np.int64))
        sizes.append(int(inverse.max()) + 1)  # both sides non-empty here
    code = pair_codes[0]
    size = sizes[0]
    for next_code, next_size in zip(pair_codes[1:], sizes[1:]):
        if size * max(next_size, 1) > _CODE_LIMIT:
            return None
        code = code * next_size + next_code
        size *= max(next_size, 1)
    left_codes = code[:left_n]
    right_codes = code[left_n:]
    order = np.argsort(right_codes, kind="stable")
    sorted_codes = right_codes[order]
    span_start = np.searchsorted(sorted_codes, left_codes, side="left")
    span_stop = np.searchsorted(sorted_codes, left_codes, side="right")
    counts = span_stop - span_start
    matched = counts > 0
    match_counts = counts[matched]
    total = int(match_counts.sum())
    if total == 0:
        return [], []
    left_idx = np.repeat(np.flatnonzero(matched), match_counts)
    cumulative = np.cumsum(match_counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        cumulative - match_counts, match_counts
    )
    right_idx = order[np.repeat(span_start[matched], match_counts) + within]
    return left_idx.tolist(), right_idx.tolist()


# --------------------------------------------------------------------------- #
# duplicate elimination and grouping: shared row coding
# --------------------------------------------------------------------------- #
def _combined_codes(entries):
    """One int64 code per row with code equality == Python tuple equality.

    Every entry must be classified and NaN-free (``np.unique`` collapses
    NaNs, Python's set semantics do not).  Per-column factor codes combine
    mixed-radix, guarded against int64 overflow.
    """
    code = None
    size = 1
    for entry in entries:
        if entry is None or entry[1]:
            return None
        arr = entry[0]
        uniq, inverse = np.unique(arr, return_inverse=True)
        inverse = inverse.astype(np.int64)
        radix = max(len(uniq), 1)
        if code is None:
            code, size = inverse, radix
        else:
            if size * radix > _CODE_LIMIT:
                return None
            code = code * radix + inverse
            size *= radix
    return code


def _first_occurrence_keep(code) -> list[int]:
    """Ascending first-occurrence positions of each distinct code."""
    _, first = np.unique(code, return_index=True)
    first.sort()
    return first.tolist()


@_traced_kernel
def vector_distinct_indices(batch: ColumnBatch, positions: Sequence[int]):
    """First-occurrence keep list for DISTINCT over ``positions``, or ``None``."""
    if not numpy_available() or not positions:
        return None
    entries = [column_entry(batch, position) for position in positions]
    code = _combined_codes(entries)
    if code is None:
        return None
    return _first_occurrence_keep(code)


@_traced_kernel
def vector_union_distinct_indices(left: ColumnBatch, right: ColumnBatch):
    """Keep list for UNION DISTINCT over the stacked batches, or ``None``."""
    if not numpy_available() or not left.data:
        return None
    entries = []
    for left_column, right_column in zip(left.data, right.data):
        entry = _entry_for_list([*left_column, *right_column])
        if entry is None:
            return None
        entries.append(entry)
    code = _combined_codes(entries)
    if code is None:
        return None
    return _first_occurrence_keep(code)


@_traced_kernel
def vector_group_indices(
    batch: ColumnBatch,
    positions: Sequence[int],
    key_columns: Sequence[list],
    n: int,
):
    """Serial-identical grouping via sort-based segment extraction, or ``None``.

    Returns ``{key tuple: ascending member positions}`` with keys inserted in
    first-occurrence order and built from the *original Python values* at
    each group's first row — the exact dict the serial loop produces, so the
    executor's serial per-group fold (and its float accumulation) runs
    unchanged on top.
    """
    if not numpy_available() or not positions or n == 0:
        return None
    entries = [column_entry(batch, position) for position in positions]
    code = _combined_codes(entries)
    if code is None:
        return None
    uniq, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    inverse = inverse.astype(np.int64)
    group_order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[group_order] = np.arange(len(uniq), dtype=np.int64)
    group_ids = rank[inverse]
    order = np.argsort(group_ids, kind="stable")
    sorted_ids = group_ids[order]
    boundaries = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
    member_lists = np.split(order, boundaries)
    first_rows = first[group_order]
    groups: dict[tuple, list[int]] = {}
    for group_id, members in enumerate(member_lists):
        row = int(first_rows[group_id])
        key = tuple(column[row] for column in key_columns)
        groups[key] = members.tolist()
    return groups
