"""The paper's contribution: probabilistic query evaluation over possible mappings.

The package is organised around the concepts of the paper:

* :mod:`repro.core.answer` — probabilistic answers ``(t, Pr(t))``.
* :mod:`repro.core.target_query` — target queries and their attributes.
* :mod:`repro.core.links` / :mod:`repro.core.reformulation` — target-to-source
  query and operator reformulation (Section VI-B).
* :mod:`repro.core.partition_tree` — mapping partitioning (Algorithm 3).
* :mod:`repro.core.eunit` — e-units and candidate operators (Section V).
* :mod:`repro.core.utrace` — the one u-trace walker o-sharing, top-k and
  anytime schedule.
* :mod:`repro.core.operator_selection` — Random / SNF / SEF (Section VI-A).
* :mod:`repro.core.metrics` — mapping-overlap metrics (Section VIII-B.1).
* :mod:`repro.core.evaluators` — basic, e-basic, e-MQO, q-sharing, o-sharing
  and top-k evaluation algorithms.

The :func:`evaluate` and :func:`evaluate_top_k` one-call helpers remain as
**deprecated** shims over a throwaway :class:`repro.session.Session`; new
code should hold a session (``repro.Session`` / ``repro.connect``) so the
plan cache, statistics catalog, optimizer memo and worker pools survive
between queries.
"""

from __future__ import annotations

import warnings

from repro.core.answer import ProbabilisticAnswer, RankedAnswer
from repro.core.evaluators import (
    EVALUATORS,
    BatchEvaluator,
    BatchResult,
    EvaluationResult,
    Evaluator,
    evaluate_many,
    make_evaluator,
)
from repro.core.evaluators.topk import TopKEvaluator
from repro.core.links import RelationLink, SchemaLinks
from repro.core.metrics import o_ratio, overlap_series
from repro.core.operator_selection import STRATEGIES, make_strategy
from repro.core.partition_tree import partition, partition_and_represent, represent
from repro.core.reformulation import (
    UnmatchedAttributeError,
    extract_answers,
    reformulate_operator,
    reformulate_query,
)
from repro.core.target_query import TargetAttribute, TargetQuery, TargetQueryError


def _deprecated_one_shot(name: str, replacement: str) -> None:
    warnings.warn(
        f"{name}() is deprecated: it rebuilds every cache and pool per call. "
        f"Hold a repro.Session (or repro.connect(scenario)) and use "
        f"{replacement} so cross-query state survives between calls.",
        DeprecationWarning,
        stacklevel=3,
    )


def evaluate(
    query: TargetQuery,
    mappings,
    database,
    method: str = "o-sharing",
    links: SchemaLinks | None = None,
    **options,
) -> EvaluationResult:
    """Evaluate one probabilistic query (deprecated one-shot entry point).

    .. deprecated::
        Use :class:`repro.Session` / :func:`repro.connect` —
        ``session.query(query)`` — so the plan cache, statistics catalog,
        optimizer memo and worker pools persist across queries.  This shim
        runs a throwaway session per call: answers are byte-identical, the
        amortisation is lost.

    ``method`` is one of ``"basic"``, ``"e-basic"``, ``"e-mqo"``,
    ``"q-sharing"``, ``"o-sharing"`` (default), ``"batch"`` or ``"top-k"``
    (requires ``k=``); ``options`` are :class:`repro.ExecutionPolicy` fields
    (``engine=``, ``optimize=``, ``parallel=``, ``strategy=``, ...), and an
    unknown method or option name raises ``ValueError`` listing the valid
    choices.  Returns an :class:`EvaluationResult`.
    """
    _deprecated_one_shot("evaluate", "session.query(query)")
    from repro.policy import ExecutionPolicy
    from repro.session import Session
    from repro.relational.parallel import default_manager

    policy = ExecutionPolicy.from_options(method=method, **options)
    # Throwaway session on the process-wide pools: a loop of one-shot calls
    # keeps reusing warm workers, exactly as the pre-session API did.
    with Session(
        database, mappings, links=links, policy=policy, pools=default_manager()
    ) as session:
        return session.query(query)


def evaluate_top_k(
    query: TargetQuery,
    mappings,
    database,
    k: int,
    links: SchemaLinks | None = None,
    **options,
) -> EvaluationResult:
    """Evaluate a probabilistic top-k query (deprecated one-shot entry point).

    .. deprecated::
        Use :class:`repro.Session` / :func:`repro.connect` —
        ``session.top_k(query, k)`` — for the same answers on warm caches.
    """
    _deprecated_one_shot("evaluate_top_k", "session.top_k(query, k)")
    from repro.policy import ExecutionPolicy
    from repro.session import Session
    from repro.relational.parallel import default_manager

    policy = ExecutionPolicy.from_options(method="top-k", k=k, **options)
    with Session(
        database, mappings, links=links, policy=policy, pools=default_manager()
    ) as session:
        return session.top_k(query)


__all__ = [
    "ProbabilisticAnswer",
    "RankedAnswer",
    "BatchEvaluator",
    "BatchResult",
    "evaluate_many",
    "EVALUATORS",
    "EvaluationResult",
    "Evaluator",
    "make_evaluator",
    "TopKEvaluator",
    "RelationLink",
    "SchemaLinks",
    "o_ratio",
    "overlap_series",
    "STRATEGIES",
    "make_strategy",
    "partition",
    "partition_and_represent",
    "represent",
    "UnmatchedAttributeError",
    "extract_answers",
    "reformulate_operator",
    "reformulate_query",
    "TargetAttribute",
    "TargetQuery",
    "TargetQueryError",
    "evaluate",
    "evaluate_top_k",
]
