"""Evaluation algorithms for probabilistic queries over possible mappings.

========== =========================================================
name       algorithm
========== =========================================================
basic      one source query per mapping (Section III-B.1)
e-basic    one source query per *distinct* reformulation (III-B.2)
e-mqo      multiple-query optimisation over the distinct queries (III-B.3)
q-sharing  partition-tree grouping + basic over representatives (IV)
o-sharing  operator-level sharing over the u-trace (V-VI)
top-k      o-sharing stopped once the top k is final (VII)
batch      shared execution across a workload of target queries
anytime    o-sharing under a budget, with sound probability intervals
========== =========================================================

Two cores carry all of them: basic, e-basic, e-mqo, q-sharing and batch are
groupings and sharing rules over :mod:`repro.core.evaluators.whole_query`;
o-sharing, top-k and anytime are three presets of one
:class:`~repro.core.evaluators.osharing.UTraceEvaluator` over
:mod:`repro.core.utrace`, differing in frontier order and stop rule.  Every
method answers exactly when run to the end; top-k and a budget stop early,
with the bounds of the one interval model.
"""

from repro.core.evaluators.base import (
    PHASE_AGGREGATION,
    PHASE_ANYTIME,
    PHASE_EVALUATION,
    PHASE_PLANNING,
    PHASE_REWRITING,
    EvaluationResult,
    Evaluator,
    SharedState,
)
from repro.core.evaluators.basic import BasicEvaluator
from repro.core.evaluators.batch import BatchEvaluator, BatchResult
from repro.core.evaluators.ebasic import EBasicEvaluator
from repro.core.evaluators.emqo import EMQOEvaluator, MemoizingExecutor
from repro.core.evaluators.osharing import (
    AnytimeEvaluator,
    OSharingEvaluator,
    TopKEvaluator,
)
from repro.core.evaluators.qsharing import QSharingEvaluator
from repro.core.evaluators.whole_query import (
    build_global_plan,
    per_distinct_plan,
    per_mapping,
)

#: Registry of every evaluation method, keyed by its public name.
EVALUATORS = {
    BasicEvaluator.name: BasicEvaluator,
    EBasicEvaluator.name: EBasicEvaluator,
    EMQOEvaluator.name: EMQOEvaluator,
    QSharingEvaluator.name: QSharingEvaluator,
    OSharingEvaluator.name: OSharingEvaluator,
    TopKEvaluator.name: TopKEvaluator,
    BatchEvaluator.name: BatchEvaluator,
    AnytimeEvaluator.name: AnytimeEvaluator,
}


def make_evaluator(name: str, links=None, **options) -> Evaluator:
    """Instantiate an evaluator by its public name (``k=``/``budget=`` for top-k).

    An unknown name raises ``ValueError`` listing the valid choices (with a
    did-you-mean suggestion) — the same boundary validation
    :class:`~repro.policy.ExecutionPolicy` applies.
    """
    from repro.policy import validate_choice

    key = validate_choice("method", name, EVALUATORS)
    return EVALUATORS[key](links=links, **options)


__all__ = [
    "PHASE_AGGREGATION",
    "PHASE_ANYTIME",
    "PHASE_EVALUATION",
    "PHASE_PLANNING",
    "PHASE_REWRITING",
    "AnytimeEvaluator",
    "EvaluationResult",
    "Evaluator",
    "SharedState",
    "BasicEvaluator",
    "BatchEvaluator",
    "BatchResult",
    "EBasicEvaluator",
    "EMQOEvaluator",
    "MemoizingExecutor",
    "build_global_plan",
    "per_distinct_plan",
    "per_mapping",
    "OSharingEvaluator",
    "QSharingEvaluator",
    "TopKEvaluator",
    "EVALUATORS",
    "make_evaluator",
]
