"""The paper's contribution: probabilistic query evaluation over possible mappings.

The package is organised around the concepts of the paper:

* :mod:`repro.core.answer` — probabilistic answers ``(t, Pr(t))``.
* :mod:`repro.core.target_query` — target queries and their attributes.
* :mod:`repro.core.links` / :mod:`repro.core.reformulation` — target-to-source
  query and operator reformulation (Section VI-B).
* :mod:`repro.core.partition_tree` — mapping partitioning (Algorithm 3).
* :mod:`repro.core.eunit` — e-units and candidate operators (Section V).
* :mod:`repro.core.utrace` — the one u-trace walker o-sharing, top-k and
  anytime schedule, and the one bounds model (interval answers) top-k and
  anytime share.
* :mod:`repro.core.evaluators.whole_query` — the one whole-query pipeline
  basic, e-basic, e-MQO, q-sharing and batch configure.
* :mod:`repro.core.operator_selection` — Random / SNF / SEF (Section VI-A).
* :mod:`repro.core.metrics` — mapping-overlap metrics (Section VIII-B.1).
* :mod:`repro.core.evaluators` — basic, e-basic, e-MQO, q-sharing, o-sharing,
  top-k, batch and anytime evaluation algorithms.

Queries are evaluated through a :class:`repro.session.Session`
(``repro.Session`` / ``repro.connect``), which owns the plan cache,
statistics catalog, optimizer memo and worker pools the evaluators share.
"""

from __future__ import annotations

from repro.core.answer import ProbabilisticAnswer, RankedAnswer
from repro.core.evaluators import (
    EVALUATORS,
    BatchEvaluator,
    BatchResult,
    EvaluationResult,
    Evaluator,
    TopKEvaluator,
    make_evaluator,
)
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

__all__ = [
    "ProbabilisticAnswer",
    "RankedAnswer",
    "BatchEvaluator",
    "BatchResult",
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
]
