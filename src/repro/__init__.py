"""repro — a reproduction of *Evaluating Probabilistic Queries over Uncertain
Matching* (Cheng, Gong, Cheung and Cheng, ICDE 2012).

The library evaluates probabilistic queries issued against a *target* schema
whose relationship to a *source* database is captured by a set of *possible
mappings* with probabilities.  It contains:

* an in-memory relational engine (:mod:`repro.relational`),
* a schema-matching substrate producing possible mappings
  (:mod:`repro.matching`),
* a deterministic purchase-order data generator and ready-made experiment
  scenarios (:mod:`repro.datagen`),
* the paper's evaluation algorithms — basic, e-basic, e-MQO, q-sharing,
  o-sharing and probabilistic top-k — plus shared execution of whole
  workloads (``session.query_many``; :mod:`repro.core`),
* the anytime subsystem: budgeted queries with sound, resumable per-tuple
  probability intervals (:mod:`repro.anytime`, ``method="anytime"``),
* the paper's query workload and parameterised workload generators
  (:mod:`repro.workloads`), and
* the cold-query helper the benchmarks share (:mod:`repro.bench`); the
  paper's claims are checked by ``benchmarks/paper/run.py`` and the
  system's by ``benchmarks/system/run.py``.

Quickstart (session-first)::

    from repro import build_scenario, connect
    from repro.workloads import paper_query

    scenario = build_scenario(target="Excel", h=100, scale=0.05)
    with connect(scenario) as session:
        result = session.query(paper_query("Q1", scenario.target_schema))
        print(result.answers.pretty())

A :class:`Session` owns all cross-query state (plan cache, statistics
catalog, optimizer memo, worker pools) so repeated queries stop paying for
work already done; how queries execute is an :class:`ExecutionPolicy`.
"""

from repro.anytime import AnytimeResult, Budget, IntervalAnswer
from repro.core import (
    BatchResult,
    EvaluationResult,
    Evaluator,
    ProbabilisticAnswer,
    SchemaLinks,
    TargetQuery,
    make_evaluator,
)
from repro.datagen import MatchingScenario, build_scenario
from repro.matching import Mapping, MappingSet, generate_possible_mappings, match_schemas
from repro.policy import ExecutionPolicy
from repro.relational import Database, Relation
from repro.session import Session, SessionStats, connect

__version__ = "1.0.0"

__all__ = [
    "Session",
    "SessionStats",
    "ExecutionPolicy",
    "connect",
    "AnytimeResult",
    "Budget",
    "IntervalAnswer",
    "BatchResult",
    "EvaluationResult",
    "Evaluator",
    "ProbabilisticAnswer",
    "SchemaLinks",
    "TargetQuery",
    "make_evaluator",
    "MatchingScenario",
    "build_scenario",
    "Mapping",
    "MappingSet",
    "generate_possible_mappings",
    "match_schemas",
    "Database",
    "Relation",
    "__version__",
]
