"""Cold queries: one query on a fresh session, as every paper figure measures."""

from __future__ import annotations

from typing import Any

from repro.core.evaluators.base import EvaluationResult
from repro.core.target_query import TargetQuery
from repro.datagen.scenario import MatchingScenario
from repro.relational.parallel import default_manager
from repro.policy import ExecutionPolicy
from repro.session import Session, connect


def _session(
    scenario: MatchingScenario, method: str, options: dict[str, Any], pools=None
) -> Session:
    """A session for one measured point; ``options`` are checked against ``method``.

    Cold points (a fresh session each) pass the process-wide ``pools`` so
    they keep reusing warm workers.
    """
    policy = ExecutionPolicy().with_overrides(method=method, **options)
    return connect(scenario, policy=policy, pools=pools)


def cold_query(
    query: TargetQuery, scenario: MatchingScenario, method: str, **options: Any
) -> EvaluationResult:
    """Answer one query on a fresh :class:`~repro.session.Session` (cold caches)."""
    with _session(scenario, method, options, pools=default_manager()) as session:
        return session.query(query)
