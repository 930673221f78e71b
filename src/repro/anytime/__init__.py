"""Anytime evaluation: budgeted queries with sound probability intervals.

This subsystem generalizes the paper's top-k bound machinery (Section VII)
into a full anytime mode, ``method="anytime"``:

* :mod:`repro.anytime.budget` — :class:`Budget` /:class:`BudgetMeter`:
  deterministic mapping/e-unit limits (CI-gateable, replayable) plus a
  best-effort wall-clock limit, checkpointed between operator executions;
* :mod:`repro.anytime.progress` — :class:`IntervalAnswer` and
  :class:`AnytimeResult` with its :meth:`~AnytimeResult.resume` handle;
* :mod:`repro.core.evaluators.anytime` — the evaluator itself, registered in
  the :data:`~repro.core.evaluators.EVALUATORS` registry: the shared u-trace
  core (:mod:`repro.core.utrace`) driven best-first under a budget.

The headline invariant (ARCHITECTURE.md invariant 11): with no budget (or
an unreachable one) the anytime evaluator is **byte-identical** to exact
o-sharing; under any deterministic budget the returned intervals always
contain the exact probabilities and tighten monotonically across
``resume()`` steps.
"""

from repro.anytime.budget import Budget, BudgetMeter
from repro.anytime.progress import AnytimeContinuation, AnytimeResult, IntervalAnswer

__all__ = [
    "Budget",
    "BudgetMeter",
    "AnytimeContinuation",
    "AnytimeResult",
    "IntervalAnswer",
]
