"""Anytime evaluation: budgeted queries with sound probability intervals.

Anytime mode, ``method="anytime"``, and top-k (Section VII) share one
bounds model — per-tuple ``[lb, lb + U]`` intervals over the u-trace's
contribution log and frontier mass (:mod:`repro.core.utrace`); top-k stops
on it, anytime stops on a budget and reports it:

* :mod:`repro.anytime.budget` — :class:`Budget` /:class:`BudgetMeter`:
  deterministic mapping/e-unit limits (CI-gateable, replayable) plus a
  best-effort wall-clock limit, checkpointed between operator executions;
* :mod:`repro.anytime.progress` — :class:`AnytimeResult` with its
  :meth:`~AnytimeResult.resume` handle, and :class:`IntervalAnswer`
  re-exported from the core;
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
