"""Anytime evaluation: budgeted queries with sound probability intervals.

Anytime mode, ``method="anytime"``, and top-k (Section VII) are presets of
one u-trace evaluator and share one bounds model — per-tuple ``[lb, lb + U]``
intervals over the u-trace's contribution log and frontier mass
(:mod:`repro.core.utrace`).  A budget is a stop rule of either preset:

* :mod:`repro.anytime.budget` — :class:`Budget` /:class:`BudgetMeter`:
  deterministic mapping/e-unit limits (CI-gateable, replayable) plus a
  best-effort wall-clock limit, checkpointed between operator executions;
* :mod:`repro.anytime.progress` — :class:`AnytimeResult` with its
  :meth:`~AnytimeResult.resume` handle, and :class:`IntervalAnswer`
  re-exported from the core;
* :class:`~repro.core.evaluators.osharing.UTraceEvaluator` — the evaluator
  itself, whose ``anytime`` preset runs best-first and whose ``top-k``
  preset runs depth-first; either returns an :class:`AnytimeResult` when a
  budget is given (anytime always does).

The headline invariant (ARCHITECTURE.md invariant 11): with no budget (or
an unreachable one) anytime is **byte-identical** to exact o-sharing and
budgeted top-k to unbudgeted top-k; under any deterministic budget the
returned intervals always contain the exact probabilities and tighten
monotonically across ``resume()`` steps, and a resume chain driven to the
end equals the unbudgeted result at the same cumulative operator count.
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
