"""The *e-MQO* evaluator (Section III-B.3 of the paper).

e-MQO starts like e-basic — it reformulates every mapping and keeps the
distinct source queries — but instead of executing the distinct queries
independently it first builds a *global query plan* with a multiple-query
optimisation (MQO) algorithm in the spirit of Roy et al. / Zhou et al.: common
subexpressions across the source queries are identified and each is evaluated
only once.  The resulting plan executes the minimal number of source
operators, which is why the paper uses e-MQO as the operator-count yardstick
in Table IV; the price is an expensive plan-generation phase that grows
quickly with the number of distinct source queries (Figure 10(c)).

The implementation here reproduces both behaviours:

* plan generation
  (:func:`~repro.core.evaluators.whole_query.build_global_plan`) enumerates
  every subexpression of every distinct source query, compares all
  subexpression pairs (across queries *and* within one query — self-join
  branches and union arms repeat subexpressions too) to find sharing
  opportunities, and greedily selects materialisation points by estimated
  benefit — a genuinely quadratic search, which is what makes e-MQO slower
  than e-basic on large mapping sets;
* execution materialises exactly the subexpressions the global plan selected
  through a :class:`~repro.relational.plancache.PlanCache`, so each shared
  subexpression is evaluated once and the executed-operator count is minimal.
"""

from __future__ import annotations

from repro.core.evaluators.whole_query import WholeQueryEvaluator
from repro.relational.database import Database
from repro.relational.executor import DEFAULT_ENGINE, Executor
from repro.relational.plancache import MaterializeAll, PlanCache
from repro.relational.stats import ExecutionStats


class MemoizingExecutor(Executor):
    """An executor that evaluates each distinct subexpression only once.

    Results are cached by canonical plan fingerprint; cache hits execute no
    operator.  Kept as the blind-memoisation baseline: e-MQO proper now
    materialises only what its global plan selected, which executes the same
    operator count without caching results that can never be reused.
    """

    def __init__(
        self,
        database: Database,
        stats: ExecutionStats | None = None,
        engine: str = DEFAULT_ENGINE,
    ):
        super().__init__(
            database,
            stats,
            cache=PlanCache(maxsize=None),
            policy=MaterializeAll(),
            engine=engine,
        )

    @property
    def cache_size(self) -> int:
        """Number of distinct subexpressions evaluated so far."""
        return len(self.cache)


class EMQOEvaluator(WholeQueryEvaluator):
    """Multiple-query optimisation over the distinct source queries (``e-MQO``).

    e-basic's grouping under a global plan whose sharing is confirmed pair by
    pair — the faithful, deliberately quadratic planner.
    """

    name = "e-mqo"
    exhaustive = True
