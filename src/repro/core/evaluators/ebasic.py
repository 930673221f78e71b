"""The *e-basic* evaluator (Section III-B.2 of the paper).

e-basic improves on *basic* by clustering identical source queries: the target
query is still reformulated once per mapping, but each *distinct* source query
is executed only once, carrying the total probability of the mappings that
produced it.  The rewriting effort is unchanged — that is the weakness
q-sharing later removes — but the evaluation effort drops sharply when the
mappings overlap.
"""

from __future__ import annotations

from repro.core.evaluators.whole_query import WholeQueryEvaluator


class EBasicEvaluator(WholeQueryEvaluator):
    """Evaluate each *distinct* source query once (the paper's ``e-basic``).

    The whole-query core's defaults: the per-distinct-plan grouping, no
    sharing between the distinct queries.
    """

    name = "e-basic"
