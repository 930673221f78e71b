"""The *basic* evaluator (Section III-B.1 of the paper).

For every possible mapping, the target query is reformulated into a source
query and executed against the source instance.  Every tuple obtained through
mapping ``m_i`` carries probability ``Pr(m_i)``; finally, duplicate answer
tuples obtained through different mappings have their probabilities summed.

This is the reference algorithm: everything else in the paper is an
optimisation that must return exactly the same probabilistic answer.
"""

from __future__ import annotations

from repro.core.evaluators.whole_query import WholeQueryEvaluator, per_mapping


class BasicEvaluator(WholeQueryEvaluator):
    """Evaluate the query once per possible mapping (the paper's ``basic``)."""

    name = "basic"

    def source_queries(self, query, mappings, stats):
        return per_mapping(query, mappings, self.links, stats)

    def details(self, source_queries, stats):
        return {"evaluated_source_queries": stats.source_queries}

    #: ``evaluate`` under the name that says any iterable of mappings will do,
    #: not only a :class:`~repro.matching.mappings.MappingSet`.
    evaluate_mappings = WholeQueryEvaluator.evaluate
