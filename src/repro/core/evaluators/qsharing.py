"""The *q-sharing* evaluator (Section IV, Algorithm 1 of the paper).

q-sharing avoids reformulating the target query once per mapping.  It first
*partitions* the mapping set on the target attributes the query uses — all
mappings of a partition produce the same source query — using the partition
tree of Algorithm 3.  One *representative* mapping per partition, carrying the
partition's total probability, is then evaluated the *basic* way, so the
target query is rewritten and executed only once per distinct source query.
"""

from __future__ import annotations

from repro.core.evaluators.whole_query import WholeQueryEvaluator, per_mapping
from repro.core.partition_tree import partition, represent


class QSharingEvaluator(WholeQueryEvaluator):
    """Partition the mappings, then evaluate one source query per partition."""

    name = "q-sharing"

    def source_queries(self, query, mappings, stats):
        partitions = partition(query.partition_keys, mappings)
        stats.count_partitions(len(partitions))
        # Step 3 of Algorithm 1: basic over the representative mappings.
        return per_mapping(query, represent(partitions), self.links, stats)

    def details(self, source_queries, stats):
        return {
            "partitions": stats.partitions_created,
            "representative_mappings": len(source_queries),
        }
