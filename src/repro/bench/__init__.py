"""What the benchmark scripts and the differential tests share.

:func:`cold_query` answers one query on a fresh session (the paper's
per-figure setting) and :func:`format_table` renders a fixed-width result
table.  The paper's claims are checked by ``benchmarks/paper/run.py``.
"""

from repro.bench.harness import cold_query
from repro.bench.reporting import format_table

__all__ = ["cold_query", "format_table"]
