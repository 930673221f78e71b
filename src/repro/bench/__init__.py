"""What the claims runners and the differential tests share.

:func:`cold_query` answers one query on a fresh session (the paper's
per-figure setting).  The paper's claims are checked by
``benchmarks/paper/run.py``, the system's by ``benchmarks/system/run.py``.
"""

from repro.bench.harness import cold_query

__all__ = ["cold_query"]
