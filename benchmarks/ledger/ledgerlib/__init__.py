"""The performance ledger: one layered benchmark for this repository.

``workloads``  the four workload definitions and the objects that run them
``phases``     the untraced run: set-up, cold, warm, verify, end-to-end metrics
``layers``     the traced run: benchmark-owned spans, layer drill, per-layer metrics
``report``     registered metric names (``BENCHMARK.json``), ``env`` block, output

Everything here measures the system from outside, through its public API;
nothing under ``src/`` knows this directory exists.
"""
