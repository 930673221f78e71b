"""Unified observability: tracing, metrics and machine-readable perf artifacts.

Three zero-dependency pieces, threaded through the whole engine:

* :mod:`repro.obs.trace` — per-query span trees with JSONL and Chrome
  trace-event exporters, a thread-local ambient tracer for deep layers, and
  a strict no-op fast path when disabled;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters, gauges
  and bounded histograms, snapshot-able to JSON and Prometheus text format;
* :mod:`repro.obs.artifacts` — the ``BENCH_*.json`` serializer both claims
  runners (``benchmarks/paper/``, ``benchmarks/system/``) write through.

The pinned invariant (asserted by the differential harness and CI):
**instrumentation never changes answers or operator counts** — enabling
tracing and metrics is byte-identical to running without them, for every
evaluator on every engine.
"""

from repro.obs.artifacts import REPO_ROOT, SCHEMA_VERSION, write_bench_artifact
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.trace import Span, Tracer, activate, current_tracer

__all__ = [
    "Span",
    "Tracer",
    "activate",
    "current_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_LATENCY_BUCKETS",
    "REPO_ROOT",
    "SCHEMA_VERSION",
    "write_bench_artifact",
]
