"""Session observability: span trees, the metrics registry, slow-query log.

The tentpole pins of the unified tracing + metrics subsystem at the public
surface:

* ``policy.trace=True`` gives the session a :class:`~repro.obs.Tracer` whose
  root spans mirror the serving calls (``session.query`` →
  ``phase:*`` → ``optimize`` → ``op:*`` with rows and plan-cache events;
  a u-trace's rewritten target plan as a ``target-rewrite`` event);
* ``session.metrics()`` is a :class:`~repro.obs.metrics.MetricsSnapshot`
  of the session registry (per-stage latency histograms, cache hit/patch
  counters, pool queue depth — the counter series read through to the
  engine's own counts) that renders to JSON and Prometheus text;
* ``trace``/``metrics`` are session-construction state — per-call attempts
  to toggle them are rejected, not silently ignored;
* ``serve()`` times every request and feeds the bounded slow-query log;
* concurrent ``query()``/``query_many()`` merges into the lifetime totals
  are torn-read free (the satellite-2 race pin).
"""

from __future__ import annotations

import json
import logging
import threading

import pytest

from repro import ExecutionPolicy, Session
from repro.datagen.paper_example import build_paper_example


def _answers(result):
    return dict(result.answers.items())


@pytest.fixture()
def example():
    return build_paper_example()


def _session(example, **policy_fields):
    return Session(
        example.database,
        example.mappings,
        links=example.links,
        policy=ExecutionPolicy(**policy_fields),
    )


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #
class TestSessionTracing:
    def test_tracing_disabled_by_default(self, example):
        with _session(example) as s:
            assert s.tracer is None
            s.query(example.q0())  # runs fine without a tracer

    def test_query_builds_a_span_tree(self, example):
        with _session(example, trace=True, method="e-basic") as s:
            s.query(example.q0())
            assert len(s.tracer) == 1
            root = s.tracer.roots[0]
        assert root.name == "session.query"
        assert root.attributes["method"] == "e-basic"
        assert root.attributes["engine"] == "columnar"
        names = [span.name for span in root.walk()]
        assert any(name.startswith("phase:") for name in names)
        assert any(name.startswith("op:") for name in names)

    @pytest.mark.parametrize("method", ["e-basic", "q-sharing"])
    def test_operator_spans_carry_engine_and_rows(self, example, method):
        with _session(example, trace=True, method=method) as s:
            s.query(example.q0())
            root = s.tracer.roots[0]
        op_spans = [
            span for span in root.walk() if span.name.startswith("op:")
        ]
        assert op_spans
        for span in op_spans:
            assert span.attributes["engine"] == "columnar"
            assert span.attributes["rows_out"] >= 0
        # The ambient operator-count events land on their op spans — all of
        # them: an executor built without the session's shared state would
        # leave them on the enclosing phase span.
        homes = [
            span.name
            for span in root.walk()
            for event in span.events
            if event["name"] == "operator"
        ]
        assert homes and all(name.startswith("op:") for name in homes)

    def test_plan_cache_events_flip_from_miss_to_hit(self, example):
        def cache_outcomes(root):
            return [
                event["outcome"]
                for span in root.walk()
                for event in span.events
                if event["name"] == "plan-cache"
            ]

        workload = [example.q0(), example.q2()]
        with _session(example, trace=True) as s:
            s.query_many(workload)
            s.query_many(workload)
            cold, warm = s.tracer.roots
        assert "miss" in cache_outcomes(cold)
        assert "hit" in cache_outcomes(warm)
        assert "miss" not in cache_outcomes(warm)

    @pytest.mark.parametrize("method", ["e-basic", "q-sharing"])
    def test_optimize_span_present_when_optimizing(self, example, method):
        with _session(example, trace=True, method=method) as s:
            s.query(example.q0())
            root = s.tracer.roots[0]
        assert root.find("optimize") is not None

    def test_target_rewrite_event_on_the_rewriting_phase(self, example):
        from repro.core.target_query import push_selections
        from repro.relational.algebra import Product, Scan, Select
        from repro.relational.expressions import col
        from repro.relational.predicates import Equals

        pushable = example.query(
            Select(Product(Scan("Person"), Scan("Order")), Equals(col("Person.addr"), "hk"))
        )

        def rewrites(root):
            return [
                (span.name, event)
                for span in root.walk()
                for event in span.events
                if event["name"] == "target-rewrite"
            ]

        with _session(example, trace=True) as s:
            s.query(pushable)
            s.query(example.q0())  # no selection over a product: nothing moves
            s.query(pushable, optimize=False)  # the paper's plan is traced as written
            pushed, unchanged, paper = s.tracer.roots
        ((home, event),) = rewrites(pushed)
        assert home == "phase:rewriting"
        assert event["before"] == pushable.plan.canonical()
        assert event["after"] == push_selections(pushable).plan.canonical()
        assert event["after"] != event["before"]
        assert rewrites(unchanged) == rewrites(paper) == []

    def test_workload_root_span(self, example):
        with _session(example, trace=True) as s:
            s.query_many([example.q0(), example.q2()])
            root = s.tracer.roots[0]
        assert root.name == "session.workload"
        assert root.attributes["queries"] == 2

    def test_top_k_root_span(self, example):
        with _session(example, trace=True) as s:
            s.top_k(example.q0(), k=2)
            root = s.tracer.roots[0]
        assert root.name == "session.top_k"
        assert root.attributes["k"] == 2

    def test_parallel_engine_records_pool_and_kernel_fanout(self):
        from repro.datagen.scenario import build_scenario
        from repro.relational.parallel import ParallelConfig
        from repro.workloads import paper_query

        scenario = build_scenario(target="Excel", h=8, scale=0.01, seed=3)
        query = paper_query("Q1", scenario.target_schema)
        with Session(
            scenario.database,
            scenario.mappings,
            links=scenario.links,
            policy=ExecutionPolicy(
                trace=True,
                method="e-basic",
                engine="parallel",
                parallel=ParallelConfig(workers=2, min_partition_rows=0),
            ),
        ) as s:
            s.query(query)
            root = s.tracer.roots[0]
        events = {}
        for span in root.walk():
            for event in span.events:
                events.setdefault(event["name"], []).append(event)
        # Forced sharding must record the kernel fan-out decisions and the
        # pool dispatches they schedule (morsel/worker counts).
        assert "kernel" in events, sorted(events)
        assert all(event["kernel"] for event in events["kernel"])
        assert "pool" in events, sorted(events)
        assert all(event["workers"] >= 1 for event in events["pool"])

    def test_exporters_cover_the_session_trace(self, example):
        with _session(example, trace=True) as s:
            s.query(example.q0())
            jsonl = s.tracer.export_jsonl()
            chrome = json.loads(s.tracer.chrome_trace())
        spans = [json.loads(line) for line in jsonl.splitlines()]
        assert spans[0]["name"] == "session.query"
        assert spans[0]["parent"] is None
        assert chrome["traceEvents"][0]["name"] == "session.query"

    def test_trace_override_rejected_per_call(self, example):
        with _session(example) as s:
            with pytest.raises(ValueError, match="trace wires the session-owned"):
                s.query(example.q0(), trace=True)
        with _session(example, trace=True) as s:
            with pytest.raises(ValueError, match="trace wires the session-owned"):
                s.query(example.q0(), trace=False)
            # Restating the session's own value is allowed (a no-op).
            s.query(example.q0(), trace=True)

    def test_metrics_override_rejected_per_call(self, example):
        with _session(example) as s:
            with pytest.raises(ValueError, match="metrics wires the session-owned"):
                s.query(example.q0(), metrics=False)
            s.query(example.q0(), metrics=True)  # no-op restatement


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
class TestSessionMetrics:
    def test_metrics_cover_stages_cache_and_pools(self, example):
        with _session(example, method="e-basic") as s:
            s.query(example.q2())
            s.query(example.q2())
            snapshot = s.metrics()
        assert snapshot.enabled is True
        # Per-stage latency histograms, one series per execution phase.
        stages = snapshot.data["repro_stage_seconds"]["series"]
        assert {series["labels"]["stage"] for series in stages} >= {
            "rewriting",
            "evaluation",
            "aggregation",
        }
        assert all(series["count"] >= 1 for series in stages)
        # Cache hit/miss counters read the plan-cache stats.
        cache = s.plan_cache.stats_snapshot()
        assert (
            snapshot.value("repro_plan_cache_lookups_total", {"outcome": "hit"})
            == cache["hits"]
        )
        assert (
            snapshot.value("repro_plan_cache_lookups_total", {"outcome": "miss"})
            == cache["misses"]
        )
        assert snapshot.value("repro_plan_cache_entries") == cache["entries"]
        assert snapshot.value("repro_operators_saved_total") == cache["operators_saved"]
        # Engine totals read the session lifetime totals.
        assert snapshot.value("repro_queries_total") == 2
        assert (
            snapshot.value("repro_source_operators_total")
            == s.stats.source_operators
        )
        # Pool gauges exist even while no pool has started.
        assert snapshot.value("repro_pool_queue_depth") == 0
        assert snapshot.value("repro_pools_started") == 0

    def test_call_latency_histograms_by_kind(self, example):
        with _session(example) as s:
            s.query(example.q0())
            s.query_many([example.q0(), example.q2()])
            snapshot = s.metrics()
        series = {
            entry["labels"]["kind"]: entry
            for entry in snapshot.data["repro_call_seconds"]["series"]
        }
        assert series["query"]["count"] == 1
        assert series["workload"]["count"] == 1
        assert snapshot.value("repro_workloads_total") == 1

    def test_snapshot_is_point_in_time(self, example):
        with _session(example) as s:
            s.query(example.q0())
            before = s.metrics()
            s.query(example.q0())
            after = s.metrics()
        assert before.value("repro_queries_total") == 1
        assert after.value("repro_queries_total") == 2

    def test_renders_json_and_prometheus(self, example):
        with _session(example) as s:
            s.query(example.q0())
            snapshot = s.metrics()
        document = json.loads(snapshot.to_json())
        assert document["enabled"] is True
        assert "repro_stage_seconds" in document["metrics"]
        text = snapshot.to_prometheus()
        assert "# TYPE repro_stage_seconds histogram" in text
        assert "repro_queries_total 1" in text

    def test_disabled_metrics_snapshot_is_empty(self, example):
        with _session(example, metrics=False) as s:
            s.query(example.q0())
            snapshot = s.metrics()
        assert snapshot.enabled is False
        assert snapshot.data == {}
        assert snapshot.to_prometheus() == ""

    def test_registry_is_never_stale_between_metrics_calls(self, example):
        """Every series is live: no ``metrics()`` call has to sync anything."""
        with _session(example, method="e-mqo") as s:
            s.query(example.q2())
            s.query_many([example.q0(), example.q2()])
            customer = s.database.relation("Customer")
            s.database.append_rows("Customer", [customer.rows[0]])
            s.query(example.q2())
            direct = s.metrics_registry.snapshot()
            assert direct.value("repro_source_operators_total") == s.stats.source_operators
            assert direct.value("repro_plan_cache_patches_total") == s.stats.entries_patched
            assert direct.to_prometheus() == s.metrics().to_prometheus()

    def test_write_invalidation_reaches_the_metrics(self, example):
        with _session(example, method="e-basic") as s:
            s.query(example.q2())
            relation = example.database.relation_names[0]
            s.database.set_relation(relation, s.database.relation(relation))
            snapshot = s.metrics()
        assert snapshot.value("repro_plan_cache_invalidations_total") >= 0
        assert (
            snapshot.value("repro_plan_cache_invalidations_total")
            == s.plan_cache.stats_snapshot()["invalidations"]
        )


# --------------------------------------------------------------------------- #
# serve(): per-request timing + slow-query log
# --------------------------------------------------------------------------- #
class TestServeObservability:
    def test_serve_times_every_request(self, example):
        with _session(example) as s:
            list(s.serve([example.q0(), example.q2(), example.q0()]))
            snapshot = s.metrics()
        assert snapshot.value("repro_request_seconds")["count"] == 3

    def test_slow_query_log_flags_threshold_crossers(self, example, caplog):
        # Threshold of 1ns: every request is slow.
        with _session(example, slow_query_seconds=1e-9) as s:
            with caplog.at_level(logging.WARNING, logger="repro.session"):
                list(s.serve([example.q0(), example.q2()]))
            snapshot = s.metrics()
            slow = list(s.slow_queries)
        assert len(slow) == 2
        assert slow[0]["query"] == example.q0().name
        assert slow[0]["seconds"] > 0
        assert slow[0]["threshold"] == 1e-9
        assert snapshot.value("repro_slow_queries_total") == 2
        assert sum("slow query" in record.message for record in caplog.records) == 2

    def test_fast_queries_not_flagged(self, example):
        with _session(example, slow_query_seconds=3600.0) as s:
            list(s.serve([example.q0()]))
        assert list(s.slow_queries) == []

    def test_no_threshold_means_no_log(self, example):
        with _session(example) as s:
            assert s.policy.slow_query_seconds is None
            list(s.serve([example.q0()]))
        assert list(s.slow_queries) == []

    def test_slow_query_log_is_bounded(self, example):
        with _session(example, slow_query_seconds=1e-9) as s:
            assert s.slow_queries.maxlen == 128

    def test_slow_query_seconds_override_per_session_only(self, example):
        # slow_query_seconds is read from the session policy by serve();
        # as a plain policy field it also validates eagerly.
        with pytest.raises(ValueError, match="slow_query_seconds"):
            ExecutionPolicy(slow_query_seconds=-1)


# --------------------------------------------------------------------------- #
# satellite 2: lifetime totals under concurrency (torn-read pin)
# --------------------------------------------------------------------------- #
class TestConcurrentStatsAggregation:
    def test_concurrent_merges_pin_exact_totals(self, example):
        """N threads × M calls: the final totals are exactly N×M serial sums.

        Lifetime totals merge under the session lock; this pins that no
        concurrent ``query()``/``query_many()`` merge is lost or doubled.
        """
        threads_n, rounds = 4, 3
        with _session(example, method="e-basic") as serial:
            for _ in range(threads_n * rounds):
                serial.query(example.q0())
            for _ in range(threads_n * rounds):
                serial.query_many([example.q2()])
            expected = serial.stats

        with _session(example, method="e-basic") as s:
            errors = []

            def work():
                try:
                    for _ in range(rounds):
                        s.query(example.q0())
                        s.query_many([example.q2()])
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=work) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            concurrent = s.stats

        assert concurrent.queries == threads_n * rounds == expected.queries
        assert concurrent.workloads == threads_n * rounds == expected.workloads
        assert concurrent.source_operators == expected.source_operators
        assert concurrent.totals.source_queries == expected.totals.source_queries
        assert concurrent.totals.rows_scanned == expected.totals.rows_scanned
        assert concurrent.totals.reformulations == expected.totals.reformulations

    def test_snapshots_never_observe_torn_merges(self, example):
        """A reader thread hammering ``stats``/``metrics()`` during writes
        must only ever observe consistent (query, source_queries) states."""
        stop = threading.Event()
        torn = []

        with _session(example, method="e-basic") as s:
            baseline = None

            def read():
                while not stop.is_set():
                    snap = s.stats
                    # Each e-basic q0 call contributes the same number of
                    # source queries; a torn merge would show a remainder.
                    if baseline and snap.queries:
                        expected = baseline * snap.queries
                        observed = snap.totals.source_queries
                        if observed not in (
                            expected,
                            # the merge of the in-flight call may have landed
                            # before its query-count increment (both guarded,
                            # sequential under one lock acquisition)
                            baseline * (snap.queries + 1),
                        ):
                            torn.append((snap.queries, observed))

            s.query(example.q0())
            baseline = s.stats.totals.source_queries
            reader = threading.Thread(target=read)
            reader.start()
            try:
                for _ in range(30):
                    s.query(example.q0())
            finally:
                stop.set()
                reader.join()

        assert not torn, f"torn stats snapshots observed: {torn[:5]}"


# --------------------------------------------------------------------------- #
# explain(analyze=True)
# --------------------------------------------------------------------------- #
class TestExplainAnalyze:
    def test_analyze_reports_measured_wall_clock(self, example):
        with _session(example) as s:
            text = s.explain(example.q2(), analyze=True)
        assert "== execution" in text
        assert "actual" in text
        assert " ms" in text
        assert "total time:" in text

    def test_plain_explain_has_no_timings(self, example):
        with _session(example) as s:
            text = s.explain(example.q2())
        assert "total time:" not in text

    def test_analyze_answers_match_plain_run(self, example):
        # analyze only adds timing annotations; the executed plan and its
        # rendered rows stay the same.
        with _session(example) as s:
            analyzed = s.explain(example.q2(), analyze=True)
            plain = s.explain(example.q2())
        strip = lambda text: [
            line.split(", ")[0]
            for line in text.splitlines()
            if "actual" in line
        ]
        assert strip(analyzed) == strip(plain)


# --------------------------------------------------------------------------- #
# read-through pool queue depth (the serving front end's saturation signal)
# --------------------------------------------------------------------------- #
class TestQueueDepthGauge:
    def test_gauge_reads_live_depth_between_metrics_calls(self, example):
        """A direct registry snapshot observes a queued kernel.

        ``repro_pool_queue_depth`` used to be sampled only inside
        ``Session.metrics()``: any collector snapshotting the registry
        between ``metrics()`` calls (the serving front end's ``/metrics``
        scrape does exactly that) read a stale depth.  The gauge is now
        registered with a read-through callback, so collection time *is*
        sampling time — this test never calls ``metrics()`` at all.
        """
        from repro.relational.parallel.pool import ROLE_MORSEL

        with _session(example) as s:
            release = threading.Event()
            running = threading.Event()

            def occupy():
                running.set()
                release.wait(timeout=30)

            # One worker: the first task occupies it, the second must queue.
            pool = s.pools.thread_pool(1, role=ROLE_MORSEL)
            try:
                pool.submit(occupy)
                assert running.wait(timeout=30)
                queued = pool.submit(lambda: None)
                snapshot = s.metrics_registry.snapshot()
                assert snapshot.value("repro_pool_queue_depth") >= 1
            finally:
                release.set()
            queued.result(timeout=30)
            # Drained: the same gauge reads the emptied queue live.
            assert s.metrics_registry.snapshot().value("repro_pool_queue_depth") == 0

    def test_metrics_snapshot_still_reports_depth_zero_when_idle(self, example):
        with _session(example) as s:
            s.query(example.q0())
            assert s.metrics().value("repro_pool_queue_depth") == 0

    def test_depth_gauge_survives_session_close(self, example):
        # close() shuts the pools down; the callback must fall back instead
        # of failing the scrape.
        s = _session(example)
        s.query(example.q0())
        s.close()
        snapshot = s.metrics_registry.snapshot()
        assert snapshot.value("repro_pool_queue_depth") >= 0
