"""Unit tests for the benchmark harness."""

import pytest

from repro.bench.harness import (
    DEFAULT_METHODS,
    ExperimentPoint,
    ExperimentSeries,
    mb_to_scale,
    point_from_result,
    run_engines,
    run_method,
    run_methods,
    run_session,
    run_workload,
    sweep_mapping_count,
    sweep_queries,
)
from repro.workloads import paper_query


class TestScaleCalibration:
    def test_linear_in_paper_mb(self):
        assert mb_to_scale(100, calibration=0.04) == pytest.approx(0.04)
        assert mb_to_scale(50, calibration=0.04) == pytest.approx(0.02)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            mb_to_scale(0)


class TestExperimentSeries:
    def build(self):
        series = ExperimentSeries(title="demo", x_label="x")
        series.add(ExperimentPoint("a", 1, 0.5, 10, 2, 3))
        series.add(ExperimentPoint("b", 1, 0.7, 20, 4, 3))
        series.add(ExperimentPoint("a", 2, 1.5, 30, 6, 3))
        return series

    def test_methods_and_x_values(self):
        series = self.build()
        assert series.methods() == ["a", "b"]
        assert series.x_values() == [1, 2]

    def test_value_lookup(self):
        series = self.build()
        assert series.value("a", 2) == 1.5
        assert series.value("a", 1, metric="source_operators") == 10
        with pytest.raises(KeyError):
            series.value("c", 1)

    def test_as_rows_fills_missing_with_none(self):
        rows = self.build().as_rows()
        assert rows == [[1, 0.5, 0.7], [2, 1.5, None]]

    def test_details_metric_lookup(self):
        series = ExperimentSeries(title="demo", x_label="x")
        series.add(ExperimentPoint("a", 1, 0.5, 10, 2, 3, details={"partitions": 4}))
        assert series.value("a", 1, metric="partitions") == 4


class TestRunners:
    def test_run_method_produces_point(self, excel_scenario):
        query = paper_query("Q1", excel_scenario.target_schema)
        point = run_method("q-sharing", query, excel_scenario, x="Q1")
        assert point.method == "q-sharing"
        assert point.x == "Q1"
        assert point.seconds >= 0
        assert point.source_operators > 0

    def test_run_methods_covers_all(self, excel_scenario):
        query = paper_query("Q1", excel_scenario.target_schema)
        points = run_methods(["e-basic", "o-sharing"], query, excel_scenario)
        assert [point.method for point in points] == ["e-basic", "o-sharing"]

    def test_run_engines_adds_engine_dimension(self, excel_scenario):
        query = paper_query("Q1", excel_scenario.target_schema)
        points = run_engines(["e-basic"], ["row", "columnar"], query, excel_scenario, x=1)
        assert [point.method for point in points] == ["e-basic@row", "e-basic@columnar"]
        assert [point.details["engine"] for point in points] == ["row", "columnar"]
        # Same work on both engines; only the wall clock may differ.
        assert points[0].source_operators == points[1].source_operators
        assert points[0].answers == points[1].answers

    def test_run_method_forwards_engine_option(self, excel_scenario):
        query = paper_query("Q1", excel_scenario.target_schema)
        point = run_method("e-basic", query, excel_scenario, engine="row")
        assert point.details["engine"] == "row"

    def test_point_from_result_uses_phase_time_by_default(self, excel_scenario):
        from repro import connect

        query = paper_query("Q1", excel_scenario.target_schema)
        with connect(excel_scenario, method="q-sharing") as session:
            result = session.query(query)
        point = point_from_result(result, x=1)
        assert point.method == "q-sharing"
        assert point.seconds == pytest.approx(result.elapsed_seconds)

    def test_sweep_mapping_count(self, excel_scenario):
        query = paper_query("Q1", excel_scenario.target_schema)
        series = sweep_mapping_count(["q-sharing"], query, excel_scenario, [4, 8])
        assert series.x_values() == [4, 8]
        assert len(series.points) == 2

    def test_sweep_queries(self, scenarios):
        series = sweep_queries(["q-sharing"], ["Q1", "Q6"], scenarios)
        assert series.x_values() == ["Q1", "Q6"]

    def test_sweep_database_size_regenerates_instances(self, excel_scenario):
        from repro.bench.harness import sweep_database_size
        from repro.workloads import paper_query

        series = sweep_database_size(
            ["q-sharing"],
            lambda sized: paper_query("Q1", sized.target_schema),
            excel_scenario,
            [50, 100],
            calibration=0.02,
        )
        assert series.x_values() == [50, 100]
        assert series.x_label == "database size (MB)"
        # The larger instance does at least as much row work.
        assert series.value("q-sharing", 100, "source_operators") >= 1

    def test_points_carry_reformulation_counts(self, excel_scenario):
        from repro.workloads import paper_query

        query = paper_query("Q1", excel_scenario.target_schema)
        point = run_method("e-basic", query, excel_scenario)
        assert point.reformulations == excel_scenario.h

    def test_run_workload_measures_batch_point(self, excel_scenario):
        queries = [
            paper_query(qid, excel_scenario.target_schema) for qid in ("Q1", "Q2", "Q1")
        ]
        point = run_workload(queries, excel_scenario, x="workload")
        assert point.method == "batch"
        assert point.source_queries > 0
        assert point.details["queries"] == 3
        assert point.details["distinct_target_queries"] == 2
        assert "plan_cache" in point.details

    def test_run_session_reports_one_point_per_pass(self, excel_scenario):
        queries = [
            paper_query(qid, excel_scenario.target_schema) for qid in ("Q1", "Q2")
        ] * 3
        points = run_session(queries, excel_scenario, passes=2, x="reuse")
        assert [point.method for point in points] == ["session[1]", "session[2]"]
        warm = points[1]
        # The warm pass runs on the session's persistent plan cache.
        assert warm.details["plan_cache_hits"] > 0
        assert warm.source_operators < points[0].source_operators
        assert warm.details["session"]["workloads"] == 2

    def test_run_session_rejects_nonpositive_passes(self, excel_scenario):
        with pytest.raises(ValueError, match="passes"):
            run_session([], excel_scenario, passes=0)

    def test_default_methods_constant(self):
        assert DEFAULT_METHODS == ("e-basic", "q-sharing", "o-sharing")
