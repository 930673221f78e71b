"""Unit tests for the shared BENCH_*.json perf-artifact serializer."""

from __future__ import annotations

import json

from repro.obs import REPO_ROOT, SCHEMA_VERSION, write_bench_artifact


class TestWriteBenchArtifact:
    def test_envelope_and_file_shape(self, tmp_path):
        path = write_bench_artifact(
            "smoke", {"series": [{"x": 1}], "gates": {"ok": True}}, root=tmp_path
        )
        assert path == tmp_path / "BENCH_smoke.json"
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        document = json.loads(text)
        assert document["benchmark"] == "smoke"
        assert document["schema"] == SCHEMA_VERSION
        assert document["series"] == [{"x": 1}]
        assert document["gates"] == {"ok": True}

    def test_payload_cannot_shadow_envelope(self, tmp_path):
        path = write_bench_artifact(
            "smoke", {"benchmark": "spoof", "schema": 99, "x": 1}, root=tmp_path
        )
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["benchmark"] == "smoke"
        assert document["schema"] == SCHEMA_VERSION
        assert document["x"] == 1

    def test_non_json_values_coerced(self, tmp_path):
        path = write_bench_artifact(
            "smoke",
            {"workload": {"counts": (1, 2, 3), "tags": {"a"}, "path": REPO_ROOT}},
            root=tmp_path,
        )
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["workload"]["counts"] == [1, 2, 3]
        assert document["workload"]["tags"] == [str(t) for t in {"a"}]
        assert document["workload"]["path"] == str(REPO_ROOT)

    def test_no_timestamps_in_envelope(self, tmp_path):
        # Two writes of the same payload must produce identical bytes — the
        # artifacts are meant to diff cleanly across runs.
        first = write_bench_artifact("a", {"x": 1}, root=tmp_path).read_bytes()
        second = write_bench_artifact("a", {"x": 1}, root=tmp_path).read_bytes()
        assert first == second

    def test_default_root_is_repo_root(self):
        assert (REPO_ROOT / "src" / "repro" / "obs" / "artifacts.py").exists()

