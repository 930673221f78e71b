"""Smoke test of the ledger: every workload at tiny sizes, both kinds of run.

Checks the instrument, not the system's speed: every metric registered in
``BENCHMARK.json`` is produced with its unit, nothing fails, verification is
live, the span file links parents and shares ids, and ``compare.py`` gives the
verdicts it documents.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
sys.path.insert(0, str(LEDGER_DIR))


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"ledger_{name}", LEDGER_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ledger_run = _load("run")
ledger_compare = _load("compare")
REGISTRY = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in REGISTRY["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(out: Path, workload: str, trace: int, *extra: str) -> dict:
    args = ledger_run.parse_args(
        ["--workload", workload, "--quick", "--seconds", "0.1", "--trace", str(trace),
         "--out", str(out), *extra])
    return ledger_run.run_workload(args, REGISTRY)


@pytest.fixture(scope="module")
def out(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("ledger-out")


@pytest.fixture(scope="module")
def results(out) -> dict:
    return {(name, trace): _run(out, name, trace) for name in WORKLOADS for trace in (0, 1)}


def test_registry_is_within_the_contract():
    assert set(REGISTRY) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(REGISTRY["workloads"]) <= 4
    assert 1 <= len(REGISTRY["end_to_end"]) <= 16
    assert 1 <= len(REGISTRY["per_layer"]) <= 128
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for entry in REGISTRY[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert sorted(WORKLOADS) == sorted(ledger_run.WORKLOADS)
    assert all(0 < entry["bound"] <= 0.25 for entry in REGISTRY["end_to_end"])
    assert any(entry["name"] == "setup_s" and entry["unit"] == "s"
               for entry in REGISTRY["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_registered_metric_is_reported(results, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = results[workload, trace]
        assert result["failed"] == 0, result["failed_ops"]
        assert result["attempted"] >= 1
        assert not result.get("notes"), result["notes"]
        for entry in REGISTRY[kind]:
            metric = result["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert isinstance(metric["value"], (int, float)), entry["name"]
        line = json.loads(ledger_run.report.driver_line(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert set(line["metrics"]) == {entry["name"] for entry in REGISTRY[kind]}
    end_to_end = results[workload, 0]
    assert end_to_end["failed_share"] == 0
    assert all(m["value"] > 0 for m in end_to_end["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_file_links_parents_and_shares_ids(results, out, workload):
    assert (workload, 1) in results
    spans = [json.loads(line)
             for line in (out / f"trace-{workload}.jsonl").read_text().splitlines()]
    by_id = {span["id"]: span for span in spans}
    assert len(by_id) == len(spans)
    children = [span for span in spans if span["parent"] is not None]
    assert children
    for span in children:
        parent = by_id[span["parent"]]
        assert parent["start"] <= span["start"] + 1e-6
        assert span["end"] >= span["start"]
    # Every span of one drilled query carries that query's id.
    drills = [span for span in spans if span["name"] == "drill"]
    assert drills
    layers = set()
    for root in drills:
        family = [span for span in spans if span["parent"] == root["id"]]
        layers |= {span["name"] for span in family}
        assert {span["qid"] for span in family} == {root["qid"]}
    # (at twelve mappings some queries have no mapping that covers them, and
    # then nothing to optimize or execute - but not all of them)
    assert {"core.partition_tree", "core.reformulation", "relational.optimizer",
            "relational.executor", "core.answer"} <= layers
    # The sessions' own span trees are adopted under the round that ran them.
    assert any(span.get("source") == "repro.obs" for span in spans)


def test_verification_is_live(out):
    for workload in ("default_policy", "served_mixed"):
        result = _run(out / "corrupt", workload, 0, "--corrupt-reference")
        assert result["failed"] > 0
        assert result["failed_share"] > 0
        assert json.loads(
            ledger_run.report.driver_line(result))["correct"] is False


def test_counts_repeat_exactly_for_a_fixed_seed(results, out):
    again = _run(out / "again", "many_mappings", 1)
    first = results["many_mappings", 1]
    for entry in REGISTRY["per_layer"]:
        if entry["unit"] in ledger_compare.COUNT_UNITS:
            assert again["metrics"][entry["name"]]["value"] == \
                first["metrics"][entry["name"]]["value"], entry["name"]


def test_undisturbed_drops_samples_that_lost_their_cpu():
    from ledgerlib.phases import undisturbed

    quiet = [(1.00, 0.99), (1.02, 1.00), (0.98, 0.97)]
    stolen = [(1.60, 1.01), (3.00, 1.10)]
    assert sorted(undisturbed(quiet + stolen, 3)) == sorted(quiet)
    assert undisturbed(quiet, 3) == sorted(quiet, key=lambda s: (s[0] - s[1]) / s[0])
    # Fewer clean samples than asked for: the least disturbed fill up.
    assert undisturbed(quiet[:1] + stolen, 2) == [quiet[0], stolen[0]]


def test_command_line_contract(tmp_path):
    command = [sys.executable, *REGISTRY["command"][1:], "--workload", "optimizer_off",
               "--seed", "3", "--seconds", "0.1", "--trace", "0", "--quick",
               "--out", str(tmp_path)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {entry["name"] for entry in REGISTRY["end_to_end"]}
    assert all(set(metric) == {"value", "unit"} for metric in line["metrics"].values())


def test_without_the_system_under_test_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(LEDGER_DIR, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = [sys.executable, *REGISTRY["command"][1:], "--workload", "default_policy",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120, env={"PATH": ""})
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_compare_verdicts(results, tmp_path, capsys):
    run = {name: {"end_to_end": results[name, 0], "per_layer": results[name, 1]}
           for name in WORKLOADS}
    env = results[WORKLOADS[0], 0]["env"]
    old = {"env": env, "seed": 1, "runs": [copy.deepcopy(run) for _ in range(3)]}

    def write(name: str, payload: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(payload, default=str))
        return str(path)

    assert ledger_compare.main([write("old.json", old), write("same.json", old)]) == 0
    assert "unresolved" not in capsys.readouterr().out

    slower = copy.deepcopy(old)
    for one in slower["runs"]:
        one["default_policy"]["end_to_end"]["metrics"]["round_p50_s"]["value"] *= 2
    assert ledger_compare.main([write("old.json", old), write("slow.json", slower)]) == 1
    assert "worse" in capsys.readouterr().out

    noisy = copy.deepcopy(old)
    for factor, one in zip((1, 2, 4), noisy["runs"]):
        one["default_policy"]["end_to_end"]["metrics"]["round_p50_s"]["value"] *= factor
    assert ledger_compare.main([write("old.json", old), write("noisy.json", noisy)]) == 0
    assert "unresolved" in capsys.readouterr().out

    elsewhere = copy.deepcopy(old)
    elsewhere["env"] = {**env, "cores": (env["cores"] or 0) + 1}
    paths = [write("old.json", old), write("elsewhere.json", elsewhere)]
    assert ledger_compare.main(paths) == 2
    assert ledger_compare.main([*paths, "--force"]) == 0
