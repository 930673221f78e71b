"""The system claims table is well formed, and the runner gates and reports it.

Runs in the tier-1 suite, without NumPy: only the end-to-end cases measure,
on the warm-writes row (the paper's running example, well under a second).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from paper.claims import OPS, PAPER, Gate, Term
from system import run
from system.claims import CLAIMS

IDS = [claim.id for claim in CLAIMS]


def test_claim_ids_are_unique():
    assert len(IDS) == len(set(IDS))


@pytest.mark.parametrize("claim", CLAIMS, ids=IDS)
def test_gates_name_recorded_methods_and_metrics(claim):
    assert claim.gates, "a claim without a gate checks nothing"
    assert claim.measure is not None
    for gate in claim.gates:
        assert gate.op in OPS
        for term in gate.terms():
            assert term.method in claim.methods, (gate, term.method)
            assert term.metric in claim.metrics, (gate, term.metric)
            assert term.config == PAPER
            if isinstance(term.at, tuple):
                assert set(term.at) <= set(claim.values)


def _cheap_claim():
    return next(claim for claim in CLAIMS if claim.id == "warm-writes")


def test_cheap_claim_runs_end_to_end(tmp_path):
    claim = _cheap_claim()
    assert run.main([claim], tmp_path) == 0
    document = json.loads((tmp_path / "BENCH_system.json").read_text(encoding="utf-8"))
    (row,) = document["claims"]
    assert row["id"] == claim.id
    assert all(gate["passed"] for gate in row["gates"])
    recorded = {(point["method"], point["x"]) for point in row["points"]}
    assert recorded == {(m, x) for m in claim.methods for x in claim.values}
    report = (tmp_path / "SYSTEM.md").read_text(encoding="utf-8")
    for section in ("## Setup", "## Results summary", "## Failed gates", f"### {claim.id}"):
        assert section in report


def test_false_gate_fails_the_run(tmp_path, capsys):
    claim = replace(
        _cheap_claim(),
        id="synthetic-false-gate",
        gates=(Gate(Term("warm", "source_operators"), "<", 0),),
    )
    assert run.main([claim], tmp_path) == 1
    assert "gates failed: synthetic-false-gate" in capsys.readouterr().out
    assert "**FAIL**" in (tmp_path / "SYSTEM.md").read_text(encoding="utf-8")
