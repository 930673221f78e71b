"""The claims table is well formed, and the runner gates and reports it.

Runs in the tier-1 suite, without NumPy: only the two cheap end-to-end cases
evaluate queries (Excel, h=20, scale 0.01).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from paper import run
from paper.claims import AXES, CLAIMS, CONFIGS, OPS, Gate, Term, ordering_tiers

IDS = [claim.id for claim in CLAIMS]


def test_claim_ids_are_unique():
    assert len(IDS) == len(set(IDS))


@pytest.mark.parametrize("claim", CLAIMS, ids=IDS)
def test_gates_name_recorded_methods_and_metrics(claim):
    assert claim.gates, "a claim without a gate checks nothing"
    for gate in claim.gates:
        assert gate.op in OPS
        for term in gate.terms():
            assert term.method in claim.methods, (gate, term.method)
            assert term.metric in claim.metrics, (gate, term.metric)
            assert term.config in CONFIGS
            if isinstance(term.at, tuple):
                assert set(term.at) <= set(claim.values)


@pytest.mark.parametrize("claim", CLAIMS, ids=IDS)
def test_ordering_names_recorded_methods(claim):
    assert claim.axis in AXES
    named = [method for tier in ordering_tiers(claim.ordering) for method in tier]
    assert set(named) <= set(claim.methods)
    assert len(named) == len(set(named))
    if claim.ordering:
        assert {"seconds", "source_operators"} <= set(claim.metrics)


@pytest.mark.parametrize(
    "operators, seconds, expected",
    [
        # cheaper on both, at every point
        ({"a": [1, 2], "b": [2, 3]}, {"a": [0.1, 0.2], "b": [0.2, 0.3]}, run.HOLDS),
        # seconds lose at one point but win in total
        ({"a": [1, 2], "b": [2, 3]}, {"a": [0.3, 0.1], "b": [0.2, 0.3]}, run.TOTAL_ONLY),
        # operators lose at one point but win in total
        ({"a": [3, 1], "b": [2, 3]}, {"a": [0.1, 0.2], "b": [0.2, 0.3]}, run.TOTAL_ONLY),
        # Fig. 11(c)'s shape: fewer operators, more seconds
        ({"a": [64], "b": [80]}, {"a": [1.20], "b": [1.01]}, run.COUNTS_ONLY),
        ({"a": [5, 5], "b": [4, 4]}, {"a": [0.1, 0.1], "b": [0.2, 0.2]}, run.DOES_NOT_HOLD),
    ],
)
def test_verdicts(operators, seconds, expected):
    assert run.verdict("a <= b", operators, seconds) == expected


def test_ordering_tiers_order_only_across_tiers():
    assert run.ordering_pairs("a, b <= c") == [("a", "c"), ("b", "c")]
    operators = {"a": [1], "b": [2], "c": [3]}
    seconds = {"a": [0.2], "b": [0.1], "c": [0.3]}
    assert run.verdict("a, b <= c", operators, seconds) == run.HOLDS


class TestScaleCalibration:
    def test_linear_in_paper_mb(self):
        assert run.mb_to_scale(100) == pytest.approx(run.PAPER_MB_SCALE)
        assert run.mb_to_scale(50) == pytest.approx(run.PAPER_MB_SCALE / 2)
        assert run.mb_to_scale(20, calibration=0.03) == pytest.approx(0.006)

    @pytest.mark.parametrize("paper_mb", [0, -10])
    def test_rejects_non_positive(self, paper_mb):
        with pytest.raises(ValueError):
            run.mb_to_scale(paper_mb)


def _points(values: dict) -> dict:
    """A one-configuration points table from {(method, x): {metric: value}}."""
    return {config: values for config in CONFIGS}


class TestGates:
    claim = replace(CLAIMS[0], values=(1, 2, 3))
    points = _points({
        **{("Excel", x): {"o_ratio": r, "high": r > 0.7}
           for x, r in ((1, 0.9), (2, 0.8), (3, 0.6))},
        **{("Noris", x): {"o_ratio": r} for x, r in ((1, 0.5), (2, 0.9), (3, 0.7))},
    })

    @pytest.mark.parametrize(
        "gate, expected",
        [
            (Gate(Term("Excel", "o_ratio"), ">", 0.5), True),
            (Gate(Term("Excel", "o_ratio"), ">", 0.7), False),
            (Gate(Term("Excel", "o_ratio"), ">=", Term("Noris", "o_ratio"), share=0.5), True),
            (Gate(Term("Excel", "o_ratio", (1, 3)), ">", Term("Noris", "o_ratio", (1, 3))), False),
            (Gate(Term("Excel", "o_ratio", "spread"), "<", 0.25), False),
            (Gate(Term("Excel", "o_ratio", "growth"), "<=", 0.6, factor=1, offset=0.07), True),
            (Gate(Term("Noris", "o_ratio", "largest"), ">=",
                  Term("Noris", "o_ratio", "smallest"), factor=1.5), False),
            (Gate(Term("Excel", "o_ratio"), ">", 0.7, iff=Term("Excel", "high")), True),
            (Gate(Term("Excel", "o_ratio"), ">", 0.85, iff=Term("Excel", "high")), False),
        ],
    )
    def test_check(self, gate, expected):
        assert run.check(gate, self.claim, self.points) is expected


def _identity_claim():
    return next(claim for claim in CLAIMS if claim.id == "ablation-empty-prune-answers")


def test_cheap_claim_runs_end_to_end(tmp_path):
    claim = _identity_claim()
    assert run.main([claim], tmp_path) == 0
    document = json.loads((tmp_path / "BENCH_paper.json").read_text(encoding="utf-8"))
    (row,) = document["claims"]
    assert row["id"] == claim.id
    assert all(gate["passed"] for gate in row["gates"])
    assert set(row["points"]) == set(CONFIGS)
    point = row["points"]["paper-faithful"][0]
    assert point["source_operators"] > 0 and "answer" not in point
    report = (tmp_path / "REPRODUCTION.md").read_text(encoding="utf-8")
    for section in ("## Setup", "## Results summary", "## Key findings", f"### {claim.id}"):
        assert section in report


def test_false_gate_fails_the_run(tmp_path):
    claim = replace(
        _identity_claim(),
        id="synthetic-false-gate",
        gates=(Gate(Term("prune"), "<", 0),),
    )
    assert run.main([claim], tmp_path) == 1
    report = (tmp_path / "REPRODUCTION.md").read_text(encoding="utf-8")
    assert "**FAIL**" in report
