"""Registered metric names, the ``env`` block, and how results are written.

``BENCHMARK.json`` at the repository root is the one list of metric names,
units, directions and bounds; nothing here repeats it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parents[1]
ROOT = LEDGER_DIR.parents[1]
DEFAULT_OUT = LEDGER_DIR / "out"


def load_registry() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def definition_hash(spec, registry: dict) -> str:
    """Changes whenever the work a workload does, or a metric's name, changes."""
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in registry[kind]]
    text = json.dumps([spec.definition(), names], sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def env_block() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": commit,
    }


def registered_metrics(result: dict, registry: dict, trace: bool) -> dict:
    """name -> {value, unit, n} for every metric registered for this kind of run.

    A registered metric the run did not produce (its layer is gone, say) is
    reported as 0 with a note - never as a crash.
    """
    produced = result["metrics"]
    metrics = {}
    for entry in registry["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name in produced:
            value, samples = produced[name]
        else:
            value, samples = 0.0, 0
            result.setdefault("notes", []).append(
                f"{name}: not produced by this run (reported as 0)")
        metrics[name] = {"value": value, "unit": entry["unit"], "n": samples}
    return metrics


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']:6s} n={metric['n']}")


def driver_line(result: dict) -> str:
    """The one JSON object the benchmark contract wants as the last line."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    })


def result_path(out_dir: Path, workload: str, trace: bool) -> Path:
    return out_dir / f"{workload}.{'layers' if trace else 'e2e'}.json"


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n",
                    encoding="utf-8")
