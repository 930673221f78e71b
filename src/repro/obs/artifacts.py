"""Machine-readable perf artifacts: ``BENCH_<name>.json`` at the repo root.

Both claims runners (``benchmarks/paper/run.py`` and
``benchmarks/system/run.py``) write their measured series through one
serializer so the repo keeps an honest, diffable perf trajectory.  The
envelope is deliberately boring and stable::

    {
      "benchmark": "<name>",
      "schema": 1,
      ...benchmark-specific sections...
    }

No timestamps, hostnames or environment digests land in the payload: two
runs of the same code on the same inputs should produce a clean diff, and
the interesting deltas are the measured numbers themselves.  Wall-clock
values *are* included (they are the point of a perf artifact) — consumers
diffing across machines should read the deterministic counters (operators,
rows, cache hits) as the gating signal, exactly as CI does.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

__all__ = [
    "REPO_ROOT",
    "SCHEMA_VERSION",
    "write_bench_artifact",
]

#: The repository root (``src/repro/obs/`` is three levels below it).
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Bump when the envelope shape changes incompatibly.
SCHEMA_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Recursively coerce ``value`` into plain JSON types (str fallback)."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(item) for item in value]
    return str(value)


def write_bench_artifact(
    name: str, payload: dict[str, Any], root: Path | str | None = None
) -> Path:
    """Write ``BENCH_<name>.json`` under ``root`` (repo root by default).

    ``payload`` supplies the benchmark-specific sections; the envelope keys
    (``benchmark``, ``schema``) are added here so every artifact is
    self-describing.  Returns the written path.
    """
    target = Path(root) if root is not None else REPO_ROOT
    document: dict[str, Any] = {"benchmark": name, "schema": SCHEMA_VERSION}
    for key, value in payload.items():
        if key not in ("benchmark", "schema"):
            document[key] = _jsonable(value)
    path = target / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return path

