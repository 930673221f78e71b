"""Compare two ledger sets: ``python benchmarks/ledger/compare.py OLD.json NEW.json``.

A set is what ``run.py --repeat N --set-name NAME`` writes.  For every workload
x end-to-end metric the direction and bound of ``BENCHMARK.json`` are applied
to the two sets' medians:

``ok``          NEW is not worse than OLD by more than the bound
``worse``       it is (exit status 1)
``unresolved``  either set's own spread (quartile distance / median over its
                runs) exceeds the bound, so the sets cannot tell

Every ratio is printed with its base.  Sets measured on different machines
(cores, Python, NumPy) or with different workload definitions are refused
unless ``--force``.  Count-valued per-layer metrics are compared for exact
equality and listed when they differ (a count may legitimately change when the
code does; between two sets of one commit it may not).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

from ledgerlib import report

COUNT_UNITS = ("count", "rows", "bytes")


def spread(values: list[float]) -> float | None:
    """Quartile distance over median; ``None`` when one run cannot tell."""
    if len(values) < 2:
        return None
    first, _, third = quantiles(values, n=4)
    return (third - first) / median(values)


def metric_values(runs: list, workload: str, kind: str, name: str) -> list[float]:
    return [run[workload][kind]["metrics"][name]["value"]
            for run in runs if kind in run.get(workload, {})]


def mismatches(old: dict, new: dict) -> list[str]:
    """Why the two sets must not be compared (empty: they may be)."""
    problems = [
        f"env.{key}: {old['env'].get(key)!r} vs {new['env'].get(key)!r}"
        for key in ("cores", "python", "numpy")
        if old["env"].get(key) != new["env"].get(key)
    ]
    for workload, kinds in old["runs"][0].items():
        for kind, result in kinds.items():
            other = new["runs"][0].get(workload, {}).get(kind)
            if other and other["definition_hash"] != result["definition_hash"]:
                problems.append(f"{workload}/{kind}: workload definition hash differs")
    return problems


def compare(old: dict, new: dict, registry: dict) -> int:
    worse = 0
    print(f"{'workload':15s} {'metric':16s} {'old':>11s} {'new':>11s} "
          f"{'new/old':>8s} {'spread old/new':>15s} {'bound':>6s}  verdict")
    for workload in old["runs"][0]:
        for entry in registry["end_to_end"]:
            a = metric_values(old["runs"], workload, "end_to_end", entry["name"])
            b = metric_values(new["runs"], workload, "end_to_end", entry["name"])
            if not a or not b:
                continue
            base, now = median(a), median(b)
            change = (now - base) / base if entry["better"] == "lower" else (base - now) / base
            spreads = [spread(a), spread(b)]
            if any(s is not None and s > entry["bound"] for s in spreads):
                verdict = "unresolved"
            elif change > entry["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            shown = "/".join("n=1" if s is None else f"{s:.3f}" for s in spreads)
            print(f"{workload:15s} {entry['name']:16s} {base:11.4f} {now:11.4f} "
                  f"{now / base:8.3f} {shown:>15s} {entry['bound']:6.2f}  {verdict} "
                  f"(base {base:.4g} {entry['unit']}, {entry['better']} is better)")
        shares = [
            median(run[workload]["end_to_end"]["failed_share"] for run in runs["runs"])
            for runs in (old, new)
        ]
        verdict = "worse" if shares[1] > shares[0] else "ok"
        worse += verdict == "worse"
        print(f"{workload:15s} {'failed_share':16s} {shares[0]:11.4f} {shares[1]:11.4f} "
              f"{'':8s} {'':>15s} {'any':>6s}  {verdict}")

    differing = []
    compared = 0
    for workload in old["runs"][0]:
        for entry in registry["per_layer"]:
            if entry["unit"] not in COUNT_UNITS:
                continue
            values = {
                value
                for runs in (old, new)
                for value in metric_values(runs["runs"], workload, "per_layer", entry["name"])
            }
            if values:
                compared += 1
                if len(values) > 1:
                    differing.append(f"{workload} {entry['name']}: {sorted(values)}")
    print(f"\nper-layer counts: {compared - len(differing)} of {compared} identical "
          "across every run of both sets")
    for line in differing:
        print(f"  differs: {line}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--force", action="store_true",
                        help="compare even across machines or workload definitions")
    args = parser.parse_args(argv)
    old, new = (json.loads(path.read_text(encoding="utf-8")) for path in (args.old, args.new))
    problems = mismatches(old, new)
    if problems:
        for problem in problems:
            print(f"not comparable: {problem}", file=sys.stderr)
        if not args.force:
            return 2
    return compare(old, new, report.load_registry())


if __name__ == "__main__":
    sys.exit(main())
