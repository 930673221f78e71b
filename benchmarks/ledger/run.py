"""The performance ledger: run one workload, or all four, and print every metric.

One workload, one process (this is the command ``BENCHMARK.json`` names)::

    python3 benchmarks/ledger/run.py --workload default_policy --seed 1 \
        --seconds 8 --trace 0        # end-to-end metrics, tracing off
    python3 benchmarks/ledger/run.py --workload default_policy --seed 1 \
        --seconds 8 --trace 1        # per-layer metrics + span file

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the registered ``metrics`` of that kind of run.

Without ``--workload`` every workload runs, each in a fresh subprocess (so
``peak_rss_mb`` and caches do not leak between workloads), untraced and
traced; ``--repeat N`` does that N times and writes the set ``compare.py``
reads.  ``--quick`` shrinks every scenario for smoke tests.
"""

from __future__ import annotations

from time import perf_counter, process_time

PROCESS_STARTED = perf_counter()  # set-up is timed from here, imports included

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

try:
    from ledgerlib import report
    from ledgerlib.workloads import WORKLOADS, open_workload
except ImportError as error:  # no src/ next to the benchmark: nothing to measure
    print(f"ledger: cannot import the system under test: {error}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed phase (default: run_seconds "
                        "of BENCHMARK.json; 0.2 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end run, 1: traced per-layer run "
                        "(default: 0 for one workload, both for all)")
    parser.add_argument("--quick", action="store_true", help="tiny scenarios")
    parser.add_argument("--repeat", type=int, default=1,
                        help="complete sets of runs (all-workloads mode)")
    parser.add_argument("--out", type=Path, default=report.DEFAULT_OUT,
                        help="directory for result, span and set files")
    parser.add_argument("--set-name", default="ledger",
                        help="the set is written to <out>/<set-name>.json")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: verify against a wrong reference, so "
                        "that every checked op must be reported as failed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace, registry: dict) -> dict:
    """One workload in this process; returns the result written to ``--out``."""
    spec = WORKLOADS[args.workload]
    if args.quick:
        spec = spec.quick()
    trace = bool(args.trace)
    if trace:
        from ledgerlib.layers import traced_run

        result = traced_run(spec, args.seed, args.seconds,
                            args.out / f"trace-{spec.name}.jsonl", args.quick)
    else:
        from ledgerlib.phases import untraced_run

        result = untraced_run(spec, args.seed, args.seconds, PROCESS_STARTED,
                              str(Path(__file__).resolve()), args.quick,
                              args.corrupt_reference)
    metrics = report.registered_metrics(result, registry, trace)
    result.update(
        workload=spec.name, why=spec.why, trace=int(trace), seed=args.seed,
        seconds=args.seconds, quick=args.quick, metrics=metrics,
        env=report.env_block(), definition_hash=report.definition_hash(spec, registry),
    )
    report.write_json(report.result_path(args.out, spec.name, trace), result)
    return result


def print_result(result: dict) -> None:
    kind = "per-layer (traced run)" if result["trace"] else "end-to-end (tracing off)"
    print(f"== {result['workload']}: {kind}, seed {result['seed']}, "
          f"{result['seconds']} s timed")
    print(f"   load: {result['callers']}")
    if "samples_taken" in result:
        kept = ", ".join(f"{len(result['samples'][name])} of {len(taken)} {name}"
                         for name, taken in result["samples_taken"].items())
        print(f"   undisturbed samples kept (the rest lost their CPU to other guests): {kept}")
    report.print_metrics("   metrics:", result["metrics"])
    print(f"   ops: attempted {result['attempted']}, failed {result['failed']}"
          + (f" (failed_share {result['failed_share']:.4f})" if "failed_share" in result else ""))
    for label, count in sorted(result["failed_ops"].items()):
        print(f"   FAILED {label}: {count}")
    for label, row in result.get("ops", {}).items():
        print(f"   op {label:28s} n={row['n']:<5d} p50 {row['p50_ms']:10.3f} ms  "
              f"min {row['min_ms']:10.3f}  max {row['max_ms']:10.3f}")
    if result["trace"]:
        print("   counts (units count, rows, bytes) are taken over exactly one round or "
              "drill: for a fixed seed\n   they repeat exactly on the in-process workloads")
    for note in result.get("notes", []):
        print(f"   note: {note}")


def run_all(args: argparse.Namespace, registry: dict) -> int:
    """Every workload x {untraced, traced} x ``--repeat``, one subprocess each."""
    traces = (0, 1) if args.trace is None else (args.trace,)
    runs = []
    started = perf_counter()
    for repeat in range(args.repeat):
        run: dict = {}
        for name in WORKLOADS:
            for trace in traces:
                command = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(trace),
                           "--out", str(args.out)]
                command += ["--quick"] if args.quick else []
                command += ["--corrupt-reference"] if args.corrupt_reference else []
                done = subprocess.run(command, capture_output=True, text=True)
                if done.returncode != 0:
                    print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
                    return done.returncode
                print("\n".join(done.stdout.splitlines()[:-1]))
                result = json.loads(
                    report.result_path(args.out, name, bool(trace)).read_text())
                run.setdefault(name, {})["per_layer" if trace else "end_to_end"] = result
        runs.append(run)
        print(f"-- set {args.set_name}: run {repeat + 1}/{args.repeat} done, "
              f"{perf_counter() - started:.0f} s so far")
    path = args.out / f"{args.set_name}.json"
    report.write_json(path, {"env": report.env_block(), "seed": args.seed,
                             "seconds": args.seconds, "quick": args.quick, "runs": runs})
    print_summary(runs, registry)
    print(f"set written to {path}")
    failed = sum(result["failed"] for run in runs for kinds in run.values()
                 for result in kinds.values())
    return 1 if failed else 0


def print_summary(runs: list, registry: dict) -> None:
    print("\n== end-to-end summary (median over runs; closed loop everywhere; "
          "timed phase fixed by --seconds, whole rounds)")
    header = f"{'metric':18s}" + "".join(f"{name:>18s}" for name in WORKLOADS)
    print(header)
    for entry in registry["end_to_end"]:
        cells = []
        for name in WORKLOADS:
            values = [run[name]["end_to_end"]["metrics"][entry["name"]]["value"]
                      for run in runs if "end_to_end" in run.get(name, {})]
            cells.append(f"{median(values):>18.4f}" if values else f"{'-':>18s}")
        print(f"{entry['name'] + ' ' + entry['unit']:18s}" + "".join(cells))


def main(argv=None) -> int:
    args = parse_args(argv)
    registry = report.load_registry()
    if args.seconds is None:
        args.seconds = 0.2 if args.quick else float(registry["run_seconds"])
    if args.setup_probe:  # phase 1 only, for the parent's setup_s median
        with open_workload(WORKLOADS[args.workload], args.seed):
            setup = {"setup_s": perf_counter() - PROCESS_STARTED, "cpu_s": process_time()}
        print(json.dumps(setup))
        return 0
    if args.workload is None:
        return run_all(args, registry)
    args.trace = args.trace or 0
    result = run_workload(args, registry)
    print_result(result)
    print(report.driver_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
