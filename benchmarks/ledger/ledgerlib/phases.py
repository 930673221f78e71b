"""The untraced run: set-up, cold, warm, verify -> the end-to-end metrics.

Run shape (identical for every workload, one process per workload):

1. *set-up* - imports, ``build_scenario`` per scenario, open sessions or
   start the server and connect the clients.  Timed from process start, in
   this process and in ``SETUP_SAMPLES - 1`` fresh child processes.
2. *cold* - at least ``COLD_PASSES`` times (more while they are cheap): fresh
   database, fresh sessions/server, time the first pass over the script with
   every op once.  The matcher's memo stays warm, so a cold pass is cold for
   data-dependent state only.
3. *warm* - one untimed warm-up round, ``gc.collect()``, then whole timed
   rounds until ``--seconds`` have passed (at least ``MIN_ROUNDS``).
4. *verify* - untimed; every op logged in 2 and 3 is checked.

Tracing is off throughout; ``layers.traced_run`` is the separate traced run.

Every timed sample (set-up, cold pass, round) is taken on two clocks, wall and
process CPU.  The machine is a guest that loses its CPUs to other guests in
bursts, and a sample that lost time that way shows it as wall-clock the
process did not spend on a CPU; ``undisturbed`` keeps the samples whose share
of such time is close to the smallest of the run.  All metrics are wall-clock.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import subprocess
import sys
from collections import Counter, defaultdict
from statistics import median
from time import perf_counter, process_time

from ledgerlib.workloads import Reference, WorkloadSpec, open_workload

SETUP_SAMPLES = 3
COLD_PASSES = 5
#: Cheap cold passes (served_mixed: 40 ms) repeat until they have used this
#: much time, so that their median is as steady as an expensive pass's.
COLD_BUDGET_S = 1.5
COLD_PASSES_MAX = 15
MIN_ROUNDS = 3
#: A sample is undisturbed when the share of its wall-clock that was not spent
#: on a CPU exceeds the run's smallest such share by at most this much.
GAP_TOLERANCE = 0.03


def undisturbed(samples: list, at_least: int) -> list:
    """The ``(wall, cpu, ...)`` samples that did not lose their CPU for long.

    On a quiet machine that is all of them (the shares differ by under 1 %).
    When fewer than ``at_least`` qualify, the ``at_least`` least disturbed are
    kept: a run always reports, and its sample counts say what it rests on.
    """
    def idle_share(sample):
        wall, cpu = sample[:2]
        return max(wall - cpu, 0.0) / wall  # threads can make cpu exceed wall

    ranked = sorted(samples, key=idle_share)
    limit = idle_share(ranked[0]) + GAP_TOLERANCE
    kept = [sample for sample in ranked if idle_share(sample) <= limit]
    return kept if len(kept) >= at_least else ranked[:at_least]


def timed_rounds(workload, seconds: float, min_rounds: int = MIN_ROUNDS):
    """Whole rounds until ``seconds`` have passed.

    Returns the undisturbed rounds, each as (wall, cpu, op timings, log
    entries), and the (wall, cpu) of every round that ran.
    """
    rounds, elapsed = [], 0.0
    while len(rounds) < min_rounds or elapsed < seconds:
        # Untimed: every round starts from the same collector state, so the
        # collections that fall inside a round fall on the same ops each time
        # (o-sharing Q4 alone: +-3.5 % without this, +-1.2 % with it).
        gc.collect()
        logged = len(workload.log)
        cpu = process_time()
        wall, timings = workload.run_round("timed")
        rounds.append((wall, process_time() - cpu, timings, workload.log[logged:]))
        elapsed += wall
    return undisturbed(rounds, min_rounds), [round_[:2] for round_ in rounds]


def setup_in_child(run_py: str, spec: WorkloadSpec, seed: int) -> tuple[float, float]:
    """Phase 1 in a fresh interpreter; the child reports its own (wall, cpu)."""
    command = [sys.executable, run_py, "--workload", spec.name, "--seed", str(seed),
               "--setup-probe"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    reported = json.loads(done.stdout.splitlines()[-1])
    return reported["setup_s"], reported["cpu_s"]


def op_table(timings) -> dict:
    """Per op type: n, p50, min, max (milliseconds) - the diagnostic table."""
    by_label = defaultdict(list)
    for label, seconds in timings:
        by_label[label].append(seconds * 1e3)
    return {
        label: {"n": len(ms), "p50_ms": median(ms), "min_ms": min(ms), "max_ms": max(ms)}
        for label, ms in by_label.items()
    }


def untraced_run(spec: WorkloadSpec, seed: int, seconds: float, process_started: float,
                 run_py: str, quick: bool = False, corrupt: bool = False) -> dict:
    cold_logs, cold, errors = [], [], {}
    with open_workload(spec, seed) as workload:
        setups = [(perf_counter() - process_started, process_time())]
        for _ in range(0 if quick else SETUP_SAMPLES - 1):
            setups.append(setup_in_child(run_py, spec, seed))

        least, most = (1, 1) if quick else (COLD_PASSES, COLD_PASSES_MAX)
        cold_started = perf_counter()
        while len(cold) < least or (
            len(cold) < most and perf_counter() - cold_started < COLD_BUDGET_S
        ):
            gc.collect()
            with open_workload(spec, seed) as instance:
                cpu = process_time()
                wall, _ = instance.run_round("cold", once=True)
                cold.append((wall, process_time() - cpu))
            # Only the log outlives the pass: an instance kept for verify would
            # be the benchmark's memory inside peak_rss_mb.
            cold_logs.append(instance.log)
            errors.update(instance.errors)

        workload.run_round("warmup")
        rounds, all_rounds = timed_rounds(workload, seconds, 1 if quick else MIN_ROUNDS)
        # Before verify: the row-engine reference is the benchmark's memory, not
        # the system's.  ru_maxrss is in KiB on Linux.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        shed = workload.shed

    reference = Reference(workload.scenarios, corrupt)
    entries = []
    for log in (workload.log, *cold_logs):
        workload.verify(log, reference)
        entries.extend(log)
    failed_ops = Counter(e["label"] for e in entries if e["failed"])
    walls = [wall for wall, _, _, _ in rounds]
    timings = [timing for _, _, timings, _ in rounds for timing in timings]
    timed_failed = sum(e["failed"] for _, _, _, logged in rounds for e in logged)

    setup_walls = [wall for wall, _ in undisturbed(setups, min(2, len(setups)))]
    cold_walls = [wall for wall, _ in undisturbed(cold, min(3, len(cold)))]
    ops = op_table(timings)
    # Write requests over the wire are 0.25 ms of work and 0-5 ms of waiting
    # for the other tenant's turn at the interpreter lock; their latency does
    # not repeat (op_geomean_ms spread over ten seeds: 9.7 % with them, 2.3 %
    # without).  They count in every other metric and stay in the table.
    medians = [row["p50_ms"] for label, row in ops.items()
               if label not in workload.write_labels]
    metrics = {
        "setup_s": (median(setup_walls), len(setup_walls)),
        "cold_round_s": (median(cold_walls), len(cold_walls)),
        "round_p50_s": (median(walls), len(walls)),
        "ops_per_s": ((len(timings) - timed_failed) / sum(walls), len(timings)),
        "op_geomean_ms": (math.exp(sum(map(math.log, medians)) / len(medians)), len(medians)),
        "op_worst_p50_ms": (max(medians), len(medians)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    return {
        "attempted": len(entries),
        "failed": sum(failed_ops.values()),
        "failed_ops": dict(failed_ops),
        "failed_share": sum(failed_ops.values()) / len(entries),
        "metrics": metrics,
        "ops": ops,
        "samples": {"setup_s": setup_walls, "cold_round_s": cold_walls, "round_s": walls},
        # every (wall, cpu) taken, kept or not
        "samples_taken": {"setup_s": setups, "cold_round_s": cold, "round_s": all_rounds},
        "callers": workload.callers,
        "shed": shed,
        "errors": {**errors, **workload.errors},
    }
