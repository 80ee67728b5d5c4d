#!/usr/bin/env python3
"""Benchmark of the ARPANET routing-metric simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call builds the library from src/ and the driver from perfbench/
into .bench_build/perfbench (Release). Every measurement is a fresh
single-threaded driver process running one whole scenario, so each sample
pays what a user pays for one run, page faults included.

--trace 0 runs whole scenarios until S seconds have passed (at least one),
adds set-up-only processes until there are MIN_SETUP_SAMPLES cold set-up
samples, and reports the end-to-end metrics in BENCHMARK.json: the slow
quartile of sim_s_per_s and scenario_s (see slow_quartile), the median of
peak_rss_mb, and the mean of the cold set-ups for setup_s. A fresh
process's set-up time is bimodal (the Network constructor is several times
slower in some processes than in others), so a median or quartile would
jump between the two modes from run to run.

--trace 1 alternates untraced and traced processes for S seconds (at least
one of each) and reports the per-layer metrics: span times and window
counters from the traced processes, the layer replays, and
obs.trace_overhead from the two kinds' median window times.

Every process checks its own output; a process that crashes, fails a check,
or prints a digest different from the run's first one counts as failed. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
SPANS_DIR = BUILD_DIR / "spans"
MIN_SETUP_SAMPLES = 5
# Measuring (everything after the build) must end within this many seconds.
RUN_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def drive(workload, seed, traced=False, setup_only=False, spans_path=None,
          timeout=RUN_LIMIT_S):
    """Runs one driver process; returns its record, or None if it failed."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0",
           "--setup-only", "1" if setup_only else "0"]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        print(f"perfbench: driver timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: driver exited {proc.returncode}: {proc.stderr.strip()}",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: driver printed no result", file=sys.stderr)
        return None
    record["text"] = lines[:-1]
    return record


class Tally:
    """Counts attempted and failed driver processes of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.limit = time.monotonic() + RUN_LIMIT_S

    def remaining(self):
        return self.limit - time.monotonic()

    def take(self, record, full=True):
        self.attempted += 1
        if record is None:
            self.failed += 1
            return None
        bad = list(record["failed_checks"])
        if full:
            if self.digest is None:
                self.digest = record["digest"]
                print(record["text"][0])
            elif record["digest"] != self.digest:
                bad.append(f"digest {record['digest']} != run's first {self.digest}")
        for message in bad:
            print(f"perfbench: check failed (seed {record['seed']}): {message}",
                  file=sys.stderr)
        if bad:
            self.failed += 1
            return None
        return record["values"]


def median_of(samples, name):
    return statistics.median(s[name] for s in samples)


def slow_quartile(samples, name, higher_is_better):
    """The quartile on the slow side: Q1 of a rate, Q3 of a time.

    Other guests' cache and memory traffic only ever slows a process down,
    and their quiet spells come and go within a run. The slow quartile
    follows the host's usual contended speed and moves less from run to run
    than the median, which a quiet spell over half a run drags along.
    """
    values = [s[name] for s in samples]
    if len(values) < 2:
        return values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1 if higher_is_better else q3


def untraced(args, tally):
    full = []
    deadline = time.monotonic() + args.seconds
    while True:
        values = tally.take(drive(args.workload, args.seed,
                                  timeout=tally.remaining()))
        if values is not None:
            full.append(values)
        if time.monotonic() >= deadline:
            break
    setups = [v["setup_s"] for v in full]
    while len(setups) < MIN_SETUP_SAMPLES and full:
        values = tally.take(drive(args.workload, args.seed, setup_only=True,
                                  timeout=tally.remaining()), full=False)
        if values is None:
            break
        setups.append(values["setup_s"])
    if not full:
        return {}
    print(f"samples: {len(full)} scenarios, {len(setups)} set-ups")
    for name in ("sim_s_per_s", "scenario_s", "peak_rss_mb"):
        print(name, " ".join(f"{v[name]:.6g}" for v in full))
    print("setup_s", " ".join(f"{s:.6g}" for s in setups))
    return {"sim_s_per_s": slow_quartile(full, "sim_s_per_s", True),
            "scenario_s": slow_quartile(full, "scenario_s", False),
            "peak_rss_mb": median_of(full, "peak_rss_mb"),
            "setup_s": statistics.fmean(setups)}


def traced(args, tally):
    plain, traced_runs = [], []
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + args.seconds
    while True:
        plain_values = tally.take(drive(args.workload, args.seed,
                                        timeout=tally.remaining()))
        if plain_values is not None:
            plain.append(plain_values)
        spans = SPANS_DIR / f"{args.workload}-seed{args.seed}-{len(traced_runs)}.json"
        record = drive(args.workload, args.seed, traced=True, spans_path=spans,
                       timeout=tally.remaining())
        traced_values = tally.take(record)
        if traced_values is not None:
            if not traced_runs:
                print("\n".join(record["text"][1:]))
            traced_runs.append(traced_values)
        if time.monotonic() >= deadline:
            break
    if not plain or not traced_runs:
        return {}
    print(f"samples: {len(plain)} untraced, {len(traced_runs)} traced")
    metrics = {name: median_of(traced_runs, name) for name in traced_runs[0]}
    # Window allocations are a property of the untraced program; a traced
    # window would also count any growth of the sink's stream.
    metrics["sim.window_alloc_bytes"] = max(v["sim.window_alloc_bytes"] for v in plain)
    metrics["obs.trace_overhead"] = (median_of(traced_runs, "sim.window_s")
                                     / median_of(plain, "sim.window_s") - 1.0)
    # Each replay beside the counts the window itself reported.
    for replay, window in (("routing.replay_incremental", "routing.spf_incremental"),
                           ("routing.replay_skipped", "routing.spf_skipped"),
                           ("routing.replay_nodes_touched", "routing.nodes_touched"),
                           ("sim.eq_hold_depth", "sim.eq_peak_depth")):
        print(f"replay {replay} = {metrics[replay]:.10g} | window {window} = "
              f"{metrics[window]:.10g}")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    build()

    tally = Tally()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = traced(args, tally) if args.trace else untraced(args, tally)
    metrics = {}
    for m in declared:
        if m["name"] not in measured:
            print(f"perfbench: metric {m['name']} not measured", file=sys.stderr)
            tally.failed = max(tally.failed, 1)
            continue
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
