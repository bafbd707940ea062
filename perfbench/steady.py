#!/usr/bin/env python3
"""Steadiness report: runs one workload repeatedly and summarizes each metric.

  python3 perfbench/steady.py --workload fig1_brush --runs 10 --vary-seeds
  python3 perfbench/steady.py --workload fig2_drag --runs 5 --seed 3
  python3 perfbench/steady.py --workload routed_read --runs 3 --trace 1

Each run is `perfbench/run.py` in its own process. For every metric the
report prints the median, the quartiles (statistics.quantiles, n=4), the
interquartile range and (max - min) as shares of the median, and flags:

  SPREAD     an end-to-end metric (--trace 0) whose runs disagree by more
             than a tenth: (max - min) / median > 0.10;
  OVER-BOUND an end-to-end metric whose IQR / median exceeds its
             BENCHMARK.json bound (setup_s is exempt);
  NOT-EXACT  a count (any unit but a time, a rate or a percentage; not
             peak RSS or the checkpoint share of the tail) that differs
             between runs of one seed;
  INCORRECT  a run whose output checks failed.

With --vary-seeds run i uses seed + i, so counts are not compared. The exit
code is 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEASURED_UNITS = {"ms", "s", "us", "1/s", "%"}
# Ratios and sizes that follow from timings or the allocator, not counts.
MEASURED_NAMES = {"peak_rss_mb", "durability.checkpoint_tail_frac"}


def is_count(name, unit):
    return unit not in MEASURED_UNITS and name not in MEASURED_NAMES


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(lines[-1]), time.monotonic() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seeds", action="store_true")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seeds else args.seed
        result, wall = run_once(args.workload, seed, seconds, args.trace)
        results.append(result)
        print("run %d seed %d: correct=%s attempted=%d failed=%d (%.1f s)"
              % (i + 1, seed, result["correct"], result["attempted"],
                 result["failed"], wall), flush=True)

    flagged = 0 if all(r["correct"] for r in results) else 1
    if flagged:
        print("INCORRECT: a run failed its output checks")
    seeds = ("seeds %d.." if args.vary_seeds else "seed %d") % args.seed
    print("\n%s, %d runs, %s, --seconds %d, --trace %d"
          % (args.workload, args.runs, seeds, seconds, args.trace))
    print("%-30s %12s %12s %12s %8s %8s %8s  %s"
          % ("metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound",
             "flags"))
    for name, first in results[0]["metrics"].items():
        unit = first["unit"]
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(values) - min(values)) / med if med else 0.0
        flags = []
        if is_count(name, unit):
            if not args.vary_seeds and len(set(values)) > 1:
                flags.append("NOT-EXACT")
        elif args.trace == 0:
            if rng > 0.10:
                flags.append("SPREAD")
            if name in bounds and name != "setup_s" and iqr > bounds[name]:
                flags.append("OVER-BOUND")
        flagged += bool(flags)
        print("%-30s %12.6g %12.6g %12.6g %8.3f %8.3f %8s  %s"
              % (name, med, q1, q3, iqr, rng,
                 bounds.get(name, "") if args.trace == 0 else "",
                 " ".join(flags)))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
