#!/usr/bin/env python3
"""DVMS benchmark: builds the driver from source and runs one workload.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload fig2_drag --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --all --seed 1 --seconds 20   # every workload
  python3 perfbench/run.py --self-test                    # helper tests

The driver (perfbench/CMakeLists.txt) is configured and built in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, and every run
works in a scratch directory below it that is removed afterwards. Each
workload runs in its own process. Standard output carries the driver's
"name value unit" lines and, last, one JSON object with "correct",
"attempted", "failed" and "metrics": the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1 (0 for
a layer the workload does not exercise). The driver refuses to run while a
DVMS_* environment variable is set.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig2_drag", "fig1_brush", "routed_read")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found next to perfbench/ (src/CMakeLists.txt)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = os.path.join(build_root(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", target])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out


def select_metrics(workload, reported, trace):
    """The BENCHMARK.json metrics of this mode, in its order. A per-layer
    metric of a layer the workload does not exercise reads 0; per-layer
    metrics BENCHMARK.json does not list (fig2_drag's own views) stay in
    the driver's printed lines only."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        wanted = json.load(f)["per_layer" if trace else "end_to_end"]
    selected = {}
    for m in wanted:
        got = reported.get(m["name"])
        if got is None and not trace:
            fail("%s: driver did not report %s" % (workload, m["name"]))
        if got is not None and got["unit"] != m["unit"]:
            fail("%s: %s is in %s, BENCHMARK.json says %s"
                 % (workload, m["name"], got["unit"], m["unit"]))
        selected[m["name"]] = got or {"value": 0, "unit": m["unit"]}
    return selected


def run_workload(driver, workload, seed, seconds, trace):
    """Runs the driver once; returns (exit code, stdout lines)."""
    base = build_root()
    work = os.path.join(base, "perfbench-work",
                        "%s-%d" % (workload, os.getpid()))
    args = [driver, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--work-dir", work]
    if trace:
        spans = os.path.join(base, "perfbench-traces")
        os.makedirs(spans, exist_ok=True)
        name = "%s-seed%d.spans.jsonl" % (workload, seed)
        args += ["--spans-out", os.path.join(spans, name)]
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=900)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload, 5)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper tests")
    args = parser.parse_args()

    if args.self_test:
        out = build("perfbench_tests")
        tests = os.path.join(out, "perfbench_tests")
        sys.exit(subprocess.run([tests]).returncode)
    if args.all == (args.workload is not None):
        fail("give exactly one of --workload NAME and --all")

    driver = os.path.join(build("perfbench_driver"), "perfbench_driver")
    for workload in WORKLOADS if args.all else (args.workload,):
        code, lines = run_workload(driver, workload, args.seed, args.seconds,
                                   args.trace == 1)
        if code != 0 or not lines:
            fail("%s: driver exited with code %d" % (workload, code), code or 4)
        result = json.loads(lines[-1])
        result["metrics"] = select_metrics(workload, result["metrics"],
                                           args.trace == 1)
        if args.all:
            print("== %s (seed %d)" % (workload, args.seed))
        print("\n".join(lines[:-1]))
        if not args.all:
            print(json.dumps(result))


if __name__ == "__main__":
    main()
