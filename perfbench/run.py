#!/usr/bin/env python3
"""Builds and runs the crowdselect benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The library is built from source
with the repository's own CMakeLists into .bench_build/, then the
perfbench binary runs one workload. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where the
metrics are BENCHMARK.json's end_to_end list (--trace 0) or its per_layer
list (--trace 1). Per-layer metrics a workload does not exercise read 0.
Lines before it are the human-readable report, with sample counts.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
LIB_BUILD = os.path.join(BUILD, "crowdselect")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def step(cmd):
    """Runs a build command with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build():
    if not os.path.exists(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", ROOT, "-B", LIB_BUILD,
              "-DCMAKE_BUILD_TYPE=Release",
              "-DCROWDSELECT_BUILD_TESTS=OFF",
              "-DCROWDSELECT_BUILD_BENCHMARKS=OFF",
              "-DCROWDSELECT_BUILD_EXAMPLES=OFF"])
    step(["cmake", "--build", LIB_BUILD, "--target", "cs_datagen", "-j", JOBS])
    if not os.path.exists(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
              BENCH_BUILD, "-DCMAKE_BUILD_TYPE=Release",
              "-DCROWDSELECT_ROOT=" + ROOT,
              "-DCROWDSELECT_LIB_DIR=" + os.path.join(LIB_BUILD, "src")])
    step(["cmake", "--build", BENCH_BUILD, "-j", JOBS])
    return os.path.join(BENCH_BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("build failed: %s" % e)
    work_dir = os.path.join(BUILD, "run", "%s-%d" % (args.workload,
                                                     os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, args.workload + ".spans.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench exited with %d" % proc.returncode)
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    measured = report["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                sys.exit("end-to-end metric %s not measured" % m["name"])
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
            continue
        if got["unit"] != m["unit"]:
            sys.exit("metric %s measured in %s, declared in %s" %
                     (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
