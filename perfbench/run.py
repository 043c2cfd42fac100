#!/usr/bin/env python3
"""Builds and runs the NchooseK benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run builds perfbench/ (and the libraries under src/ it links) into
.bench_build/ with CMake; later runs reuse that build. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json when --trace is 0, its
per-layer metrics when --trace is 1. Traced runs also write every span to
.bench_build/perfbench/spans/<workload>-<seed>.json. A workload whose entry in
workloads.json names omp_num_threads runs with OMP_NUM_THREADS set to it. Build
output goes to standard error. Any failure exits non-zero without printing a
result.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures and builds the benchmark; returns the binary path. Both
    steps are incremental, so runs after the first take about a second."""
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", BENCH_DIR, "-B", out_dir,
              "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
             ["cmake", "--build", out_dir, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    binary = os.path.join(out_dir, "nck_perfbench")
    if not os.path.exists(binary):
        fail("build produced no " + binary)
    return binary


def git_sha():
    """HEAD of the repository the benchmark sits in; "unknown" outside git."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def check_result(line, spec, traced):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not JSON: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    wanted = spec["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    if result["attempted"] < 1:
        fail("no operation was attempted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)

    with open(os.path.join(BENCH_DIR, "workloads.json")) as f:
        constants = json.load(f)["workloads"][args.workload]
    env = dict(os.environ)
    if "omp_num_threads" in constants:
        env["OMP_NUM_THREADS"] = str(constants["omp_num_threads"])

    out_dir = build_dir()
    binary = build(out_dir)
    command = [binary,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--config", os.path.join(BENCH_DIR, "workloads.json"),
               "--inputs", os.path.join(BENCH_DIR, "inputs"),
               "--git-sha", git_sha()]
    if args.trace == "1":
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, "%s-%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail("benchmark exited with %d" % run.returncode)
    lines = run.stdout.rstrip("\n").split("\n")
    check_result(lines[-1], spec, args.trace == "1")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
