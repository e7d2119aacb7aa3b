#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

    python3 perfbench/run.py --workload imm-wc --seed 1 --seconds 15 --trace 0

Run from the repository root. The first call configures and builds the
imbench library plus the driver into .bench_build/ (pinned build type,
RelWithDebInfo); later calls only re-check the build. The driver's output
is passed through, followed by a metric table (name, value, unit, better)
and, as the last line, the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics and writes the span log to .bench_build/spans/. Exits
non-zero without a result line when the build, the run or the result's
shape fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
PINNED_BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the driver (both no-ops when up to date);
    build logs go to stderr."""
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
         "-DCMAKE_BUILD_TYPE=" + PINNED_BUILD_TYPE],
        ["cmake", "--build", CMAKE_DIR, "--target", "perfbench", "-j", "3"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    a result came from when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected = expected_metrics(args.trace)
    build()

    data_dir = os.path.join(BUILD_DIR, "data")
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [
        BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
        "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
        "--data-dir=" + data_dir,
        "--git-commit=" + git_commit(), "--source-digest=" + source_digest(),
    ]
    if args.trace:
        command.append("--spans-out=" + os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed)))
    try:
        run = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail("driver exited with code %d" % run.returncode)

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last driver line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(result))
    names = [m["name"] for m in expected]
    if sorted(result["metrics"]) != sorted(names):
        fail("result metrics %s differ from BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(names)))

    for line in lines[:-1]:
        print(line)
    print("%-30s %16s  %-6s %s" % ("metric", "value", "unit", "better"))
    for m in expected:
        value = result["metrics"][m["name"]]
        print("%-30s %16.6g  %-6s %s" % (m["name"], value["value"],
                                          value["unit"], m["better"]))
    print(lines[-1])


if __name__ == "__main__":
    main()
