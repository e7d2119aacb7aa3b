#!/usr/bin/env python3
"""Steadiness report: is each end-to-end metric steady enough to judge a PR?

    python3 perfbench/steadiness.py --seeds 1-10 --sets 2 \
        --results .bench_build/steadiness.jsonl

Runs perfbench/run.py once per (set, workload, seed), untraced, appending
every result line to --results (--report-only reads that file instead of
running). For each workload and end-to-end metric it prints the median,
the quartiles (statistics.quantiles(values, n=4)) and the spread, the
inter-quartile distance as a share of the median, against the metric's
bound in BENCHMARK.json:

    steady   spread below a third of the bound (the target)
    within   spread within the bound (the acceptance limit)
    NOISY    spread above the bound

setup_s's spread is shown but not judged ("wide" when above the bound):
its bound guards the median shift only. With --sets 2 every metric also gets the shift of the
second set's median against the first's, in the metric's worse direction,
judged against the bound. The six (workload, metric) pairs that a
previous benchmark definition could not hold steady are listed again at
the end.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Pairs that moved 7-14% between two runs of identical code when each was
# a single sub-second interval timed once.
PREVIOUSLY_NOISY = [
    ("imm-wc", "setup_s"), ("timplus-lt", "setup_s"),
    ("imm-imgrf", "setup_s"), ("imm-wc", "evaluate_s"),
    ("serve-mix", "evaluate_s"), ("imm-wc", "select_s"),
]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_all(spec, workloads, seeds, sets, seconds, results_path):
    with open(results_path, "a") as out:
        for set_index in range(1, sets + 1):
            for workload in workloads:
                for seed in seeds:
                    proc = subprocess.run(
                        [sys.executable, os.path.join(ROOT, "perfbench/run.py"),
                         "--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", "0"],
                        cwd=ROOT, capture_output=True, text=True)
                    lines = proc.stdout.splitlines()
                    if proc.returncode != 0 or not lines:
                        sys.stderr.write(proc.stdout + proc.stderr)
                        sys.exit("run failed: %s seed %d" % (workload, seed))
                    record = {"set": set_index, "workload": workload,
                              "seed": seed, "result": json.loads(lines[-1])}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print("set %d %-11s seed %-3d correct=%s" % (
                        set_index, workload, seed,
                        record["result"]["correct"]), flush=True)


def spread_of(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def report(spec, records):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    by_key = {}
    failed_gates = 0
    for r in records:
        if not r["result"]["correct"]:
            failed_gates += 1
        for name, metric in r["result"]["metrics"].items():
            by_key.setdefault((r["workload"], name, r["set"]), []).append(
                metric["value"])
    verdicts = {}
    print("%-11s %-14s %4s %12s %12s %12s %8s %6s %-7s %s" % (
        "workload", "metric", "set", "q1", "median", "q3", "spread",
        "bound", "verdict", "shift"))
    for w in [x["name"] for x in spec["workloads"]]:
        for name, m in bounds.items():
            sets = sorted(s for (wk, n, s) in by_key if wk == w and n == name)
            medians = {}
            for s in sets:
                values = by_key[(w, name, s)]
                if len(values) < 2:
                    continue
                q1, q2, q3, spread = spread_of(values)
                medians[s] = q2
                if spread < m["bound"] / 3:
                    verdict = "steady"
                elif spread <= m["bound"]:
                    verdict = "within"
                else:
                    # setup_s's spread is shown but not judged.
                    verdict = "wide" if name == "setup_s" else "NOISY"
                shift = ""
                if s > 1 and 1 in medians:
                    worse = (q2 - medians[1]) / medians[1]
                    if m["better"] == "higher":
                        worse = -worse
                    shift = "%+.3f %s" % (worse, "ok" if worse <= m["bound"]
                                          else "WORSE")
                    if worse > m["bound"]:
                        verdict = "SHIFTED"
                verdicts.setdefault((w, name), []).append(verdict)
                print("%-11s %-14s %4d %12.6g %12.6g %12.6g %8.4f %6.3f "
                      "%-7s %s" % (w, name, s, q1, q2, q3, spread,
                                   m["bound"], verdict, shift))
    print("\npreviously noisy pairs:")
    for w, name in PREVIOUSLY_NOISY:
        print("  %-11s %-11s %s" % (w, name, ", ".join(
            verdicts.get((w, name), ["no data"]))))
    bad = [k for k, v in verdicts.items()
           if any(x in ("NOISY", "SHIFTED") for x in v)]
    print("\n%d runs, %d failed the correctness gate; %d metric/workload "
          "pairs out of bounds" % (len(records), failed_gates, len(bad)))
    return not bad and failed_gates == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="",
                        help="comma list (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seconds", type=float, default=0,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--results", default=os.path.join(
        ROOT, ".bench_build", "steadiness.jsonl"))
    parser.add_argument("--report-only", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    if not args.report_only:
        os.makedirs(os.path.dirname(os.path.abspath(args.results)),
                    exist_ok=True)
        run_all(spec, workloads, parse_seeds(args.seeds), args.sets,
                args.seconds or spec["run_seconds"], args.results)
    with open(args.results) as f:
        records = [json.loads(line) for line in f if line.strip()]
    records = [r for r in records if r["workload"] in workloads]
    sys.exit(0 if report(spec, records) else 1)


if __name__ == "__main__":
    main()
