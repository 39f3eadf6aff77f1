#!/usr/bin/env python3
"""Runs the benchmark once per seed and summarizes each metric.

For every workload it runs `bash perfbench/run.sh` with seeds
first..first+runs-1 and prints, per metric, the median, the first and
third quartile (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median. With --json FILE it also appends the summary, stamped
with the Go version, GOMAXPROCS and the CPU count, as a point to the
"points" list of FILE (perfbench/trajectory.json holds the record). Run
it from the repository root:

    python3 perfbench/sweep.py --runs 10 --workloads pingpong,lossy-payload
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(results):
    metrics = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        metrics[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="pingpong,umt-offload,bigscale-sharded,lossy-payload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="defaults to run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="append the summary to this trajectory file")
    ap.add_argument("--label", default="", help="names the measured tree in the trajectory point")
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]

    summary = {}
    for w in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = run_once(w, seed, seconds, args.trace)
            if not r["correct"] or r["failed"]:
                sys.exit(f"{w} seed {seed}: {r['failed']} of {r['attempted']} cells failed")
            results.append(r)
        summary[w] = summarize(results)
        print(f"== {w} ({args.runs} seeds from {args.first_seed}, {seconds}s runs)")
        for name, m in sorted(summary[w].items()):
            print(f"  {name:32s} median {m['median']:<14.6g} q1 {m['q1']:<14.6g} "
                  f"q3 {m['q3']:<14.6g} spread {m['spread']:.4f} {m['unit']}")
        sys.stdout.flush()

    if args.json:
        go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
        nproc = len(os.sched_getaffinity(0))
        point = {
            "label": args.label,
            "go_version": go,
            "gomaxprocs": int(os.environ.get("GOMAXPROCS", nproc)),
            "nproc": nproc,
            "runs": args.runs, "first_seed": args.first_seed, "seconds": seconds,
            "trace": args.trace, "workloads": summary,
        }
        record = {"points": []}
        if os.path.exists(args.json):
            with open(args.json) as f:
                record = json.load(f)
        record["points"].append(point)
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
