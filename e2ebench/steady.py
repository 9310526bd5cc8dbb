#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs each workload k times, each with another seed, through the command
in BENCHMARK.json, and prints for every end-to-end metric its median,
quartiles and spread (interquartile range over median) against the
metric's bound. A spread under a third of the bound is steady. Also
prints the share of failed operations per run, which must be the same
in every run, and the share of CPU time the host stole in each run.
Runs always use BENCHMARK.json's run_seconds.

    python3 e2ebench/steady.py --runs 10
    python3 e2ebench/steady.py --runs 5 --workload point_presets --seed0 100

Run from the repository root. Runs are sequential: the benchmark
measures the whole machine.
"""

import argparse
import json
import statistics
import subprocess
import sys


def steal_of(report):
    """The host's stolen CPU share from a run's report, or None."""
    for line in report:
        words = line.split()
        if "steal" in words:
            try:
                return float(words[words.index("steal") + 1])
            except (IndexError, ValueError):
                return None
    return None


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = [l for l in lines if l.startswith("#")]
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    worst = 0.0
    for workload in workloads:
        results = []
        for i in range(opts.runs):
            seed = opts.seed0 + i
            result = run_once(bench["command"], workload, seed, seconds)
            results.append(result)
            share = result["failed"] / result["attempted"]
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed share {share:.6f} "
                  f"steal {steal_of(result['report'])}", flush=True)
        print(f"\n{workload}: {opts.runs} runs of {seconds} s")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = spec["bound"]
            if name != "setup_s":
                worst = max(worst, spread / bound)
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "UNSTEADY")
            print(f"  {name:<16} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.4f} {bound:>6}  {verdict}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  failed shares: {sorted(shares)}")
        steals = [x for x in (steal_of(r["report"]) for r in results) if x is not None]
        unsteady = sum(any("UNSTEADY host" in l for l in r["report"]) for r in results)
        if steals:
            print(f"  steal: median {statistics.median(steals):.4f} max {max(steals):.4f}, "
                  f"{unsteady} of {len(results)} runs marked UNSTEADY host")
        print(flush=True)
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
