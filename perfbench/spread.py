#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each end-to-end metric's
quartiles and spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) against its
bound in BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/spread.py --workload steady_dispatch --seeds 1-10
    python3 perfbench/spread.py --workload fleet_churn --seeds 1-5 --markdown

A run that reports ``correct: false`` is listed with its failures; its
metrics still enter the table so that a failing workload's steadiness
can be judged too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"seed {seed}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--markdown", action="store_true")
    opts = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"] if opts.trace == 0 else bench["per_layer"]
    values = {m["name"]: [] for m in metrics}
    for seed in parse_seeds(opts.seeds):
        context, result = run(bench["command"], opts.workload, seed, bench["run_seconds"], opts.trace)
        status = "ok" if result["correct"] else "FAILED: " + "; ".join(context.get("failures", []))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        shown = " ".join(f"{name}={xs[-1]:.6g}" for name, xs in values.items()) if opts.trace == 0 else ""
        print(f"# seed {seed}: nproc {context.get('nproc')} shards {context.get('shards', 1)} "
              f"reps {context.get('reps', 1)} {status} {shown}", flush=True)

    print(f"# {opts.workload}: {len(values[metrics[0]['name']])} seeds, nproc {os.cpu_count()}")
    if opts.markdown:
        print("| metric | unit | q1 | median | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
    for m in metrics:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        bound = m.get("bound")
        verdict = "" if bound is None else ("ok" if spread <= bound / 3 else "WIDE")
        if opts.markdown:
            print(f"| {m['name']} | {m['unit']} | {q1:.6g} | {med:.6g} | {q3:.6g} | {spread:.4f} | "
                  f"{'' if bound is None else bound} |")
        else:
            print(f"{m['name']:>24} q1 {q1:<12.6g} median {med:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} bound {bound} {verdict}")


if __name__ == "__main__":
    main()
