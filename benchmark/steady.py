#!/usr/bin/env python3
"""Steadiness report for the donorsense benchmark.

Runs every workload (or those given) back to back, once per seed, untraced,
and prints for each end-to-end metric its median, quartiles and the spread
(q3 - q1) / median as a share of the metric's bound in BENCHMARK.json:

    python3 benchmark/steady.py --runs 10
    python3 benchmark/steady.py --runs 5 --workloads paper-batch --first-seed 11

Run from the repository root. A spread at or above the bound fails; the
target is below a third of it. setup_s is reported but its spread is not
gated (only its median is compared between sets of runs).
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload, one seed each")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--out", default="", help="also write every run's result to this JSON file")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    raw = {}
    ok = True
    for w in names:
        results = []
        for i in range(opts.runs):
            seed = opts.first_seed + i
            res, wall = run_once(bench["command"], w, seed, bench["run_seconds"])
            results.append(res)
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()))
            print(f"{w} seed={seed} wall={wall:.1f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {vals}", flush=True)
            ok = ok and res["correct"] and res["failed"] == 0
        raw[w] = results
        print(f"\n{w}: {opts.runs} runs")
        print(f"  {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6} {'/bound':>7}")
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            share = spread / spec["bound"]
            gated = name != "setup_s"
            flag = "" if not gated else ("FAIL" if share >= 1 else ("ok" if share < 1 / 3 else "wide"))
            ok = ok and flag != "FAIL"
            print(f"  {name:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {spec['bound']:>6} {share:>7.3f} {flag}")
        print(flush=True)
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
