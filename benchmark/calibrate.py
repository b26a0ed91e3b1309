#!/usr/bin/env python3
"""Ten runs per workload, each on another seed; prints, per end-to-end metric,
the median and the quartile distance as a share of it (what the driver checks
against the metric's bound). Usage, from the repo root:

    python3 benchmark/calibrate.py [--runs 10] [--seconds S] [--workload W]...
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

spec = json.load(open("BENCHMARK.json"))
ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
ap.add_argument("--trace", type=int, default=0)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--workload", action="append")
args = ap.parse_args()

bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
for w in args.workload or [w["name"] for w in spec["workloads"]]:
    values, walls = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        began = time.time()
        out = subprocess.run(cmd, capture_output=True, text=True)
        walls.append(time.time() - began)
        if out.returncode != 0:
            sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{w} seed {seed}: {result['failed']} of {result['attempted']} failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"## {w}: {args.runs} runs, {max(walls):.1f} s the longest")
    print("| metric | median | quartile spread | bound |")
    print("|---|---|---|---|")
    for name, v in values.items():
        if name not in bounds and args.trace == 0:
            continue
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else 0.0
        print(f"| `{name}` | {med:.4f} | {spread * 100:.2f}% | {bounds.get(name, '')} |", flush=True)
