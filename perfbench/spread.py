#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload, untraced, and reports per metric the median and the distance
between the first and third quartile as a share of the median, next to
the metric's declared bound. Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload agg-delta] [--seconds 20]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = (0.0, "")
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
            result = json.loads(last)
            assert result["correct"] and result["failed"] == 0, last
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}:")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            worst = max(worst, (spread / bound, f"{w} {name}"))
            print(f"  {name:<24} median {med:<22.6g} spread {spread:8.4f}  bound {bound}")
            print("    " + " ".join(f"{v:.6g}" for v in vs))
    print(f"largest spread / bound: {worst[0]:.3f} ({worst[1]})")


if __name__ == "__main__":
    main()
