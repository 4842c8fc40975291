#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 jobbench/spread.py --workload mm_shared --seeds 1-10 [--seconds 20] [--trace 0]

Run from the root of the repository. For every metric it prints the median
of the per-seed values and the distance between the first and third
quartile (Python's statistics.quantiles, n=4) as a share of that median,
next to the metric's bound from BENCHMARK.json and a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    table = spec["per_layer" if args.trace == "1" else "end_to_end"]
    values = {m["name"]: [] for m in table}
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
        print(f"seed {seed}: attempted {result['attempted']} "
              + " ".join(f"{n}={v['value']:.6g}" for n, v in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} seeds, {seconds} s runs")
    for m in table:
        xs = values[m["name"]]
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) >= 2 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = m.get("bound")
        limit = f"bound {bound} (third {bound / 3:.4f})" if bound else ""
        print(f"  {m['name']:34s} median {med:<14.6g} spread {spread:8.4f}  {limit}")


if __name__ == "__main__":
    main()
