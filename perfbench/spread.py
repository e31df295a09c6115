#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed and workload, then prints,
for every end-to-end metric, the median over seeds and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, beside a third of the metric's bound. Each run's
line shows its wall time and the share of CPU time the hypervisor stole
during it.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--out runs.json]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="also write every run's result here")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    steal = {}
    for workload in args.workloads.split(","):
        for seed in seeds_of(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            start = time.monotonic()
            lines = subprocess.run(cmd, capture_output=True, text=True,
                                   check=True).stdout.strip().splitlines()
            wall = time.monotonic() - start
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            env = json.loads(next(l for l in lines if l.startswith("env: "))[5:])
            runs.setdefault(workload, []).append(result["metrics"])
            steal.setdefault(workload, []).append(env["steal_pct"])
            print(f"{workload} seed {seed} ({wall:.0f} s, steal {env['steal_pct']}%): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    if args.out:
        json.dump(runs, open(args.out, "w"), indent=1)
    worst = True
    for workload, results in runs.items():
        stolen = [x for x in steal[workload] if x is not None]
        print(f"\n{workload} ({len(results)} seeds; CPU time stolen per run: "
              f"{min(stolen, default=0)}-{max(stolen, default=0)}%)")
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = spread < bound / 3
            worst = worst and steady
            print(f"  {name:<18} median {med:<12.6g} spread {spread:6.3f}  bound/3 {bound / 3:.3f}"
                  f"  {'ok' if steady else 'TOO WIDE'}")
    sys.exit(0 if worst else 1)


if __name__ == "__main__":
    main()
