#!/usr/bin/env python3
"""Re-derive the figures in README.md: run the benchmark once per seed on
each workload and print, for every metric, the median of the runs and
their spread (the distance between the first and third quartile as a
share of the median).

    python3 ladder-bench/steady.py [--seconds 30] [--seeds 1-10]
                                   [--trace 0|1] [workload ...]

Run it from the root of the repository. Workloads default to the ones
BENCHMARK.json names.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for wl in workloads:
        values, shares, correct = {}, set(), 0
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", args.seconds, "--trace", args.trace]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
            out = json.loads(p.stdout.strip().splitlines()[-1])
            correct += out["correct"]
            if not out["correct"]:
                first = next(l for l in p.stderr.splitlines() if l.startswith("CHECK FAILED"))
                print(f"{wl} seed {seed}: {first[:160]}", flush=True)
            shares.add(out["failed"] / out["attempted"])
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in out["metrics"].items()), flush=True)
        runs = len(list(seeds(args.seeds)))
        print(f"{wl}: {runs} runs, {correct} correct, failed share {sorted(shares)}")
        for name, xs in values.items():
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            mark = "" if bound is None else f"  bound {bound}" + ("  OVER" if spread > bound else "")
            print(f"  {name:40s} median {med:14.4f}  spread {spread:6.3f}{mark}")


if __name__ == "__main__":
    main()
