#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every end-to-end metric (or, with --trace 1, per-layer metric) it prints
the median of the runs and the distance between the first and third
quartile as a share of the median, the figure the metric's bound in
BENCHMARK.json is compared against. Run from the repository root:

    python3 perfbench/spread.py --workload doc-churn --seeds 1-10

Extra arguments after -- are passed to the benchmark (e.g. -- --rate 400).
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("extra", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", args.trace] + args.extra
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect result {res}")
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k in sorted(values):
        vs = values[k]
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        else:
            spread = float("nan")
        bound = bounds.get(k)
        flag = ""
        if bound is not None and k != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound" if spread <= bound else "  <-- ABOVE THE BOUND"
        print(f"{k:28s} median {med:12.5g}  spread {spread:7.4f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
