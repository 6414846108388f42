#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's median and its spread: the distance between the first and
third quartile as a share of the median, next to the metric's bound.

    python3 perfbench/spread.py --workload certify --seeds 1-10 [--trace 0]

Run it from the repository root. Each run's result line is appended to
perfbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    log = open(os.path.join(ROOT, "perfbench", "out", f"spread-{args.workload}.jsonl"), "a")
    values = {m["name"]: [] for m in metrics}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        log.write(json.dumps({"seed": seed, **result}) + "\n")
        log.flush()
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result\n{out.stdout}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        share = (q[2] - q[0]) / med if med else float("nan")
        bound = m.get("bound")
        flag = "" if bound is None else ("ok" if share <= bound / 3 else "WIDE")
        print(f"{m['name']:<28} median {med:<14.6g} spread {share:<8.4f} bound {bound} {flag}")


if __name__ == "__main__":
    main()
