#!/usr/bin/env python3
"""Measures the benchmark's own run-to-run spread.

    python3 benchmark/spread.py [--runs N] [--sets K] [--seed0 S]
                                [--workload NAME ...] [--trace 0|1]

Runs `benchmark/run.sh` N times per workload, each run with its own seed
(S, S+1, ...), workloads interleaved. With --sets 2 the same seeds run a
second time, interleaved with the first set. For every metric it prints
each set's median, quartiles (Python's statistics.quantiles, n=4) and
their distance as a share of the median, next to the bound BENCHMARK.json
fixes, plus the drift between the sets' medians. Raw values go to
benchmark/out/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)}: incorrect result:\n{proc.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("nan")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--workload", action="append")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]

    raw = {w: [[] for _ in range(args.sets)] for w in workloads}
    for i in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                values = run_once(w, args.seed0 + i, args.seconds, args.trace)
                raw[w][s].append(values)
                print(f"run {i + 1}/{args.runs} set {s + 1} {w}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)

    os.makedirs(os.path.join(ROOT, "benchmark", "out"), exist_ok=True)
    with open(os.path.join(ROOT, "benchmark", "out", "spread.json"), "w") as f:
        json.dump(raw, f, indent=1)

    print(f"\n{'workload':<14}{'metric':<34}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'iqr/med':>9}{'bound':>7}{'drift':>8}")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            first = None
            for s in range(args.sets):
                med, q1, q3, share = summary([r[name] for r in raw[w][s]])
                drift = ""
                if first is None:
                    first = med
                elif first:
                    worse = (med - first) / abs(first)
                    drift = f"{(-worse if m['better'] == 'higher' else worse):+.3f}"
                b = f"{bound:.2f}" if bound is not None else ""
                print(f"{w:<14}{name:<34}{s + 1:>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{share:>9.3f}{b:>7}{drift:>8}")


if __name__ == "__main__":
    main()
