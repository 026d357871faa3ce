"""Measure the run-to-run spread of the benchmark and record a baseline.

    python3 perfbench/record.py [--write]

Per workload this makes, at `run_seconds` from BENCHMARK.json:

- RUNS untraced runs, each with another seed (the acceptance seed, then 1,
  2, ...): the spread the benchmark's acceptance rule looks at, and the
  samples.csv hash of every (workload, seed);
- RUNS untraced runs of the acceptance seed alone: the timing noise without
  the seed's share. Their first and second halves are two sets, and the
  two sets' medians must agree within each metric's bound;
- TRACE_RUNS traced runs of the acceptance seed: the per-layer baseline.

It prints, per end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median of both kinds of runs against the metric's bound, and the
gap between the two same-seed sets. With --write it stores the environment,
the sizes, the seeds, the hashes and every median and quartile in
perfbench/baseline.json; run.py then reports for each run whether its
samples.csv matches the pinned hash.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

from run import BASELINE, ROOT, run_workload
from workloads import WORKLOADS

RUNS = 10
TRACE_RUNS = 3


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "machine": platform.processor() or platform.machine(),
            "git_commit": commit}


def verdict(spread: float, bound: float) -> str:
    return ("ok" if spread < bound / 3 else
            "within bound" if spread <= bound else "TOO WIDE")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="store the result in perfbench/baseline.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record = {"environment": environment(), "run_seconds": seconds, "sizes": {},
              "seeds": {}, "samples_sha256": {}, "across_seeds": {},
              "acceptance_seed": {}, "set_gap": {}, "per_layer": {}}
    ok = True
    for name, wl in WORKLOADS.items():
        seeds = [wl.seed, *range(1, RUNS)]
        across = [run_workload(name, s, seconds, False, False) for s in seeds]
        same = [run_workload(name, wl.seed, seconds, False, False)
                for _ in range(RUNS)]
        traced = [run_workload(name, wl.seed, seconds, True, False)
                  for _ in range(TRACE_RUNS)]
        for label, runs in (("seed", across), ("repeat", same)):
            for s, res in zip(seeds if label == "seed" else [wl.seed] * RUNS, runs):
                print(f"{name} {label} {s}: correct={res['correct']} " + " ".join(
                    f"{k}={v:.6g}" for k, v in res["end_to_end"].items()),
                    flush=True)
        ok &= all(r["correct"] for r in across + same + traced)
        record["sizes"][name] = wl.size
        record["seeds"][name] = seeds
        record["samples_sha256"][name] = {
            str(s): r["samples_sha256"] for s, r in zip(seeds, across)}
        metrics = list(across[0]["end_to_end"])
        record["across_seeds"][name] = a = {
            k: quartiles([r["end_to_end"][k] for r in across]) for k in metrics}
        record["acceptance_seed"][name] = r1 = {
            k: quartiles([r["end_to_end"][k] for r in same]) for k in metrics}
        gaps = record["set_gap"][name] = {}
        for k in metrics:
            m1 = statistics.median(r["end_to_end"][k] for r in same[:RUNS // 2])
            m2 = statistics.median(r["end_to_end"][k] for r in same[RUNS // 2:])
            worse = (m2 - m1) if better.get(k) != "higher" else (m1 - m2)
            gaps[k] = {"median_first": m1, "median_second": m2,
                       "worse_share": worse / m1 if m1 else 0.0}
        record["per_layer"][name] = {
            k: quartiles([r["per_layer"][k] for r in traced])
            for k in traced[0]["per_layer"]}
        for k in metrics:
            line = (f"  {name:<11} {k:<16} seeds: median {a[k]['median']:<10.5g} "
                    f"spread {a[k]['spread']:.4f}  repeat: median "
                    f"{r1[k]['median']:<10.5g} spread {r1[k]['spread']:.4f}  "
                    f"set gap {gaps[k]['worse_share']:+.4f}")
            if k in bounds:
                b = bounds[k]
                line += (f"  bound {b:.2f}: seeds {verdict(a[k]['spread'], b)}, "
                         f"repeat {verdict(r1[k]['spread'], b)}, sets "
                         f"{'agree' if gaps[k]['worse_share'] <= b else 'DISAGREE'}")
            print(line, flush=True)
    if args.write:
        BASELINE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
