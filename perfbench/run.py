"""levyreg benchmark: run one workload (or all) for a fixed time and report.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from a source checkout: the package is imported from ./src, nothing is
installed. Every scenario run is a fresh single process with threads = 1
that reports its own peak RSS (see child.py). A run first starts a few
set-up-only processes (import + config parse), then repeats the workload
until the next repetition would pass --seconds.

Times are reported at a fixed reference speed. The benchmark and every
process it starts run on one CPU. While a process runs, the benchmark wakes
every PROBE_EVERY_S and times a small fixed block of work (`probe_s`) on that
CPU, and once more before and after it. The process's set-up and wall times
are multiplied by REF_S over the mean probe time. On a shared host the speed
of one virtual CPU switches between states up to 1.6x apart every few
seconds, and this scaling takes most of that out; the unscaled medians are
reported too, as host.raw_wall_s and host.raw_setup_s.

--trace 0 reports the end-to-end metrics from untraced runs. --trace 1
alternates untraced and traced runs and reports the per-layer metrics of the
traced ones (see tracer.py); trace.overhead_s is the traced wall minus the
untraced one. Either way each run's outputs are checked: exit code, no
traceback, the scenario's acceptance checks, the samples.csv row count, and
that every run in the batch wrote byte-identical samples.csv.

Each workload prints its metrics by name and unit, then one JSON line
{"correct", "attempted", "failed", "metrics"}. Metric definitions and the
workload list are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
BASELINE = HERE / "baseline.json"

#: Set-up-only processes started before the workload runs; their set-up
#: times join those of the workload runs in the set-up median.
SETUP_ONLY_RUNS = 4

#: No process is started after this many seconds, and a running one is
#: killed, so a run always ends well inside three minutes.
HARD_LIMIT_S = 150.0

#: The reference speed: times are reported as if `probe_s()` took this long
#: (about its time on a 2-vCPU x86_64 VM, Python 3.11.7, numpy 2.4.6).
REF_S = 0.0035

#: Probe interval while a child runs. Each probe takes the child's CPU for
#: about REF_S, so the children's raw times include about 2% of probing.
PROBE_EVERY_S = 0.2

_SMALL = np.linspace(0.0, 1.0, 64)

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "replicas_per_s": "1/s",
             "peak_rss_mib": "MiB", "failed_fraction": "1",
             "accuracy_margin": "1"}


def _benchmark_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _pinned_hashes() -> dict:
    if not BASELINE.exists():
        return {}
    return json.loads(BASELINE.read_text()).get("samples_sha256", {})


def probe_s() -> float:
    """CPU time of one fixed block of work: Python float arithmetic and numpy
    calls on small arrays, the two kinds of work levyreg's time is made of.

    Run on the CPU the child runs on, while it runs, its time tracks how fast
    that CPU runs this kind of code at that moment. It is timed in this
    thread's CPU time, so the child taking the CPU back mid-block does not
    count. It does not touch levyreg, so a change to levyreg does not change
    it.
    """
    t = time.thread_time()
    acc = 0.0
    for i in range(8_000):
        acc += math.exp(-1e-5 * i) * 0.5
    for _ in range(400):
        np.cumsum(np.exp(-_SMALL))
    return time.thread_time() - t


def pin_to_one_cpu() -> None:
    """Run this process, and so every child it starts, on one CPU.

    The probe only tracks the speed of the CPU it runs on: timed on another
    CPU than the child's, it did not follow the child's time at all. Any
    one CPU would do; the last one allowed is taken.
    """
    with contextlib.suppress(AttributeError, OSError):   # no affinity support
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def spawn(mode: str, config_text: str, work: Path, deadline: float) -> dict:
    """Start one child.py process in `mode` and collect what it reports."""
    work.mkdir(parents=True)
    out_dir, trace_file = work / "out", work / "trace.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), mode, config_text,
           str(out_dir), str(trace_file)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    probes = [probe_s()]
    with open(work / "stdout", "wb") as so, open(work / "stderr", "wb") as se:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=ROOT)
        try:
            while time.monotonic() < deadline:
                try:
                    proc.wait(timeout=PROBE_EVERY_S)
                    break
                except subprocess.TimeoutExpired:
                    probes.append(probe_s())
        finally:
            if proc.poll() is None:   # past the deadline, or interrupted
                proc.kill()
                proc.wait()
    probes.append(probe_s())
    res = {"mode": mode, "rc": proc.returncode,
           "duration_s": time.monotonic() - spawned,
           "probe_s": statistics.mean(probes),
           "scale": REF_S / statistics.mean(probes),
           "stderr": (work / "stderr").read_text(errors="replace"),
           "dir": work}
    lines = (work / "stdout").read_text().strip().splitlines()
    if proc.returncode == 0 and lines:
        report = json.loads(lines[-1])
        res.update(report)
        res["setup_s"] = report["setup_end"] - spawned
    if mode == "traced" and trace_file.exists():
        res["trace"] = json.loads(trace_file.read_text())
    return res


def check_outputs(wl, size: dict, res: dict) -> dict:
    """Verdict, accuracy margin, hash and failure count of one workload run."""
    expected = int(size["replicas"])
    out = res["dir"] / "out"
    res.update(ok=False, replicas=expected, failures=expected, sha256=None,
               margin=None, failed_checks=[])
    if res["rc"] != 0 or "Traceback" in res["stderr"] or "wall_s" not in res:
        res["failed_checks"] = [f"exit {res['rc']}: {res['stderr'].strip()[-400:]}"]
        return res
    try:
        summary = json.loads((out / "summary.json").read_text())
        samples = (out / "samples.csv").read_bytes()
        plots = sorted(p.name for p in (out / "plots").iterdir())
    except OSError as exc:
        res["failed_checks"] = [f"missing output: {exc}"]
        return res
    try:
        checks = wl.checks(summary["diagnostics"], size)
    except (KeyError, TypeError) as exc:   # a diagnostic is missing or null
        res["failed_checks"] = [f"diagnostics incomplete: {exc!r}"]
        return res
    failed = [name for name, _, passed in checks if not passed]
    rows = samples.count(b"\n") - 1
    if summary["replicas"] != expected or rows != expected:
        failed.append(f"replicas {summary['replicas']} / rows {rows} != {expected}")
    if not plots:
        failed.append("no plots written")
    res.update(ok=not failed, failed_checks=failed, replicas=summary["replicas"],
               failures=summary["failures"] if not failed else expected,
               sha256=hashlib.sha256(samples).hexdigest(),
               margin=min(s for _, s, _ in checks if s is not None))
    return res


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    pin_to_one_cpu()
    wl = WORKLOADS[name]
    size = wl.smoke if smoke else wl.size
    text = wl.config_text(seed, smoke)
    start = time.monotonic()
    hard = start + HARD_LIMIT_S
    deadline = start + seconds
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    setups, runs = [], []
    try:
        probe_s()                          # warm-up, not counted
        for i in range(SETUP_ONLY_RUNS):
            res = spawn("setup", text, work / f"setup{i}", hard)
            if "setup_s" not in res:   # counts as a failed run of the workload
                runs.append(check_outputs(wl, size, res))
                break
            setups.append((res["setup_s"], res["scale"]))
        modes = ("run", "traced") if trace else ("run",)
        while time.monotonic() < hard and all(r["ok"] for r in runs):
            mode = modes[len(runs) % len(modes)]
            took = [r["duration_s"] for r in runs if r["mode"] == mode]
            if took and time.monotonic() + statistics.median(took) > deadline:
                break
            res = check_outputs(wl, size, spawn(mode, text,
                                                work / f"{mode}{len(runs)}", hard))
            shutil.rmtree(res["dir"], ignore_errors=True)
            runs.append(res)
            if "setup_s" in res:
                setups.append((res["setup_s"], res["scale"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # left in place while not empty
            WORK.rmdir()
    return summarize_runs(wl, seed, runs, setups, trace, smoke)


def summarize_runs(wl, seed: int, runs: list[dict], setups: list[tuple],
                   trace: bool, smoke: bool) -> dict:
    untraced = [r for r in runs if r["mode"] == "run" and r["ok"]]
    traced = [r for r in runs if r["mode"] == "traced" and r["ok"]]
    # a run that got to measure nothing counts as one failed attempt
    attempted = sum(r["replicas"] for r in runs) or 1
    failed = sum(r["failures"] for r in runs) if runs else 1
    hashes = {r["sha256"] for r in runs if r["sha256"]}
    problems = [f"{r['mode']}: {c}" for r in runs for c in r["failed_checks"]]
    if len(hashes) > 1:
        problems.append("samples.csv differs between runs of the same seed")
    if not untraced or (trace and not traced):
        problems.append("no successful run")
    pinned = None if smoke else _pinned_hashes().get(wl.name, {}).get(str(seed))
    sha = next(iter(hashes)) if len(hashes) == 1 else None
    e2e, host = {}, {}
    if untraced:
        # the same medians unscaled, and the probe time they were scaled by
        host = {"host.raw_wall_s": statistics.median(r["wall_s"] for r in untraced),
                "host.raw_setup_s": statistics.median(s for s, _ in setups),
                "host.probe_s": statistics.median(r["probe_s"] for r in untraced)}
        e2e = {
            "setup_s": statistics.median(s * k for s, k in setups),
            "wall_s": statistics.median(r["wall_s"] * r["scale"] for r in untraced),
            "replicas_per_s": statistics.median(
                r["replicas"] / (r["wall_s"] * r["scale"]) for r in untraced),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in untraced),
            "failed_fraction": failed / attempted,
            "accuracy_margin": min(r["margin"] for r in untraced),
        }
    layers = {}
    if traced:
        per_run = [summarize(r["trace"], r["parse_s"]) for r in traced]
        layers = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - host["host.raw_wall_s"]
        layers.update(host)
        # seed-dependent (accuracy_margin) or normally 0 (failed_fraction), so
        # reported here rather than gated as end-to-end metrics
        layers["accuracy_margin"] = e2e["accuracy_margin"]
        layers["failed_fraction"] = e2e["failed_fraction"]
    return {"workload": wl.name, "seed": seed, "correct": not problems,
            "problems": problems, "attempted": attempted, "failed": failed,
            "untraced_runs": len(untraced), "traced_runs": len(traced),
            "setup_samples": len(setups), "end_to_end": e2e, "host": host,
            "per_layer": layers,
            "samples_sha256": sha,
            "samples_sha256_match": None if pinned is None else sha == pinned}


def report(res: dict, trace: bool) -> None:
    """Print the metrics by name and unit, then the one-line JSON result."""
    e2e_units, layer_units = _benchmark_metrics()
    match = {None: "not pinned for this seed", True: "matches the pinned hash",
             False: "DIFFERS from the pinned hash"}[res["samples_sha256_match"]]
    print(f"== {res['workload']} seed {res['seed']}: "
          f"{'verdict pass' if res['correct'] else 'FAILED'}; "
          f"{res['untraced_runs']} untraced, {res['traced_runs']} traced runs, "
          f"{res['setup_samples']} set-ups")
    for p in res["problems"]:
        print(f"   problem: {p}")
    for name, value in res["end_to_end"].items():
        print(f"   {name:<34} {value:>14.6g} {E2E_UNITS[name]}")
    if not trace:
        for name, value in res["host"].items():
            print(f"   {name:<34} {value:>14.6g} s")
    print(f"   {'samples_sha256':<34} {res['samples_sha256']} ({match})")
    if trace:
        for name, value in res["per_layer"].items():
            print(f"   {name:<34} {value:>14.6g} {layer_units.get(name, '')}")
    chosen = layer_units if trace else e2e_units
    values = res["per_layer"] if trace else res["end_to_end"]
    correct = res["correct"] and all(k in values for k in chosen)
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in chosen.items() if k in values}}), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each workload's acceptance seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes that still meet the 1000-sample floors")
    args = parser.parse_args(argv)
    if not (SRC / "levyreg" / "__init__.py").is_file():
        print(f"no levyreg sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        seed = args.seed if args.seed is not None else WORKLOADS[name].seed
        res = run_workload(name, seed, seconds, bool(args.trace), args.smoke)
        report(res, bool(args.trace))
        all_correct &= res["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
