"""One benchmark process: set up levyreg, run one scenario once, report timings.

    python3 child.py SRC_DIR MODE CONFIG_TEXT OUT_DIR TRACE_FILE

MODE is `setup` (import and parse only), `run` (untraced run) or `traced`
(run under perfbench.tracer, spans and counters written to TRACE_FILE). The
last stdout line is a JSON object with `setup_end` (CLOCK_MONOTONIC after
levyreg is imported and the config parsed, so the parent can subtract its
spawn time), `parse_s` and, for runs, `wall_s` (run call until samples.csv,
summary.json and plots/ are written) and `peak_rss_mib`.

The peak RSS is this process's own high-water mark, VmHWM in
/proc/self/status. `ru_maxrss` (RUSAGE_SELF, or os.wait4 in the parent) is
not used: Linux carries the spawning process's resident size into it across
exec, so it never reads below the size of the process that started this one.
"""

import json
import resource
import sys
import time


def peak_rss_mib() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    src, mode, text, out_dir, trace_file = argv
    sys.path.insert(0, src)
    import levyreg

    t = time.perf_counter()
    config = levyreg.parse_config(text)
    parse_s = time.perf_counter() - t
    report = {"setup_end": time.monotonic(), "parse_s": parse_s}
    if mode == "run":
        t = time.perf_counter()
        levyreg.run_scenario(config, out_dir=out_dir)
        report["wall_s"] = time.perf_counter() - t
        report["peak_rss_mib"] = peak_rss_mib()
    elif mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            t = time.perf_counter()
            levyreg.scenarios.run_scenario(config, out_dir=out_dir)
            report["wall_s"] = time.perf_counter() - t
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
