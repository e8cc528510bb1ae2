#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each named workload
and prints, per metric, the median and the interquartile range as a share
of the median (statistics.quantiles(values, n=4)) against the metric's
bound. Run from the repository root:

    python3 perfbench/spread.py --seeds 10 paper_point trace_stream

Each run's result line is appended to --log (JSON lines) for later use.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    # Per-batch wall times from the stderr summary, for offline analysis.
    result["cold_s"] = [float(l.split()[3]) for l in out.stderr.splitlines()
                        if l.strip().startswith("batch ")]
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--log", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(bench["command"], workload, seed, bench["run_seconds"])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: output checks failed")
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.seeds} seeds)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"  {name:<20} median {med:>14.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.2f}  {flag}")


if __name__ == "__main__":
    main()
