#!/usr/bin/env python3
"""Steadiness report: run each workload K times and print, per metric,
the median, the quartiles, the quartile spread (q3 - q1) / median and the
range (max - min) / median.

Rounds alternate the workload order (forward, then reversed) so slow
drift of the host spreads evenly over the workloads. Round r uses seed
--seed-start + r, so every run sees inputs no other run saw.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads pbo-eval --seed-start 11

Run it from the repository root; it reads BENCHMARK.json for the command,
the workloads, the window length (run_seconds) and the bounds. Runs are
untraced: only the end-to-end metrics carry bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed-start", type=int, default=1)
    ap.add_argument("--command", help="run this (space-separated) instead of "
                    "BENCHMARK.json's command, e.g. a prebuilt binary")
    args = ap.parse_args()

    command = args.command.split() if args.command else bench["command"]
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            res = run_once(command, w, args.seed_start + r, bench["run_seconds"])
            results[w].append(res)
            print(f"round {r} {w}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} ({res['elapsed_s']:.1f} s)", file=sys.stderr)

    for w in workloads:
        runs = results[w]
        print(f"\n{w}: {len(runs)} runs, seeds {args.seed_start}..{args.seed_start + len(runs) - 1}, "
              f"failed jobs {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}, "
              f"all correct: {all(r['correct'] for r in runs)}, "
              f"longest run {max(r['elapsed_s'] for r in runs):.1f} s")
        print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
              f"{'range/med':>9} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            iqr = (q3 - q1) / med if med else float("nan")
            rng = (max(values) - min(values)) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:<36} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {iqr:>8.3f} "
                  f"{rng:>9.3f} {bound if bound is not None else '-':>6}")


if __name__ == "__main__":
    main()
