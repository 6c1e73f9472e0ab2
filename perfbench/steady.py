#!/usr/bin/env python3
"""Steadiness check for perfbench: runs the workloads repeatedly, interleaved
with each other, in one or more sets, and prints for every metric the median,
quartiles and min/max of each set, the spread (quartile distance over the
median) and how far each later set's median moved from the first set's.

Run from the repository root, e.g.

    python3 perfbench/steady.py --seeds 10 --sets 2 --gap 600

The bounds come from BENCHMARK.json: a spread above a third of a metric's
bound, or a move between sets larger than the bound, is marked with '!'.
--json FILE also writes every run's metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    took = time.time() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    traced_e2e = None
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench: traced end-to-end "):
            traced_e2e = json.loads(line[len("perfbench: traced end-to-end "):])
    return res, traced_e2e, took


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=None, help="comma list (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload per set, seeds 1..N")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--gap", type=float, default=0, help="seconds to wait between sets")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in defs}

    # sets[s][workload] = list of (result, traced_e2e)
    sets = []
    for s in range(args.sets):
        if s and args.gap:
            time.sleep(args.gap)
        runs = {w: [] for w in workloads}
        for seed in range(1, args.seeds + 1):
            for w in workloads:
                res, traced, took = run_once(w, seed, seconds, args.trace)
                runs[w].append((res, traced))
                print(f"set {s} seed {seed} {w}: {took:.1f}s correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}", file=sys.stderr, flush=True)
        sets.append(runs)

    for w in workloads:
        print(f"== {w} ({args.seeds} seeds x {args.sets} sets, {seconds}s runs, trace={args.trace})")
        names = list(sets[0][w][0][0]["metrics"].keys())
        first = {}
        for name in names:
            unit = sets[0][w][0][0]["metrics"][name]["unit"]
            for s, runs in enumerate(sets):
                xs = [r["metrics"][name]["value"] for r, _ in runs[w]]
                q1, med, q3 = quartiles(xs)
                spread = (q3 - q1) / med if med else float("nan")
                b = bounds.get(name)
                mark = ""
                if b is not None and name != "setup_s" and spread > b / 3:
                    mark += "!spread"
                move = ""
                if s == 0:
                    first[name] = med
                elif first[name]:
                    d = med / first[name] - 1
                    move = f" move {d:+.3f}"
                    if b is not None and abs(d) > b:
                        mark += "!move"
                print(f"  {name:<22} set{s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} min {min(xs):.6g} "
                      f"max {max(xs):.6g} {unit} spread {spread:.3f}{move} bound {b} {mark}")
        shares = [sum(r["failed"] for r, _ in runs[w]) / sum(r["attempted"] for r, _ in runs[w]) for runs in sets]
        print(f"  failed share per set: {shares}")
        if args.trace:
            for s, runs in enumerate(sets):
                tr = [t for _, t in runs[w] if t]
                if tr:
                    meds = {k: statistics.median(t[k] for t in tr) for k in tr[0]}
                    print(f"  set{s} traced end-to-end medians: " +
                          ", ".join(f"{k} {v:.6g}" for k, v in sorted(meds.items())))

    if args.json:
        with open(args.json, "w") as f:
            json.dump([{w: [r for r, _ in runs[w]] for w in workloads} for runs in sets], f)


if __name__ == "__main__":
    main()
