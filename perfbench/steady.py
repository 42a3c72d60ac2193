#!/usr/bin/env python3
"""Steadiness check for the benchmark declared in BENCHMARK.json.

Runs every workload N times with distinct seeds and reports, for each
end-to-end metric, its median and the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median, against the metric's bound. With --sets 2 it repeats the whole
round and also reports how far the second median moved from the first
in the metric's worse direction.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --workloads update-mix

Run it from the repository root. Raw results go to
.bench_work/steady-<time>.json. Exits non-zero when a spread (setup_s
excepted) or a median drift exceeds its bound, or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {lines[-1]}")
    return result, wall


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    raw = {}
    ok = True
    for s in range(args.sets):
        for w in names:
            for i in range(args.runs):
                seed = 1 + i
                result, wall = run_once(bench, w, seed)
                raw.setdefault(w, []).append({"set": s, "seed": seed, "wall_s": wall, "result": result})
                print(f"set {s} {w} seed {seed}: {wall:.1f} s", file=sys.stderr, flush=True)

    print(f"{'workload':<11} {'metric':<21} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for w in names:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [[r["result"]["metrics"][name]["value"] for r in raw[w] if r["set"] == s]
                    for s in range(args.sets)]
            med, spread = summarize(sets[0])
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
            if name == "setup_s":
                verdict += " (spread not judged)"
            elif spread > bound:
                ok = False
            line = f"{w:<11} {name:<21} {med:>12.6g} {spread:>8.3f} {bound:>6}  {verdict}"
            if args.sets == 2:
                med2, spread2 = summarize(sets[1])
                sign = 1 if m["better"] == "lower" else -1
                drift = sign * (med2 - med) / med if med else 0.0
                drifted = drift > bound
                ok &= not drifted
                line += f" | set 2: {med2:.6g} spread {spread2:.3f} drift {drift:+.3f}{' DRIFTED' if drifted else ''}"
            print(line)
        walls = [r["wall_s"] for r in raw[w]]
        print(f"{w:<11} {'(run wall time, s)':<21} {statistics.median(walls):>12.1f} max {max(walls):.1f}")

    os.makedirs(".bench_work", exist_ok=True)
    out = os.path.join(".bench_work", f"steady-{int(time.time())}.json")
    with open(out, "w") as f:
        json.dump(raw, f, indent=1)
    print(f"raw results: {out}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
