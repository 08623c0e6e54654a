#!/usr/bin/env python3
"""Steadiness check: runs one workload as two interleaved sets of runs.

    python3 perfbench/steady.py --workload sim

Set A and set B each run seeds 1 to 10, alternating A1 B1 A2 B2 ... so
slow drift of the host hits both sets alike.  For every end-to-end
metric of BENCHMARK.json it prints each set's median and quartiles, the
spread (interquartile distance over the median) and the difference
between the set medians (B - A over A), and checks both against the
metric's bound: every spread must stay within the bound, and the two
medians must differ by no more than it, in either direction.  Exits 1
when a check fails.  Run from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = "AB"


def run_once(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"run failed: {workload} seed {seed}")
    for line in proc.stderr.splitlines():
        if line.startswith((workload + ":", "SATURATION")):
            print("   ", line, flush=True)
    print(f"    run took {time.monotonic() - start:.1f} s", flush=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"incorrect run: {workload} seed {seed}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sets = {name: [] for name in SETS}
    for seed in range(1, RUNS + 1):
        for name, runs in sets.items():
            runs.append(run_once(args.workload, seed, seconds))
            print(f"set {name} seed {seed}: " +
                  ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
                  flush=True)
    ok = True
    print(f"\n{args.workload}: {RUNS} runs per set, {seconds:g} s each")
    print(f"{'metric':24s} {'set':3s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'spread':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        meds = []
        for set_name, runs in sets.items():
            med, q1, q3, spread = summary([r[name] for r in runs])
            meds.append(med)
            flag = ""
            if spread > bound:
                flag, ok = "  SPREAD > BOUND", False
            elif spread > bound / 3:
                flag = "  (spread > bound/3)"
            print(f"{name:24s} {set_name:3s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.2%} {bound:6.2f}{flag}")
        diff = (meds[1] - meds[0]) / meds[0]
        flag = ""
        if abs(diff) > bound:
            flag, ok = "  |B - A| > BOUND", False
        print(f"{name:24s} B vs A: {diff:+.2%} (bound {bound:.2f}){flag}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
