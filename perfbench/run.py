#!/usr/bin/env python3
"""Repository benchmark: drives the real `sldigest` binary from outside.

    python3 perfbench/run.py --workload sim|dense|learn --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The first run builds `sldigest` and
the harness (Release) under .bench_build/, generates the seed's inputs
(cached per seed under .bench_build/inputs/), then measures for
--seconds and checks every output against the reference.  The last
line of stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics;
with --trace 1 they are its per_layer metrics, from the in-process
traced run.  NOTES.md says what each workload is for.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
HARNESS = CMAKE_DIR / "bin" / "perfbench_harness"
SLDIGEST = CMAKE_DIR / "bin" / "sldigest"
WORKLOADS = ("sim", "dense", "learn")
# Setup-only starts after each full run, so setup_s is a median of many.
SETUP_STARTS_PER_RUN = 3
# A serve run whose server queue was empty in more than this share of
# backlog polls was paced by the generator, not the server.
STARVED_FLAG = 0.05
# Seeds whose inputs stay cached.
CACHED_SEEDS = 12


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not BENCH.is_file():
        raise BenchError("run from the root of a repository checkout")
    # Compiler and tool scratch files stay inside the checkout too.
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(CMAKE_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"])
    run_logged(["cmake", "--build", str(CMAKE_DIR), "--target", "sldigest",
                "perfbench_harness", "-j", jobs])


def run_logged(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def harness(*args, timeout=170):
    proc = subprocess.run([str(HARNESS), *map(str, args)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError(f"harness {args[0]} failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare_inputs(workload, seed):
    """Generates (once per seed) and checksums the workload's inputs."""
    inputs = BUILD / "inputs"
    d = inputs / f"seed-{seed}"
    stats = harness("gen", "--workload", workload, "--seed", seed, "--dir", d)
    d.touch()
    seeds = sorted(inputs.iterdir(), key=lambda p: p.stat().st_mtime)
    for old in seeds[:-CACHED_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    files = sorted((d / "configs").iterdir()) + [d / "history.log", d / "kb.txt"]
    if workload != "learn":
        files += [d / f"{workload}.dgrams", d / f"{workload}.ref"]
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.name.encode())
        digest.update(f.read_bytes())
    print(f"input checksum ({workload}, seed {seed}): {digest.hexdigest()}",
          flush=True)
    return d, stats


def metric_series(snapshot):
    totals = {}
    for s in snapshot["series"]:
        if "value" in s:
            totals[s["name"]] = totals.get(s["name"], 0) + s["value"]
    return totals


def check_serve(rep, work, reference):
    """The correctness gate for one served run; returns datagrams not accepted."""
    if not rep["ok"]:
        raise BenchError(f"serve run failed: {rep['error']}")
    served = (work / "events.out").read_bytes()
    if served != reference:
        raise BenchError("served events differ from the in-process reference")
    dump = subprocess.run([str(SLDIGEST), "events", "--checkpoint-dir",
                           str(work / "ckpt")], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=120)
    if dump.returncode != 0:
        raise BenchError("sldigest events failed: " + dump.stderr.decode()[-500:])
    logged = b"".join(line.split(b"|", 1)[1] + b"\n"
                      for line in dump.stdout.splitlines())
    seqs = [int(line.split(b"|", 1)[0]) for line in dump.stdout.splitlines()]
    if logged != reference or seqs != list(range(len(seqs))):
        raise BenchError("the durable event log differs from the reference")
    m = metric_series(json.loads((work / "metrics.json").read_text()))
    accepted = m["collector_accepted_total"]
    rejected = (m["collector_malformed_total"] + m["collector_late_total"] +
                m["collector_duplicate_total"])
    if rep["sent"] != accepted + rejected + rep["kernel_drops"]:
        raise BenchError(
            f"ledger does not close: sent {rep['sent']} != accepted {accepted} "
            f"+ rejected {rejected} + kernel drops {rep['kernel_drops']}")
    if m.get("wire_kernel_drops_total", 0) > rep["kernel_drops"]:
        raise BenchError("serve counted more kernel drops than the socket")
    return rep["sent"] - accepted


def starved_ratio(rep):
    return rep["starved_polls"] / rep["polls"] if rep["polls"] else 0.0


def measure_serve(workload, inputs, seconds):
    reference = (inputs / f"{workload}.ref").read_bytes()
    work = BUILD / "runs" / workload
    common = ["--sldigest", SLDIGEST, "--workload", workload, "--dir", inputs,
              "--work", work]
    # Untimed start: pages in the binary, configs and KB.
    harness("serve", *common, "--setup-only")
    reps, setups = [], []
    failed = 0
    start = time.monotonic()
    while True:
        t = time.monotonic()
        rep = harness("serve", *common)
        failed += check_serve(rep, work, reference)
        reps.append(rep)
        setups.append(rep["setup_s"])
        for _ in range(SETUP_STARTS_PER_RUN):
            setups.append(harness("serve", *common, "--setup-only")["setup_s"])
        elapsed = time.monotonic() - start
        if len(reps) >= 3 and elapsed + (time.monotonic() - t) > seconds:
            break
    for i, rep in enumerate(reps):
        if starved_ratio(rep) > STARVED_FLAG:
            log(f"SATURATION FLAG: run {i} found the server queue empty in "
                f"{starved_ratio(rep):.1%} of backlog polls; the generator, "
                f"not the server, set the pace")
    log(f"{workload}: {len(reps)} served runs, {len(setups)} starts; "
        f"throughput {[round(r['throughput_msgs_per_s']) for r in reps]} msgs/s; "
        f"starved {[round(starved_ratio(r), 4) for r in reps]}; "
        f"peak backlog {max(r['peak_backlog_bytes'] for r in reps)} B")
    metrics = {
        "throughput_msgs_per_s": statistics.median(
            r["throughput_msgs_per_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return metrics, sum(r["sent"] for r in reps), failed


LEARNED = re.compile(rb"learned from (\d+) messages \((\d+) malformed skipped\)")


def learn_once(inputs, work, history=None):
    args = ["learn", "--sldigest", SLDIGEST, "--dir", inputs, "--work", work]
    if history is not None:
        args += ["--history", history]
    rep = harness(*args)
    if not rep["ok"]:
        raise BenchError(f"learn failed: {rep['error']}")
    match = LEARNED.search((work / "learn.out").read_bytes())
    if match is None:
        raise BenchError("learn printed no summary line")
    return rep, int(match.group(1)), int(match.group(2))


def measure_learn(inputs, seconds):
    work = BUILD / "runs" / "learn"
    empty = BUILD / "runs" / "empty.log"
    empty.parent.mkdir(parents=True, exist_ok=True)
    empty.write_bytes(b"")
    # setup_s for learn: the job's input-independent cost (exec, config
    # parse, dictionary build, KB write), i.e. learn on an empty history.
    learn_once(inputs, work, empty)
    rates, rss, setups = [], [], []
    lines = malformed = 0
    start = time.monotonic()
    while True:
        t = time.monotonic()
        rep, records, bad = learn_once(inputs, work)
        if not rep["kb_identical"]:
            raise BenchError("learned KB differs from the serial reference")
        rates.append(records / rep["wall_s"])
        rss.append(rep["peak_rss_mb"])
        lines += records + bad
        malformed += bad
        for _ in range(SETUP_STARTS_PER_RUN):
            setups.append(learn_once(inputs, work, empty)[0]["wall_s"])
        elapsed = time.monotonic() - start
        if len(rates) >= 3 and elapsed + (time.monotonic() - t) > seconds:
            break
    log(f"learn: {len(rates)} runs; throughput "
        f"{[round(r) for r in rates]} records/s")
    metrics = {
        "throughput_msgs_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, lines, malformed


def trace(workload, inputs, stats, seconds):
    work = BUILD / "runs" / f"{workload}-trace"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans = work / "spans.jsonl"
    layers = harness("trace", "--workload", workload, "--dir", inputs, "--work",
                     work, "--spans", spans, "--seconds", seconds, timeout=175)
    for key, value in stats.items():
        if key.startswith("input."):
            layers[key] = value
    log(f"per-layer metrics ({workload}); spans in {spans}")
    for key in sorted(layers):
        log(f"  {key:34s} {layers[key]:.6g}")
    return layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        spec = json.loads(BENCH.read_text())
        inputs, stats = prepare_inputs(args.workload, args.seed)
        if args.trace:
            layers = trace(args.workload, inputs, stats, args.seconds)
            wanted = spec["per_layer"]
            # The result lists every per-layer metric; a layer this
            # workload never calls did no work and reads 0.
            uncalled = [m["name"] for m in wanted if m["name"] not in layers]
            if uncalled:
                log(f"not called by {args.workload}, reported as 0: "
                    + ", ".join(uncalled))
            values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
            attempted, failed = int(layers["trace.messages"]), 0
        else:
            wanted = spec["end_to_end"]
            if args.workload == "learn":
                values, attempted, failed = measure_learn(inputs, args.seconds)
            else:
                values, attempted, failed = measure_serve(args.workload, inputs,
                                                          args.seconds)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            IndexError, ValueError) as e:
        log(f"benchmark failed: {e}")
        return 1
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
