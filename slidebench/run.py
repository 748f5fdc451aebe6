#!/usr/bin/env python3
"""The repository's benchmark.

One run:
    python3 slidebench/run.py --workload W --seed N --seconds S --trace 0|1

builds the slidebench program (first run only), generates workload W's inputs
from seed N in a separate process (for amazon-serve this includes training the
served checkpoint on one thread), runs the measured process on them and prints
its result as the last line of standard output: one JSON object with
"correct", "attempted", "failed" and "metrics" (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1).  Build and progress output go
to standard error.  Everything is written under .bench_build/ at the root of
the checkout.

Steadiness:
    python3 slidebench/run.py --steady [--runs 10]

runs every workload once for each seed 1..runs, with the run length
BENCHMARK.json sets, and prints, for every end-to-end metric, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.

Self-test of the reference checker:
    python3 slidebench/run.py --selftest
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
WORKLOADS = ["amazon-train", "wiki-stream", "text8-train", "amazon-serve"]

BUILD_TIMEOUT_S = 850
GEN_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("build timed out: " + " ".join(cmd))
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            log("build failed: " + " ".join(cmd))
            return None
    return CMAKE_DIR / target


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]}, spec)


def select_metrics(result, trace):
    """Keeps the metrics BENCHMARK.json declares, in its order, with units.

    The program prints every value it recorded.  A per-layer metric whose
    layer does not run on the workload reads 0; an end-to-end metric must be
    measured and above 0, or the run fails.
    """
    e2e, layer, _ = declared_metrics()
    recorded = result["metrics"]
    if not trace:
        bad = [n for n in e2e if not recorded.get(n, 0) > 0]
        if bad:
            log("end-to-end metrics not measured: " + ", ".join(bad))
            return None
    units = layer if trace else e2e
    result["metrics"] = {n: {"value": recorded.get(n, 0.0), "unit": u} for n, u in units.items()}
    return result


def run_once(exe, workload, seed, seconds, trace):
    """One benchmark run; returns the parsed result object or None."""
    work = BUILD / "run" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.monotonic()
    gen = subprocess.run([str(exe), "gen", "--workload", workload, "--seed", str(seed),
                          "--out", str(work)], timeout=GEN_TIMEOUT_S)
    if gen.returncode != 0:
        log("input generation failed")
        return None
    log(f"inputs for {workload} seed {seed} generated in {time.monotonic() - t0:.1f} s")
    proc = subprocess.run([str(exe), "run", "--workload", workload, "--dir", str(work),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"measured process failed with exit code {proc.returncode}")
        return None
    result = select_metrics(json.loads(lines[-1]), trace)
    if result is not None and trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        spans = work / "spans.csv"
        if spans.exists():
            shutil.move(str(spans), str(traces / f"{workload}-seed{seed}.csv"))
    shutil.rmtree(work, ignore_errors=True)
    return result


def steady(exe, runs):
    e2e, _, spec = declared_metrics()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in WORKLOADS:
        rows = []
        for seed in range(1, runs + 1):
            t0 = time.monotonic()
            r = run_once(exe, w, seed, spec["run_seconds"], 0)
            if r is None:
                log(f"{w} seed {seed}: run failed")
                return 1
            log(f"{w} seed {seed}: {time.monotonic() - t0:.1f} s, correct={r['correct']}, "
                f"failed {r['failed']}/{r['attempted']}")
            rows.append(r)
        print(f"\n{w}: {len(rows)} runs, seeds 1..{runs}, all correct: "
              f"{all(r['correct'] for r in rows)}, failed share: "
              f"{sorted({r['failed'] / r['attempted'] for r in rows})}")
        print(f"{'metric':34} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, unit in e2e.items():
            vals = [r["metrics"][name]["value"] for r in rows]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = "  > bound/3" if spread > bound / 3 else ""
            print(f"{name:34} {unit:6} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{bound:>6}{flag}", flush=True)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        exe = build("slidebench_selftest")
        return 1 if exe is None else subprocess.run([str(exe)], timeout=RUN_TIMEOUT_S).returncode

    if not args.steady and (args.workload is None or args.seed is None or not args.seconds):
        ap.error("--workload, --seed and --seconds are required")
    exe = build("slidebench")
    if exe is None:
        return 1
    if args.steady:
        return steady(exe, args.runs)
    result = run_once(exe, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
