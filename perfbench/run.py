#!/usr/bin/env python3
"""Builds and runs the gkeys performance benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>
    python3 perfbench/run.py --workload all [--seed n] [--seconds s]
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is compiled from src/ into
.bench_build/ (or $CARGO_TARGET_DIR when set) on first use. One workload runs
per process; its last stdout line is the JSON result object. `--workload all`
runs every workload in turn, each in its own process, and prints the
end-to-end summary of each. See perfbench/WORKLOADS.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["match_dbpedia", "session_dbpedia", "ingest_powerlaw"]
RUN_TIMEOUT_S = 170


def build(out_dir):
    """Configures and builds the benchmark. Returns the build directory, or
    None (reported on stderr) on any failure, e.g. missing library
    sources."""
    build_dir = os.path.join(out_dir, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j", jobs],
        ):
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                sys.stderr.write("perfbench: build failed: %s\n" %
                                 " ".join(cmd))
                return None
    return build_dir


def run_one(build_dir, out_dir, workload, seed, seconds, trace):
    """Runs one workload, forwarding its output; returns (exit code, the
    parsed result object or None)."""
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 1, None
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload not in WORKLOADS + ["all"]:
        parser.error("--workload must be one of %s or all" %
                     ", ".join(WORKLOADS))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = build(out_dir)
    if build_dir is None:
        return 1
    if args.self_test:
        selftest = os.path.join(build_dir, "perfbench_selftest")
        return subprocess.run([selftest]).returncode
    if args.workload != "all":
        code, _ = run_one(build_dir, out_dir, args.workload, args.seed,
                          args.seconds, args.trace == 1)
        return code

    # Every workload in its own process, then one summary per workload.
    summary = []
    for name in WORKLOADS:
        code, result = run_one(build_dir, out_dir, name, args.seed,
                               args.seconds, args.trace == 1)
        if code != 0 or result is None:
            return code or 1
        summary.append((name, result))
    print("\nsummary (seed %d, %g s per workload)" % (args.seed, args.seconds))
    for name, result in summary:
        print("%-16s correct=%s attempted=%d failed=%d" % (
            name, result["correct"], result["attempted"], result["failed"]))
        for metric, m in result["metrics"].items():
            print("  %-36s %.6g %s" % (metric, m["value"], m["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
