#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the src/ libraries it links) into .bench_build/perfbench;
later calls rebuild incrementally. Every call runs the statistics self-test
after building, then the benchmark binary, whose stdout is passed through.
The binary's last stdout line is the result JSON; this script checks that
its metric names are exactly those BENCHMARK.json declares for the chosen
--trace mode. Exit codes: the binary's (0 pass, 1 failed check), 2 usage,
3 build failure, 4 self-test failure, 5 malformed result.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                         + gen)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                if "-S" in cmd:  # a failed configure must not stick
                    shutil.rmtree(os.path.join(BUILD, "CMakeFiles"),
                                  ignore_errors=True)
                    cache = os.path.join(BUILD, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                return False
    return True


def selftest():
    exe = os.path.join(BUILD, "perfbench_selftest")
    proc = subprocess.run([exe], capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        return False
    return True


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(last_line, trace):
    """Returns an error message, or None when the result line is valid."""
    try:
        result = json.loads(last_line)
    except ValueError:
        return "last stdout line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    declared = declared_metrics(trace)
    if declared is not None and set(result["metrics"]) != declared:
        missing = sorted(declared - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - declared)
        return "metric names differ from BENCHMARK.json: missing %s, " \
               "undeclared %s" % (missing, extra)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    if not build():
        sys.stderr.write("perfbench: build failed (log: %s)\n" %
                         os.path.join(BUILD, "build.log"))
        return 3
    if not selftest():
        sys.stderr.write("perfbench: statistics self-test failed\n")
        return 4
    if args.selftest:
        print("perfbench selftest: PASS")
        return 0

    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir,
           "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % BINARY_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], args.trace == 1) if proc.stdout else \
        "no output"
    if error is not None and proc.returncode in (0, 1):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("perfbench: malformed result: %s\n" % error)
        return 5
    sys.stdout.write(proc.stdout)
    return proc.returncode if proc.returncode >= 0 else 1  # killed by a signal


if __name__ == "__main__":
    sys.exit(main())
