#!/usr/bin/env python3
"""Runs one workload of the benchmark and prints its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (and the library sources under src/) into .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench); later calls rebuild incrementally. The
last line of stdout is the JSON result: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Every run also appends its
result and host counters (steal share, load average) to runs.jsonl in the
build directory, so a noisy run can be told apart from a regression.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; kills it on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out: " + " ".join(cmd))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"), 2)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                      BUILD_TIMEOUT_S) != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", build_dir, "--target", "esd_perfbench",
                   "-j", jobs], max(1, deadline - time.monotonic())) != 0:
        fail("build failed")
    return os.path.join(build_dir, "esd_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload, 2)
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in expected}

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    binary = build(build_dir)

    started = time.monotonic()
    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_BUDGET_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    err = err.decode(errors="replace")
    sys.stderr.write(err)
    lines = out.decode(errors="replace").strip().splitlines()
    if not lines:
        fail("no result (exit code %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    # Keep exactly the metrics BENCHMARK.json names for this mode; a missing,
    # mis-unit or non-finite one is a defect of the benchmark, not a result.
    metrics = {}
    for name, unit in expected.items():
        m = result["metrics"].get(name)
        if m is None or m["unit"] != unit or not math.isfinite(m["value"]):
            fail("metric %s missing or malformed: %r" % (name, m))
        metrics[name] = m
    result["metrics"] = metrics

    host = {}
    match = re.search(r"steal_share=(\S+) loadavg1=(\S+) cpu_us_per_op=(\S+)",
                      err)
    if match:
        host = {"steal_share": float(match.group(1)),
                "loadavg1": float(match.group(2)),
                "cpu_us_per_op": float(match.group(3)),
                "windows": len(re.findall(r"perfbench: window ", err))}
    with open(os.path.join(build_dir, "runs.jsonl"), "a") as log:
        log.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "wall_s": round(time.monotonic() - started, 3),
            "host": host, "result": result}) + "\n")

    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
