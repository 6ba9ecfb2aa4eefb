#!/usr/bin/env python3
"""Builds perfbench against src/ and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload upload --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), the
server directories of the run to .bench_work/ (removed afterwards), and a
traced run's spans to .bench_traces/<workload>.{client,server}.tsv. The
last line of stdout is the result JSON; build output and the per-run
report go to stderr.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("upload", "search", "serve", "cluster")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def run(exe, args, work_dir):
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", work_dir]
    if args.trace:
        os.makedirs(".bench_traces", exist_ok=True)
        cmd += ["--trace-out", os.path.join(".bench_traces", args.workload)]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    # setup_s counts from here: the cold start of the benchmark process.
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run timed out")
    finally:
        # The server processes are children of the run; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail("run exited with code %d" % proc.returncode)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("run printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", default="",
                        help="damage one check's outcome (perfbench/"
                             "test_checks.py)")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join("src", "CMakeLists.txt")) and
            os.path.isfile(os.path.join("perfbench", "CMakeLists.txt"))):
        fail("run from the repository root: src/ and perfbench/ are needed")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        fail("build failed: %s" % error)

    work_dir = os.path.join(".bench_work",
                            "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        result = run(exe, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass
    print(json.dumps(result))


if __name__ == "__main__":
    main()
