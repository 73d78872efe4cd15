#!/usr/bin/env python3
"""Wire-decision benchmark entry point (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload us-viewers --seed 1 --seconds 20 --trace 0

Builds osap_serve and the perfbench binary from the repository's sources
into .bench_build/perfbench, prepares the artifact cache and recorded
trajectories once into .bench_build/work, then runs one benchmark run.
The last line of standard output is the result object.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("us-viewers", "upi-viewers", "us-churn-100k")
REQUIRED = ("CMakeLists.txt", "src/CMakeLists.txt", "tools/osap_serve.cpp",
            "perfbench/CMakeLists.txt")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a set-up command with its output on stderr; fails on error."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout)
    if result.returncode != 0:
        fail(f"{' '.join(cmd[:2])} failed with code {result.returncode}")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                    BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "-j", jobs], 850)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail("run from a repository checkout; missing " + ", ".join(missing))

    build()
    binary = os.path.join(BUILD, "perfbench")
    if not os.path.exists(os.path.join(WORK, "prepared")):
        # Trains the bundle (minutes, once per checkout) and records the
        # trajectories; the marker is written last.
        run_logged([binary, "prepare", "--work", WORK], 850)

    cmd = [binary, "run", "--work", WORK,
           "--server", os.path.join(BUILD, "osap_serve"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own process group, so a stuck run takes its server down with it.
    proc = subprocess.Popen(cmd, start_new_session=True)
    # A SIGTERM to this script also takes the run's group down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code is None:
        fail("run exceeded its time limit")
    sys.exit(code)


if __name__ == "__main__":
    main()
