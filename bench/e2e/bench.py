#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 bench/e2e/bench.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: olap_tpch, serve_mix, write_churn, spill_sort. The build goes to
$CARGO_TARGET_DIR/e2e (default .bench_build/e2e); later runs rebuild only
what changed. `--mcsort-root <tree>` builds the same benchmark against the
library of another source tree instead (compare.sh uses it). Every other
flag is passed on to mcsort_e2e, whose last line of output is the JSON
result. Build output goes to stderr.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.relpath(HERE)
PARAMS = os.path.join(SOURCE, "cost_params.txt")
BUILD_JOBS = "4"

# The process running now (a build step or mcsort_e2e), so that SIGTERM or
# SIGINT can stop it together with everything it started.
running = []


def stop(_signum, _frame):
    for child in running:
        try:
            os.killpg(child.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass


def run(command, **kwargs):
    """Runs `command` in its own process group and waits for it to end."""
    child = subprocess.Popen(command, start_new_session=True, **kwargs)
    running.append(child)
    try:
        return child.wait(), child.pid
    finally:
        running.remove(child)


def build(build_dir, mcsort_root):
    """Configures (once) and builds mcsort_e2e; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if mcsort_root:
            configure.append("-DMCSORT_ROOT=" + os.path.abspath(mcsort_root))
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "mcsort_e2e",
                  "-j", BUILD_JOBS])
    for step in steps:
        if run(step, stdout=sys.stderr, stderr=sys.stderr)[0]:
            sys.exit("bench.py: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "mcsort_e2e")


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--mcsort-root", default="")
    known, passed = parser.parse_known_args()
    passed += ["--workload", known.workload, "--seed", known.seed,
               "--trace", known.trace]
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "e2e")
    if known.mcsort_root:
        root = os.path.abspath(known.mcsort_root).encode()
        build_dir += "-" + hashlib.sha1(root).hexdigest()[:12]
    binary = build(build_dir, known.mcsort_root)

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary] + passed + ["--params", PARAMS, "--work-dir", work_dir]
    if known.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%s.json" % (known.workload, known.seed))]

    # The program reads MCSORT_* knobs from the environment; the benchmark
    # fixes every setting itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MCSORT_")}
    code, pid = run(command, env=env)
    # A run that was stopped could not remove its work directory.
    shutil.rmtree(os.path.join(work_dir, "%s-%d" % (known.workload, pid)),
                  ignore_errors=True)
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
