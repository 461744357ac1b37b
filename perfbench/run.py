#!/usr/bin/env python3
"""StreamShare benchmark: build from source, run one workload, print metrics.

    python3 perfbench/run.py --workload grid_feed|serve_feed|serve_subscribe \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds a
Release tree of the system (src/ plus the streamshare_serve daemon) and of
the benchmark driver in .bench_build/; later runs only check it is up to
date. The run prints the host, its hardware threads, the build type and
the source revision, then the driver's output, whose last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 1 prints the
per-layer metrics instead of the end-to-end ones and keeps the spans in
.bench_build/traces/. The exit code is 0 only if the build, the run and
every output check succeeded.
"""

import argparse
import hashlib
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
WORKLOADS = ("grid_feed", "serve_feed", "serve_subscribe")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_revision():
    """The git commit when there is one, and a digest of the sources."""
    commit = "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return commit, digest.hexdigest()[:16]


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ beside perfbench/: run from a StreamShare checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench_driver", "streamshare_serve"])
    with open(log_path, "a") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                with open(log_path) as handle:
                    sys.stderr.write("".join(handle.readlines()[-30:]))
                fail("build failed (full log in .bench_build/build.log)")


def run_driver(args):
    work_dir = os.path.join(BUILD_DIR, "run",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [os.path.join(BUILD_DIR, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--serve-bin", os.path.join(BUILD_DIR, "streamshare_serve"),
               "--work-dir", work_dir]
    # Its own session, so that a timeout can stop the driver together with
    # every daemon it started.
    driver = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        output, _ = driver.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(driver.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    spans = os.path.join(work_dir, "spans-%s.jsonl" % args.workload)
    if os.path.exists(spans):
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        shutil.move(spans, os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed)))
    shutil.rmtree(work_dir, ignore_errors=True)
    lines = output.rstrip("\n").split("\n") if output else []
    for line in lines[:-1]:
        print(line)
    last = lines[-1] if lines else ""
    if not last.startswith("{"):
        if last:
            print(last)
        fail("%s exited with %d and printed no result" %
             (args.workload, driver.returncode))
    print(last, flush=True)
    return driver.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    commit, digest = source_revision()
    print("host=%s hw_threads=%d build_type=%s commit=%s source_digest=%s" %
          (platform.node(), os.cpu_count() or 1, BUILD_TYPE, commit, digest))
    print("workload=%s seed=%d seconds=%d trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace), flush=True)
    sys.exit(run_driver(args))


if __name__ == "__main__":
    main()
