#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload golden|sweep|serve \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the simulator library plus the `perfbench` binary)
with CMake into $CARGO_TARGET_DIR, or .bench_build when that is unset,
runs the benchmark's self-tests, then runs the binary. Its stdout passes
through; the last line is the result object. Build output goes
to stderr. Exits non-zero without a result when anything before the
measurement fails, e.g. when the simulator sources are missing.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = "perfbench"
BUILD_TYPE = "RelWithDebInfo"


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("golden", "sweep", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def run_quiet(cmd, env=None):
    """Run a build step with its output on stderr; True on success."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env, check=False)
    return proc.returncode == 0


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]):
            return False
    return run_quiet(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "perfbench", "perfbench_selftest"])


def source_id():
    """The git commit when this is a clone, else a digest of the sources."""
    if os.path.exists(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 check=False)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: run from the repository root "
                         "(no src/CMakeLists.txt here)\n")
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        sys.stderr.write("perfbench: build failed\n")
        return 1

    if subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                      stdout=sys.stderr, check=False).returncode:
        sys.stderr.write("perfbench: self-tests failed\n")
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    # The binary itself clears the simulator's GS_* knobs and records
    # them, so none leaks into a measurement.
    proc = subprocess.run(cmd, check=False)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
