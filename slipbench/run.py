#!/usr/bin/env python3
"""Run one slipsim benchmark workload (see README.md).

    python3 slipbench/run.py --workload stencil|migratory|service \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the harness (Release, from the
checkout's src/) into $CARGO_TARGET_DIR/slipbench (default
.bench_build/slipbench) on first use, then runs it.  Build output goes
to stderr; the harness's report goes to stdout, its last line being the
JSON result.  Exits non-zero, printing no result, when the build or the
run fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stencil", "migratory", "service")
# A run measures for --seconds after seven set-ups of at most a few
# seconds each; allow twice the measuring time plus 100 s before killing it.
TIMEOUT_SLACK_S = 100


def build(build_dir):
    """Configure and build the harness; serialised by a lock file."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "slipbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("slipbench: no slipsim sources at %s/src" % ROOT,
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "slipbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("slipbench: build failed: %s" % e, file=sys.stderr)
        return 2

    # Scratch space for the socket and sample plans; relative, so the
    # socket path stays within the Unix-socket length limit.
    workdir = os.path.relpath(
        os.path.join(build_dir, "run-%d" % os.getpid()))
    spans = os.path.join(build_dir, "spans",
                         "%s-seed%d.jsonl" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--spans", os.path.relpath(spans)]
    timeout = 2 * args.seconds + TIMEOUT_SLACK_S
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("slipbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(out)
        print("slipbench: harness exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
