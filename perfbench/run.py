#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. Builds perfbench/ (a CMake project over the
repository's src/) into $CARGO_TARGET_DIR or .bench_build, runs one
workload, and passes its output through; the last line is the JSON
result. Exits non-zero when the build fails, a correctness gate fails or
the run overruns its time limit. See perfbench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline-configure", "serve-steady", "serve-churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, env):
    cmake_dir = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                             timeout=max(1, deadline - time.monotonic()))
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(cmake_dir, "perfbench")


def reap_group(pgid):
    """Kills whatever is left of the run's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, every gate asserted")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no locpriv sources under {ROOT}/src; run from a full checkout")
    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    # Compiler and run scratch files stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(build_dir, env)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(build_dir, "work")]
    if args.smoke:
        cmd.append("--smoke")

    # Its own process group, so the shard fleet it forks goes with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.communicate()
        fail(f"{args.workload} overran {RUN_TIMEOUT_S} s")
    reap_group(proc.pid)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stdout.write(out)
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(proc.returncode if proc.returncode != 0 else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
