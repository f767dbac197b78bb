#!/usr/bin/env python3
"""The benchmark's own test: every workload at smoke size, untraced and
traced, must pass every correctness gate and report exactly the metrics
BENCHMARK.json declares. serve-steady is not declared there but runs here
too.

    python3 perfbench/smoke_test.py

Run from the repository root; builds like perfbench/run.py does.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline-configure", "serve-steady", "serve-churn")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS), spec["workloads"]
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "2", "--trace", trace, "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().split("\n")[-1])
            except (ValueError, IndexError):
                failures.append(f"{label}: no result line (exit {proc.returncode})\n{proc.stderr}")
                continue
            problems = []
            if proc.returncode != 0 or not result["correct"]:
                problems.append(f"gates failed (exit {proc.returncode})")
            if result["attempted"] < 1 or result["failed"] != 0:
                problems.append(f"attempted {result['attempted']}, failed {result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"metrics {sorted(got)} differ from BENCHMARK.json")
            for name, m in result["metrics"].items():
                if not math.isfinite(m["value"]) or (trace == "0" and m["value"] <= 0):
                    problems.append(f"{name} = {m['value']}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{label}: {status}")
            if problems:
                failures.append(f"{label}: {'; '.join(problems)}\n{proc.stdout}")
    for f in failures:
        print(f, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
