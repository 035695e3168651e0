#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at smoke size, untraced and traced,
and checks that the last stdout line is the result object, that the run
was correct, and that every metric BENCHMARK.json names is emitted, finite
and carries its declared unit. Exits nonzero on the first failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return f"exit {out.returncode}: {out.stderr.strip()[-500:]}"
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if result["correct"] is not True or result["attempted"] < 1:
        return f"correct={result['correct']} attempted={result['attempted']}"
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        return f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in expected})}"
    for m in expected:
        got = metrics[m["name"]]
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{m['name']}: value {value!r} is not a finite number"
        if got.get("unit") != m["unit"]:
            return f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            error = check_run(spec, workload, trace)
            status = "ok" if error is None else "FAIL " + error
            print(f"{workload} trace={trace}: {status}", flush=True)
            failures += error is not None
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
