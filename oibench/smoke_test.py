#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

Runs every workload for one second in both modes and checks that each run
is correct and emits every metric BENCHMARK.json names for that mode, finite
and with its unit. Run from the root of a checkout:

    python3 oibench/smoke_test.py
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# rebuild-under-load is not in BENCHMARK.json but stays runnable; smoke it too.
EXTRA_WORKLOADS = ["rebuild-under-load"]


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS
    failures = []
    for workload in workloads:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            try:
                result = run(workload, trace)
            except (AssertionError, subprocess.TimeoutExpired, ValueError) as e:
                failures.append(str(e))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
                failures.append(f"{label}: correct={result.get('correct')} "
                                f"attempted={result.get('attempted')} failed={result.get('failed')}")
            metrics = result.get("metrics", {})
            for m in expected[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    failures.append(f"{label}: metric {m['name']} missing")
                elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
                    failures.append(f"{label}: metric {m['name']} not finite: {got.get('value')}")
                elif got.get("unit") != m["unit"]:
                    failures.append(f"{label}: metric {m['name']} unit {got.get('unit')} != {m['unit']}")
            names = {m["name"] for m in expected[trace]}
            extra = sorted(set(metrics) - names)
            if extra:
                failures.append(f"{label}: metrics not named in BENCHMARK.json: {extra}")
            print(f"{label}: {len(metrics)} metrics checked", flush=True)
    for f in failures:
        print("FAIL", f)
    print("smoke test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
