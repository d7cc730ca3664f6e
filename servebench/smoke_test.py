#!/usr/bin/env python3
"""The serving benchmark's own smoke test.

    python3 servebench/smoke_test.py

Runs every workload at --tiny size through run.py, from the repository
root, and checks that:
  * each run exits 0 with a correct result line;
  * every end-to-end metric of BENCHMARK.json prints with its unit, and a
    traced run prints every per-layer metric with its unit;
  * two runs with the same seed give identical backlight_saved_pct,
    psnr_db, bytes_per_frame and stall_ratio.
Exits 1 on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("backlight_saved_pct", "psnr_db", "bytes_per_frame",
                 "stall_ratio")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"FAIL: {' '.join(cmd[1:])} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"FAIL: {workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"FAIL: {workload}: {result['failed']} failed checks")
    return result["metrics"]


def expect_metrics(workload, metrics, declared):
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        raise SystemExit(f"FAIL: {workload}: metrics {sorted(metrics)} != "
                         f"declared {sorted(names)}")
    for m in declared:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            raise SystemExit(f"FAIL: {workload}: {m['name']} unit "
                             f"{got['unit']!r} != {m['unit']!r}")
        if not isinstance(got["value"], (int, float)):
            raise SystemExit(f"FAIL: {workload}: {m['name']} is not a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        first = run(name, 7, 0)
        expect_metrics(name, first, bench["end_to_end"])
        second = run(name, 7, 0)
        for key in DETERMINISTIC:
            if first[key]["value"] != second[key]["value"]:
                raise SystemExit(f"FAIL: {name}: {key} differs between two "
                                 f"seed-7 runs: {first[key]['value']} vs "
                                 f"{second[key]['value']}")
        expect_metrics(name, run(name, 7, 1), bench["per_layer"])
        print(f"ok {name}: {len(bench['end_to_end'])} end-to-end and "
              f"{len(bench['per_layer'])} per-layer metrics; deterministic "
              f"metrics repeat")
    print("smoke test passed")


if __name__ == "__main__":
    main()
