#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark, at tiny scale (a few seconds).

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py at --scale 0.05 for one second,
untraced and traced, and checks that:
  * the run succeeds and its result line holds exactly the metrics that
    BENCHMARK.json names for that mode, with their units;
  * the per-source query costs, as paid through each workload's stack,
    agree across workloads (the Blue Nile sessions cost the same on local,
    remote and paged; the whole list costs the same on local and
    remote) and repeat for the same seed;
  * the correctness gate fires: with --corrupt-skyline the run exits
    non-zero, reports correct = false and counts the failed session.
Exits non-zero if any check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("local", "remote", "paged")
SEED = 7


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--scale", "0.05", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    info = next((json.loads(l)["run_info"] for l in lines if l.startswith('{"run_info"')),
                None)
    return proc, result, info


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    costs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc, result, info = run(workload, trace)
            name = f"{workload} --trace {trace}"
            check(proc.returncode == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name}: runs and passes the correctness gate")
            if result is None:
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace], f"{name}: reports exactly the named metrics")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{name}: every metric value is a number")
            check(info is not None and all(k in info for k in
                                           ("seed", "nproc", "build_type", "compiler", "commit")),
                  f"{name}: records seed, nproc, build type, compiler and commit")
            if info is not None:
                costs.setdefault(workload, []).append(info["query_cost_by_source"])

    for workload, seen in costs.items():
        check(all(c == seen[0] for c in seen), f"{workload}: same seed, same query costs")
    if len(costs) == len(WORKLOADS):
        bluenile = {w: costs[w][0]["bluenile"] for w in WORKLOADS}
        check(len(set(bluenile.values())) == 1,
              f"Blue Nile sessions cost the same on every workload: {bluenile}")
        check(costs["local"][0] == costs["remote"][0],
              "local and remote session lists cost the same")

    for workload in WORKLOADS:
        proc, result, _ = run(workload, 0, "--corrupt-skyline")
        check(proc.returncode != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"{workload}: a corrupted skyline fails the gate and the run")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
