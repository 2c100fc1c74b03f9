#!/usr/bin/env python3
"""End-to-end discovery-session benchmark.

Builds perfbench/ (which compiles the hdsky library from src/) in Release
mode, runs one workload of hdsky_e2e_bench and prints its result: the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

    python3 perfbench/run.py --workload local|remote|paged \
        --seed N --seconds S --trace 0|1 [--scale F] [--corrupt-skyline]

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (BENCHMARK.json lists both). The build goes to
$CARGO_TARGET_DIR (default .bench_build) under the checkout root, and so do
the run's scratch files and the span dump of traced runs. The exit code is
non-zero when the build fails, when the run fails or times out, or when
any session's skyline or query cost is wrong.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("local", "remote", "paged")
ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def checkout_env(out):
    """The environment for child processes: temporary files (the
    compiler's among them) stay inside the build directory."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def run_child(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns (exit code, stdout).
    On timeout the whole group (make's compilers too) is killed and
    reaped before TimeoutExpired propagates."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return proc.returncode, out


def build(out):
    """Configures (once) and builds the benchmark; returns the binary."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "hdsky_e2e_bench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            code, _ = run_child(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                                stderr=sys.stderr, env=checkout_env(out))
            if code != 0:
                raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out / "hdsky_e2e_bench"


def git_commit():
    # The benchmark may run from a plain source export: only ask git when
    # the checkout itself is a repository.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--scale", type=float, default=1.0,
                   help="table size multiplier in (0, 1]; the self-tests use 0.05")
    p.add_argument("--corrupt-skyline", action="store_true",
                   help="self-test hook: corrupt one skyline before it is checked")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0 or not 0 < args.scale <= 1:
        p.error("--seed must be >= 0, --seconds > 0, --scale in (0, 1]")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"hdsky sources not found under {ROOT}; run from a full checkout")
        return 2
    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 3

    work = out / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale), "--work-dir", str(work),
           "--commit", git_commit()]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{args.workload}-seed{args.seed}.tsv")]
    if args.corrupt_skyline:
        cmd.append("--corrupt-skyline")
    try:
        code, stdout = run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                 text=True, env=checkout_env(out))
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted",
                                                       "failed", "metrics"}:
        log(f"no result line (exit code {code})")
        return code if code > 0 else 5
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if code != 0 or not result["correct"]:
        log(f"correctness gate failed: {result['failed']} of "
            f"{result['attempted']} sessions")
        return code if code > 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
