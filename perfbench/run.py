#!/usr/bin/env python3
"""Build and run the real-path benchmark of the guardian runtime.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rpc_small --seed 1 --seconds 10 --trace 0

Builds the runtime libraries from src/ and the perfbench binary (a Release
CMake build under $CARGO_TARGET_DIR, default .bench_build), runs one
workload, and relays its output. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The metric names and units are checked against BENCHMARK.json, so the
benchmark and its description cannot drift apart.

Build output goes to standard error. Exits non-zero without printing a
result when the runtime sources are missing, the build fails or the run
exceeds its time limit; a failed output check prints its result
(correct: false) and exits non-zero.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("rpc_small", "stream_put", "airline_wan")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(out), "-j", jobs]

    def attempt():
        for cmd in (configure, compile_):
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                return False
        return True

    if attempt():
        return
    # A cache left by a checkout at another path makes CMake refuse to
    # configure; start over once from an empty build directory.
    if (out / "CMakeCache.txt").exists():
        shutil.rmtree(out)
        if attempt():
            return
    fail("build failed")


def expected_metrics(trace):
    """(name -> unit) the run must print, from BENCHMARK.json if present."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the benchmark's last line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("the result has the wrong keys")
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
                 f"extra {extra}, or a unit differs")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"runtime sources not found under {ROOT / 'src'}")
    out = build_dir()
    build(out)

    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(out / f"spans-{args.workload}.csv")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")

    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    result = check_result(lines[-1], args.trace)
    # A wrong answer still prints its result (correct: false), then fails.
    print(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        fail(f"output check failed (exit code {proc.returncode})")


if __name__ == "__main__":
    main()
