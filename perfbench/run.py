#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-hit --seed 1 --seconds 10 --trace 0

Builds the system and the driver from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and prints the driver's report followed by one JSON object on the
last line of stdout. With --trace 1 the op and call spans of the last traced
repetition are written to <build dir>/spans/<workload>.csv.

Exits non-zero, without a result line, if the build fails; exits non-zero
with correct=false on a failed output check, a determinism-guard mismatch or
a ledger that does not close.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-hit", "serve-miss", "proc-faulted")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build(out):
    # Build chatter goes to stderr: stdout's last line is the result.
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def expected_metrics(trace):
    """Metric names and units the result must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(os.path.dirname(out), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, args.workload + ".csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        print("perfbench: driver printed no result (exit %d)" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)

    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if proc.returncode == 0 and got != want:
        print("perfbench: metrics differ from BENCHMARK.json: %s" % sorted(set(got) ^ set(want)),
              file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
