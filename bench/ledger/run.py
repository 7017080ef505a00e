#!/usr/bin/env python3
"""Builds noble_ledger from source and runs one workload.

    python3 bench/ledger/run.py --workload wifi_bulk --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout. The first call configures and builds
into .bench_build/ledger (Release); later calls rebuild incrementally. The
binary's table goes to stdout, followed by one JSON line with the metrics
BENCHMARK.json names: its end_to_end metrics with --trace 0, its per_layer
metrics with --trace 1 (a traced run, spans written under
.bench_build/ledger/traces/). Exits non-zero, printing no result, when the
build or the run fails.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build" / "ledger"
BINARY = BUILD / "noble_ledger"
RUN_TIMEOUT_S = 150


def build():
    """Configures once and builds; build chatter goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "bench" / "ledger"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "noble_ledger", "-j4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    # Exit 1 is a failed correctness gate: still a result, with correct=false.
    if proc.returncode not in (0, 1) or not lines:
        print(f"run.py: noble_ledger exited {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])

    produced = report["layers"] if args.trace else report["metrics"]
    metrics = {}
    for metric in wanted:
        got = produced.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            print(f"run.py: noble_ledger did not report {metric['name']} "
                  f"in {metric['unit']}", file=sys.stderr)
            return 1
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({
        "correct": bool(report["ok"]) and proc.returncode == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
