#!/usr/bin/env python3
"""Build and run the qdpm benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository. The benchmark crate in
this directory is built from source (release profile) into
$CARGO_TARGET_DIR, default `.bench_build`, and then runs one workload; the
last line it prints is the result as one JSON object. `--workload all`
runs every workload in turn, for a person to read; it prints no single
result line.

An untraced run splits `--seconds` over PROCESSES fresh processes, one
after another, and reports the median of their results: how fast a
process runs the same calls depends on where its memory lands, and that
stays fixed for the life of the process. A traced run is one process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-dense", "serve-sparse-resume", "fleet-cohorts", "grid-drift"]
PROCESSES = 4
# Simulated metrics: every process of a run must report them bit for bit.
SIMULATED = ["energy_per_device_slice", "mean_wait_slices"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the benchmark binary and returns its path."""
    for needed in ("Cargo.toml", os.path.join("crates", "serve", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}: run from a checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    built = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if built.returncode != 0:
        fail(f"cargo build failed with exit code {built.returncode}")
    return os.path.join(target, "release", "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for name in names:
        if args.trace == "1":
            worst = max(worst, run_process(binary, name, args.seed, args.seconds, "1")[0])
        else:
            worst = max(worst, run_untraced(binary, name, args.seed, args.seconds))
    sys.exit(worst)


def run_process(binary, name, seed, seconds, trace):
    """Runs the benchmark binary once, echoing its output; returns its exit
    code and its last line of output."""
    cmd = [binary, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", trace]
    sys.stdout.flush()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else ""


def run_untraced(binary, name, seed, seconds):
    """Runs PROCESSES processes of `seconds / PROCESSES` each and prints
    the median of their metrics as the result line; returns the exit code."""
    each = max(1, round(seconds / PROCESSES))
    results = []
    for index in range(PROCESSES):
        print(f"process {index + 1} of {PROCESSES}, {each} s")
        code, last = run_process(binary, name, seed, each, "0")
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            result = None
        if code != 0 or result is None:
            print(f"perfbench: process {index + 1} exited with code {code}", file=sys.stderr)
            return code or 1
        results.append(result)
    correct = all(r["correct"] for r in results)
    for key in SIMULATED:
        values = {r["metrics"][key]["value"] for r in results}
        if len(values) != 1:
            print(f"FAILED check: {key} differs between processes: {sorted(values)}")
            correct = False
    if correct:
        print("check passed: simulated metrics identical in every process")
    metrics = {}
    for key, first in results[0]["metrics"].items():
        values = [r["metrics"][key]["value"] for r in results]
        metrics[key] = {"value": statistics.median(values), "unit": first["unit"]}
        print(f"  {key:<26} median {metrics[key]['value']:.6g} {first['unit']} of "
              + ", ".join(f"{v:.6g}" for v in values))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    main()
