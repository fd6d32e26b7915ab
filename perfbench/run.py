#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (which compiles the vlcsa library from the
parent source tree) into .bench_build/perfbench, runs the vlcsa_perfbench
program, and forwards its report.  The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; it is printed
only when vlcsa_perfbench succeeded and its metric names are exactly the ones
BENCHMARK.json declares for the mode (end_to_end for --trace 0, per_layer
for --trace 1).  Any failure exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(targets):
    """Configure and build `targets`; both are quick no-ops when up to date."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                    "--target", *targets], check=True, stdout=sys.stderr)


def git_commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return result.stdout.strip() if result.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the library sources, root build file and benchmark sources."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for directory, subdirs, names in os.walk(top):
            subdirs[:] = sorted(d for d in subdirs if not d.startswith("."))
            files += [os.path.join(directory, name) for name in sorted(names)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        build(["perfbench_selftest"])
        sys.exit(subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    build(["vlcsa_perfbench"])
    command = [os.path.join(BUILD_DIR, "vlcsa_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR, "--git-commit", git_commit(),
               "--source-digest", source_digest()]
    try:
        run = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"vlcsa_perfbench exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if run.returncode != 0:
        fail(f"vlcsa_perfbench exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("vlcsa_perfbench's last line is not a JSON object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)} are not the contract's")
    if set(result["metrics"]) != declared:
        missing = sorted(declared - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - declared)
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    try:
        main()
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build or run failed: {error}")
