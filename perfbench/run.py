#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run from the repository root. The first call configures and builds the
`perfbench` package (which compiles the simulator from `src/`) into
`.bench_build/` as a Release build; later calls rebuild incrementally. The
workload then runs in its own process and its report is passed through: the
last line of output is the JSON result. With `--trace 1` the spans of the
traced pass are written to `.bench_build/trace-<workload>-seed<n>.json`
(Chrome trace format).

Exits with the benchmark's status (1 when a check failed), or non-zero
without printing a result when the build or the run itself fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
BUILD = PACKAGE.parent / ".bench_build"
BINARY = BUILD / "perfbench"
WORKLOADS = ("fleet-1000", "fleet-100-churn", "paper-grid")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build() -> bool:
    """Configure and build the benchmark (incrementally); True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    build_cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench",
                 "-j", jobs]
    for cmd in (configure, build_cmd):
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: build step failed: {exc}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return BINARY.exists()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for the package's tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        return 1

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--trace-out",
                str(BUILD / f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print(f"perfbench: no result (exit status {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
