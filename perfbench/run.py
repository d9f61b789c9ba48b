#!/usr/bin/env python3
"""Serving benchmark entry point: build servebench, run one workload.

    python3 perfbench/run.py --workload q3_raw --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the simddb library from the repository's
own sources) into $CARGO_TARGET_DIR/perfbench-<hash of the checkout path>,
default .bench_build/perfbench-<hash> under the repository root, then runs
servebench there. Each checkout gets its own build tree, so two checkouts
sharing one CARGO_TARGET_DIR never run each other's binary.

Build output, and a "perfbench: binary <path>" line, go to stderr;
servebench's stdout is passed through, so the last stdout line is the result
JSON. The exit code is servebench's (0 only when every response was
correct), or 1 when the build fails or the run overruns its time limit.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    tag = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    return base / ("perfbench-" + tag)


def build(bdir):
    """Configures once, then builds incrementally. Returns the servebench path."""
    bdir.mkdir(parents=True, exist_ok=True)
    steps = []
    # Written only by a configure that completed; a failed one is retried.
    if not (bdir / "cmake_install.cmake").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "servebench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return bdir / "servebench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="perturb one reference row (oracle self-test)")
    ap.add_argument("--describe", action="store_true",
                    help="print the seed's pool shape as JSON and exit")
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    print("perfbench: binary %s" % binary, file=sys.stderr)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           # Relative to servebench's working directory: keeps the Unix
           # socket path short however deep the checkout lies.
           "--socket", "perfbench-%d.sock" % os.getpid()]
    if args.trace:
        spans = bdir / "spans" / ("%s-seed%d.jsonl" % (args.workload, args.seed))
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans)]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    if args.describe:
        cmd.append("--describe")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=bdir, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
