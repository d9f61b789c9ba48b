#!/usr/bin/env python3
"""Self-test of the serving benchmark.

    python3 perfbench/selftest.py [--seconds 1] [--workloads a,b]

Checks, each printed as PASS or FAIL; the exit code is 0 only if all pass:

  oracle     A run whose reference has one corrupted row must report
             correct=false and failed > 0, and exit non-zero.
  untraced   A short --trace 0 run of each workload exits 0 with
             correct=true, failed == 0 and every end-to-end metric.
  traced     A short --trace 1 run of each workload exits 0 with every
             per-layer metric, writes its span file, and the replay's child
             spans account for at least 95% of the median root span.
  seeds      Two seeds give query pools with no line in common but the same
             shape: table row counts, line count, window widths, and each
             line's selectivity within 5% (relative) of the other seed's
             median.
  compare    compare.py's diff gives a set with a failed run, or with a
             metric missing from some runs, its own verdict and exit code 1,
             and passes two identical clean sets.
"""

import argparse
import contextlib
import io
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402
# Workloads servebench defines but BENCHMARK.json does not gate (README.md,
# "Gated and ungated workloads"); the self-test still covers them.
UNGATED_WORKLOADS = ["point_packed", "q3_parallel"]
SELECTIVITY_TOLERANCE = 0.05
MIN_CHILD_COVERAGE = 0.95

failures = []


def check(name, ok, detail=""):
    print("%s %s%s" % ("PASS" if ok else "FAIL", name,
                       "" if ok or not detail else ": " + detail))
    if not ok:
        failures.append(name)


def run(*extra):
    cmd = [sys.executable, str(HERE / "run.py")] + [str(x) for x in extra]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return p.returncode, result, p.stdout, p.stderr


def windows(line):
    r = re.search(r"r=\[(\d+),(\d+)\]", line)
    s = re.search(r"s=\[(\d+),(\d+)\]", line)
    return (int(r.group(2)) - int(r.group(1)), int(s.group(2)) - int(s.group(1)))


def check_compare():
    _, metrics = compare.load_spec(ROOT)

    def result_set(bad_seed=None, drop=None):
        runs = []
        for seed in range(1, 6):
            run = {"seed": seed, "correct": True, "attempted": 10, "failed": 0,
                   "exit_code": 0, "binary": "servebench",
                   "metrics": {"qps": {"value": 50.0 + seed, "unit": "1/s"},
                               "setup_s": {"value": 0.1, "unit": "s"}}}
            if seed == bad_seed:
                run.update(correct=False, failed=1, exit_code=1)
            if seed == drop:
                del run["metrics"]["qps"]
            runs.append(run)
        return {"workloads": {"q3_raw": runs}}

    def verdict(parent, change):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = compare.diff(parent, change, metrics)
        return code, out.getvalue()

    code, out = verdict(result_set(), result_set())
    check("compare: identical clean sets are 'same' with exit 0",
          code == 0 and " same" in out and "failed" not in out, out)
    code, out = verdict(result_set(), result_set(bad_seed=3))
    check("compare: a failed change run gives 'failed' and exit 1",
          code == 1 and out.rstrip().endswith("failed"), out)
    code, out = verdict(result_set(), result_set(drop=2))
    check("compare: a metric missing from some runs gives 'missing' and exit 1",
          code == 1 and "missing" in out, out)


def main():
    ap = argparse.ArgumentParser(description="Self-test of the serving benchmark.")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]

    check_compare()

    code, result, _, _ = run("--workload", workloads[0], "--seed", 7,
                             "--seconds", args.seconds, "--trace", 0,
                             "--corrupt-reference")
    check("oracle catches a corrupted reference (%s)" % workloads[0],
          code != 0 and result is not None and not result["correct"]
          and result["failed"] > 0,
          "exit %d, result %s" % (code, result and {k: result[k] for k in
                                                     ("correct", "failed")}))

    for w in workloads:
        code, result, out, err = run("--workload", w, "--seed", 3,
                                     "--seconds", args.seconds, "--trace", 0)
        ok = (code == 0 and result is not None and result["correct"]
              and result["failed"] == 0 and sorted(result["metrics"]) == sorted(e2e))
        check("untraced run of %s: correct, failed_ratio 0, all metrics" % w, ok,
              "exit %d, stderr %s" % (code, err.strip()[-300:]))

        code, result, out, err = run("--workload", w, "--seed", 3,
                                     "--seconds", args.seconds, "--trace", 1)
        ok = (code == 0 and result is not None and result["correct"]
              and sorted(result["metrics"]) == sorted(layers))
        check("traced run of %s: correct, all per-layer metrics" % w, ok,
              "exit %d, stderr %s" % (code, err.strip()[-300:]))
        m = re.search(r"child_coverage_median=([0-9.]+)", out)
        cover = float(m.group(1)) if m else 0.0
        check("traced run of %s: child spans cover the root (%.4f >= %.2f)"
              % (w, cover, MIN_CHILD_COVERAGE), cover >= MIN_CHILD_COVERAGE)
        m = re.search(r"spans=(\d+) written to (\S+)", out)
        check("traced run of %s: span file written" % w,
              m is not None and Path(m.group(2)).stat().st_size > 0)

        shapes = []
        for seed in (101, 202):
            code, desc, _, err = run("--workload", w, "--seed", seed,
                                     "--seconds", 1, "--describe")
            if code != 0 or desc is None:
                check("describe %s seed %d" % (w, seed), False, err.strip()[-300:])
                break
            shapes.append(desc)
        if len(shapes) == 2:
            a, b = shapes
            same_rows = (a["r_rows"], a["s_rows"], len(a["lines"])) == \
                (b["r_rows"], b["s_rows"], len(b["lines"]))
            same_windows = {windows(x) for x in a["lines"] + b["lines"]} == \
                {windows(a["lines"][0])}
            disjoint = not set(a["lines"]) & set(b["lines"])
            med = statistics.median(a["selectivity"])
            sel_ok = all(abs(x - med) <= SELECTIVITY_TOLERANCE * med
                         for x in b["selectivity"])
            check("seeds of %s: different pools, same shape" % w,
                  same_rows and same_windows and disjoint and sel_ok,
                  "rows %s, windows %s, disjoint %s, selectivity %s"
                  % (same_rows, same_windows, disjoint, sel_ok))

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
