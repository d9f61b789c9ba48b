#!/usr/bin/env python3
"""Repeat-and-compare for the serving benchmark.

Run a set of workloads N times (seeds 1..N unless --seed-base moves them) and
print each metric's median, quartiles and relative spread:

    python3 perfbench/compare.py run --workloads q3_raw,point_packed \
        --runs 10 --out parent.json [--trace 1] [--seconds 10] [--root DIR]

Compare two result sets, parent against change, one row per workload and
metric, by the rule of the choosing-metrics guide (section 8):

    python3 perfbench/compare.py diff parent.json change.json

Or measure two checkouts in alternating order (parent first on even runs,
change first on odd ones) and compare them:

    python3 perfbench/compare.py pair --parent DIR --change DIR \
        --workloads q3_raw --runs 10 --out-prefix cmp

Rules, per workload and metric, pairing runs by seed (by order when the two
sets used different seeds):
  spread    = (Q3 - Q1) / median over the runs (statistics.quantiles, n=4).
  gain      = the change is better in at least 9/10 of the pairs (ties count
              for neither side) and the medians differ by more than the
              parent's Q3 - Q1.
  regressed = the change's median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json (end-to-end metrics only).
  unresolved= the parent's spread is wider than the bound and not every change
              run beats every parent run; neither gain nor "same" is claimed.
  same      = none of the above.
  failed    = a run on either side was incorrect, exited non-zero or printed
              no metrics; the workload gets this one row instead of timings.
  missing   = a metric that some runs printed and others did not.
Any regressed, failed or missing row makes the exit code 1. `pair` also exits
1 when the two checkouts did not run separate servebench binaries.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_spec(root):
    with open(Path(root) / "BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, bound=None)
    return spec, metrics


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(root) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    result["seed"] = seed
    result["exit_code"] = p.returncode
    binary = re.search(r"^perfbench: binary (.+)$", p.stderr, re.M)
    result["binary"] = binary.group(1) if binary else None
    return result


def failed(run):
    return not run["correct"] or run["failed"] or run["exit_code"] or \
        not run["metrics"]


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def print_summary(results, metrics):
    print("%-13s %-40s %14s %14s %14s %8s %6s" %
          ("workload", "metric", "median", "Q1", "Q3", "spread", "bound"))
    for workload, runs in results["workloads"].items():
        bad = [r["seed"] for r in runs if failed(r)]
        if bad:
            print("%-13s FAILED runs (seeds): %s" % (workload, bad))
        names = [n for n in metrics if all(n in r["metrics"] for r in runs)]
        for name in names:
            vals = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarize(vals)
            bound = metrics[name].get("bound")
            flag = ""
            if bound is not None:
                flag = " !" if spread > bound else (" ~" if spread > bound / 3 else "")
            print("%-13s %-40s %14.6g %14.6g %14.6g %8.4f %6s%s" %
                  (workload, name, med, q1, q3, spread,
                   "-" if bound is None else bound, flag))
    print("spread flags: '!' wider than the bound, '~' wider than a third of it")


def run_set(root, workloads, runs, seed_base, seconds, trace, out):
    results = {"trace": trace, "seconds": seconds, "workloads": {}}
    for w in workloads:
        results["workloads"][w] = []
        for i in range(runs):
            r = run_once(root, w, seed_base + i, seconds, trace)
            results["workloads"][w].append(r)
            print("  %s seed %d: %s" % (w, seed_base + i,
                  "FAILED" if failed(r) else "ok"),
                  file=sys.stderr)
    if out:
        with open(out, "w") as f:
            json.dump(results, f, indent=1)
    return results


def better(meta, change, parent):
    return change < parent if meta["better"] == "lower" else change > parent


def diff(parent, change, metrics):
    print("%-13s %-40s %14s %14s %8s %6s  %s" %
          ("workload", "metric", "parent", "change", "ratio", "wins", "verdict"))
    worst = 0
    for workload, p_runs in parent["workloads"].items():
        c_runs = change["workloads"].get(workload)
        if not c_runs:
            print("%-13s missing from the change set" % workload)
            worst = 1
            continue
        # A failed run (wrong rows, ERR, crash, no metrics) on either side
        # voids the workload's timing verdicts: its own verdict is "failed".
        p_bad = sum(1 for r in p_runs if failed(r))
        c_bad = sum(1 for r in c_runs if failed(r))
        if p_bad or c_bad:
            print("%-13s %-40s %14d %14d %8s %6s  failed" %
                  (workload, "failed runs", p_bad, c_bad, "-", "-"))
            worst = 1
            continue
        # Pair runs by seed; sets measured on different seeds pair by order.
        p_by_seed = {r["seed"]: r for r in p_runs}
        if {r["seed"] for r in c_runs} == set(p_by_seed):
            pairs = [(p_by_seed[r["seed"]], r) for r in c_runs]
        else:
            pairs = list(zip(p_runs, c_runs))
        for name, meta in metrics.items():
            present = [name in p["metrics"] for p, _ in pairs] + \
                [name in c["metrics"] for _, c in pairs]
            if not any(present):
                continue  # the other trace mode's metric
            if not all(present):
                print("%-13s %-40s %14s %14s %8s %6s  missing" %
                      (workload, name, "-", "-", "-", "-"))
                worst = 1
                continue
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            p_med, p_q1, p_q3, p_spread = summarize(pv)
            c_med = statistics.median(cv)
            wins = sum(1 for a, b in zip(pv, cv) if better(meta, b, a))
            bound = meta.get("bound")
            verdict = "same"
            if wins >= 0.9 * len(pairs) and abs(c_med - p_med) > (p_q3 - p_q1):
                verdict = "gain"
            elif bound is not None and p_med and better(meta, p_med, c_med) and \
                    abs(c_med - p_med) > bound * abs(p_med):
                verdict = "regressed"
                worst = 1
            elif bound is not None and p_spread > bound and \
                    not all(better(meta, b, a) for a in pv for b in cv):
                verdict = "unresolved"
            print("%-13s %-40s %14.6g %14.6g %8.4f %3d/%-2d  %s" %
                  (workload, name, p_med, c_med,
                   c_med / p_med if p_med else 0.0, wins, len(pairs), verdict))
    return worst


def main():
    ap = argparse.ArgumentParser(
        description="Repeat-and-compare for the serving benchmark.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("run", "pair"):
        p = sub.add_parser(name)
        p.add_argument("--workloads", required=True,
                       help="comma-separated workload names")
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seed-base", type=int, default=1)
        p.add_argument("--seconds", type=float,
                       help="run length (default: run_seconds of BENCHMARK.json)")
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run_p = sub.choices["run"]
    run_p.add_argument("--root", default=str(HERE.parent),
                       help="checkout to run (default: this one)")
    run_p.add_argument("--out", help="write the result set here")
    pair_p = sub.choices["pair"]
    pair_p.add_argument("--parent", required=True, help="parent checkout")
    pair_p.add_argument("--change", required=True, help="change checkout")
    pair_p.add_argument("--out-prefix", default="compare")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    args = ap.parse_args()

    if args.cmd == "diff":
        _, metrics = load_spec(HERE.parent)
        with open(args.parent) as f:
            parent = json.load(f)
        with open(args.change) as f:
            change = json.load(f)
        return diff(parent, change, metrics)

    root = args.root if args.cmd == "run" else args.parent
    spec, metrics = load_spec(root)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",")
    if args.cmd == "run":
        results = run_set(root, workloads, args.runs, args.seed_base, seconds,
                          args.trace, args.out)
        print_summary(results, metrics)
        return 0

    # pair: alternate which side runs first, seed by seed.
    sets = {"parent": {"trace": args.trace, "seconds": seconds, "workloads": {}},
            "change": {"trace": args.trace, "seconds": seconds, "workloads": {}}}
    for w in workloads:
        for s in sets.values():
            s["workloads"][w] = []
        for i in range(args.runs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                r = run_once(getattr(args, side), w, args.seed_base + i,
                             seconds, args.trace)
                sets[side]["workloads"][w].append(r)
    for side, s in sets.items():
        with open("%s-%s.json" % (args.out_prefix, side), "w") as f:
            json.dump(s, f, indent=1)
        print("== %s" % side)
        print_summary(s, metrics)
    binaries = {side: {r["binary"] for runs in s["workloads"].values()
                       for r in runs}
                for side, s in sets.items()}
    if binaries["parent"] & binaries["change"] or None in \
            binaries["parent"] | binaries["change"]:
        print("parent and change did not run separate binaries: %s" % binaries)
        return 1
    return diff(sets["parent"], sets["change"], metrics)


if __name__ == "__main__":
    sys.exit(main())
