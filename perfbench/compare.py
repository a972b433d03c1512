#!/usr/bin/env python3
"""Compare two sets of benchmark results (parent and change).

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are results files written by run.py, or directories
holding them (.bench_results/). Untraced runs only. For each workload
and end-to-end metric it prints both sides' medians and quartiles, the
fraction of (parent, change) pairs the change wins, and a verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range
  worse       the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, and not every change run beats every parent run
  no worse    otherwise

Runs pair up by seed where both sides ran the same seeds, else in file
order. Output digests of runs with the same workload and seed must
match across the two sets; mismatches are listed. The tool only warns:
it always exits 0 unless its inputs are unusable.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_results(paths):
    """Untraced results files under @p paths (files or directories)."""
    out = []
    for p in paths:
        files = sorted(glob.glob(os.path.join(p, "*.json"))) \
            if os.path.isdir(p) else [p]
        for f in files:
            with open(f) as fh:
                try:
                    r = json.load(fh)
                except ValueError:
                    continue
            prov = r.get("provenance") if isinstance(r, dict) else None
            if prov and not prov.get("trace"):
                out.append(r)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs_of(parent, change):
    """Pair (parent, change) runs by seed when possible, else by order."""
    ps = {r["provenance"]["seed"]: r for r in parent}
    cs = {r["provenance"]["seed"]: r for r in change}
    if len(ps) == len(parent) and len(cs) == len(change) and \
            set(ps) == set(cs):
        return [(ps[s], cs[s]) for s in sorted(ps)]
    return list(zip(parent, change))


def verdict(parent, change, pairs, better, bound):
    """The section-8 verdict for one metric; values are plain floats."""
    sign = 1.0 if better == "higher" else -1.0
    pm = statistics.median(parent)
    cm = statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(1 for p, c in pairs if (c - p) * sign > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    gain = (cm - pm) * sign / pm if pm else 0.0
    if gain > 0 and win_frac >= 0.9 and abs(cm - pm) > (q3 - q1):
        return "improved", win_frac
    if gain < -bound:
        return "worse", win_frac
    spread = (q3 - q1) / pm if pm else 0.0
    every_better = all((c - p) * sign > 0 for p in parent for c in change)
    if spread > bound and not every_better:
        return "unresolved", win_frac
    return "no worse", win_frac


def compare(parent_runs, change_runs, spec):
    """Rows of (workload, metric, parent stats, change stats, verdict)."""
    rows = []
    workloads = sorted({r["provenance"]["workload"]
                        for r in parent_runs + change_runs})
    for w in workloads:
        parent = [r for r in parent_runs if r["provenance"]["workload"] == w]
        change = [r for r in change_runs if r["provenance"]["workload"] == w]
        if not parent or not change:
            rows.append((w, None, None, None, "missing on one side", None))
            continue
        pairs = pairs_of(parent, change)
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in parent]
            cv = [r["metrics"][name]["value"] for r in change]
            pp = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                  for a, b in pairs]
            v, win = verdict(pv, cv, pp, m["better"], m["bound"])
            rows.append((w, m, pv, cv, v, win))
    return rows


def digest_mismatches(parent_runs, change_runs):
    seen = {}
    for r in parent_runs:
        key = (r["provenance"]["workload"], r["provenance"]["seed"])
        seen.setdefault(key, r.get("digests", {}))
    bad = []
    for r in change_runs:
        key = (r["provenance"]["workload"], r["provenance"]["seed"])
        if key in seen and seen[key] != r.get("digests", {}):
            bad.append(key)
    return sorted(set(bad))


def stats(values):
    q1, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g]" % (statistics.median(values), q1, q3)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="parent results file or directory")
    ap.add_argument("change", help="change results file or directory")
    args = ap.parse_args(argv)

    with open(SPEC) as f:
        spec = json.load(f)
    parent = load_results([args.parent])
    change = load_results([args.change])
    if not parent or not change:
        sys.stderr.write("compare: no untraced results on one side\n")
        return 2

    print("%-13s %-16s %-34s %-34s %7s %5s  %s"
          % ("workload", "metric", "parent median [q1, q3]",
             "change median [q1, q3]", "delta", "wins", "verdict"))
    for w, m, pv, cv, v, win in compare(parent, change, spec):
        if m is None:
            print("%-13s %s" % (w, v))
            continue
        delta = (statistics.median(cv) / statistics.median(pv) - 1) * 100
        print("%-13s %-16s %-34s %-34s %+6.1f%% %5.2f  %s"
              % (w, m["name"], stats(pv), stats(cv), delta, win, v))
    for w, seed in digest_mismatches(parent, change):
        print("WARNING: output digests differ for %s seed %s" % (w, seed))
    lengths = {r["provenance"]["seconds"] for r in parent + change}
    if len(lengths) > 1:
        print("WARNING: run lengths differ between runs: %s s"
              % sorted(lengths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
