#!/usr/bin/env python3
"""Regression gate for the bench_chaos_scale baseline.

Compares a fresh BENCH_chaos_scale.json ("runs" rows,
bench_chaos_scale/v1 schema) against the checked-in baseline, keyed by
(arch, storm, damping). For every cell present in BOTH files:

  * counter_fingerprint must equal the baseline (a hash of the run's
    host-independent counters: any difference is a real change in what
    the simulation does, never host noise);
  * persistent invariant violations must equal the baseline (the
    checked-in baseline is all-zero, so any new persistent loop / black
    hole / stale route is an error);
  * the run must have reconverged (reconverge_ms >= 0);
  * reconverge_ms must not regress by more than the threshold
    (default 20%) over the baseline cell;
  * the storm must actually have been injected (storm_transitions > 0).

Cells only present on one side are reported but never fail the gate, so
CI can run a reduced --ads sweep against the full checked-in baseline
(absolute times differ across AD counts, so cells are only compared
when both sides ran the same grid -- the 'ads' field must match too).

The damping A/B is gated within the CURRENT file alone: for every
damped flap-storm row with a matching undamped row, the update-churn
drop must be at least --min-churn-drop (default 5x).

Usage:
  tools/check_bench_chaos_scale.py --baseline BENCH_chaos_scale.json \
      --current build/BENCH_chaos_scale.json [--threshold 0.20] \
      [--min-churn-drop 5.0]

Exit status: 0 = within threshold, 1 = regression, 2 = bad input.
"""

import argparse
import json
import sys


def load_runs(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_chaos_scale: cannot read {path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "bench_chaos_scale/v1" or "runs" not in doc:
        print(f"check_bench_chaos_scale: {path} is not a "
              f"bench_chaos_scale/v1 file", file=sys.stderr)
        sys.exit(2)
    return {(r["arch"], r["storm"], r["damping"], r["ads"]): r
            for r in doc["runs"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True,
                    help="checked-in BENCH_chaos_scale.json")
    ap.add_argument("--current", required=True,
                    help="freshly produced BENCH_chaos_scale.json")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="max fractional reconverge_ms regression "
                         "(default 0.20)")
    ap.add_argument("--min-churn-drop", type=float, default=5.0,
                    help="min damped/undamped update-churn ratio for the "
                         "DV flap-storm A/B (default 5.0)")
    args = ap.parse_args()

    baseline = load_runs(args.baseline)
    current = load_runs(args.current)

    failures = []

    # Absolute gates on every current cell (no baseline needed).
    for key in sorted(current):
        arch, storm, damping, ads = key
        cur = current[key]
        label = f"{arch} {storm} damping={damping} ads={ads}"
        if cur["persistent_violations"] != 0:
            failures.append(
                f"{label}: {cur['persistent_violations']} persistent "
                f"invariant violation(s)")
        if cur["reconverge_ms"] < 0:
            failures.append(f"{label}: never reconverged")
        if cur["storm_transitions"] <= 0:
            failures.append(f"{label}: storm injected no transitions")

    # Damping A/B within the current file.
    for key in sorted(current):
        arch, storm, damping, ads = key
        if not damping or storm != "flap-storm":
            continue
        base_key = (arch, storm, False, ads)
        if base_key not in current:
            continue
        undamped = current[base_key]["storm_msgs"]
        damped = current[key]["storm_msgs"]
        ratio = undamped / damped if damped else float("inf")
        status = "ok"
        if ratio < args.min_churn_drop:
            status = "CHURN REGRESSION"
            failures.append(
                f"{arch} flap-storm ads={ads}: damping cut churn only "
                f"{ratio:.2f}x (< {args.min_churn_drop:.1f}x): "
                f"{undamped} -> {damped} updates")
        print(f"  {arch:<6} flap-storm ads={ads:<6} damping churn drop "
              f"{ratio:6.2f}x [{status}]")

    # Relative gates against the baseline.
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("check_bench_chaos_scale: no (arch, storm, damping, ads) "
              "cells in common with the baseline; skipping relative gates")
    for key in sorted(set(baseline) ^ set(current)):
        side = "baseline" if key in baseline else "current"
        print(f"  note: {key[0]} {key[1]} damping={key[2]} ads={key[3]} "
              f"only in {side}; skipped")
    for key in shared:
        arch, storm, damping, ads = key
        base = baseline[key]
        cur = current[key]
        label = f"{arch} {storm} damping={damping} ads={ads}"
        status = "ok"
        if cur["counter_fingerprint"] != base["counter_fingerprint"]:
            status = "WORK CHANGED"
            failures.append(
                f"{label}: counter_fingerprint {cur['counter_fingerprint']} "
                f"vs baseline {base['counter_fingerprint']}")
        if cur["persistent_violations"] != base["persistent_violations"]:
            status = "VIOLATIONS"
            failures.append(
                f"{label}: {cur['persistent_violations']} persistent "
                f"violations vs baseline {base['persistent_violations']}")
        if base["reconverge_ms"] > 0 and cur["reconverge_ms"] > \
                base["reconverge_ms"] * (1.0 + args.threshold):
            status = "RECONV REGRESSION"
            failures.append(
                f"{label}: reconverge {cur['reconverge_ms']:.0f} ms vs "
                f"baseline {base['reconverge_ms']:.0f} ms")
        print(f"  {label:<48} reconv {cur['reconverge_ms']:8.1f} ms "
              f"(baseline {base['reconverge_ms']:8.1f}) [{status}]")

    if failures:
        print(f"check_bench_chaos_scale: {len(failures)} failure(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"check_bench_chaos_scale: {len(current)} current cell(s) clean, "
          f"{len(shared)} compared against baseline")


if __name__ == "__main__":
    main()
