#!/usr/bin/env python3
"""Regression gate for the bench_scale baseline.

Compares a fresh BENCH_scale.json ("runs" rows, bench_scale/v1 schema)
against the checked-in baseline: for every (arch, ads) cell present in
BOTH files, events/sec must not regress by more than the threshold
(default 20%). Cells only present on one side are reported but never
fail the gate, so CI can run a --max-ads 1000 subset against the full
checked-in sweep. Correctness is also gated: a current run that fails to
deliver every probe its baseline cell delivered is an error regardless
of throughput.

The host-independent work counters are gated exactly: events, msgs_sent
and bytes_sent must equal the baseline cell's. Any difference is a real
change in what the simulation does, never host noise; a change that
means to alter them re-records the baseline.

Usage:
  tools/check_bench_scale.py --baseline BENCH_scale.json \
      --current build/BENCH_scale.json [--threshold 0.20]

Exit status: 0 = within threshold, 1 = regression, 2 = bad input.
"""

import argparse
import json
import sys

# Work counters that must match the baseline cell exactly.
EXACT_COUNTERS = ("events", "msgs_sent", "bytes_sent")


def load_runs(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_scale: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "bench_scale/v1" or "runs" not in doc:
        print(f"check_bench_scale: {path} is not a bench_scale/v1 file",
              file=sys.stderr)
        sys.exit(2)
    return {(r["arch"], r["ads"]): r for r in doc["runs"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True,
                    help="checked-in BENCH_scale.json")
    ap.add_argument("--current", required=True,
                    help="freshly produced BENCH_scale.json")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="max fractional events/sec regression (default 0.20)")
    args = ap.parse_args()

    baseline = load_runs(args.baseline)
    current = load_runs(args.current)

    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("check_bench_scale: no (arch, ads) cells in common",
              file=sys.stderr)
        sys.exit(2)
    for key in sorted(set(baseline) ^ set(current)):
        side = "baseline" if key in baseline else "current"
        print(f"  note: {key[0]} ads={key[1]} only in {side}; skipped")

    failures = []
    for arch, ads in shared:
        base = baseline[(arch, ads)]
        cur = current[(arch, ads)]
        ratio = cur["events_per_sec"] / base["events_per_sec"]
        status = "ok"
        if ratio < 1.0 - args.threshold:
            status = "REGRESSION"
            failures.append(
                f"{arch} ads={ads}: {cur['events_per_sec']:.0f} ev/s vs "
                f"baseline {base['events_per_sec']:.0f} ({ratio:.2%})")
        for counter in EXACT_COUNTERS:
            if cur[counter] != base[counter]:
                status = "WORK CHANGED"
                failures.append(
                    f"{arch} ads={ads}: {counter} {cur[counter]} vs "
                    f"baseline {base[counter]}")
        if cur["probe_delivered"] < base["probe_delivered"]:
            status = "DELIVERY LOSS"
            failures.append(
                f"{arch} ads={ads}: delivered {cur['probe_delivered']}/"
                f"{cur['probes']} probes vs baseline "
                f"{base['probe_delivered']}/{base['probes']}")
        print(f"  {arch:<6} ads={ads:<7} events/sec {ratio:7.2%} of "
              f"baseline, probes {cur['probe_delivered']}/{cur['probes']} "
              f"[{status}]")

    if failures:
        print(f"check_bench_scale: {len(failures)} failure(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"check_bench_scale: {len(shared)} cell(s) within "
          f"{args.threshold:.0%} of baseline, work counters identical")


if __name__ == "__main__":
    main()
