#!/usr/bin/env python3
"""Regression gate for the bench_restart baseline.

Compares a fresh BENCH_restart.json ("runs" rows, bench_restart/v1
schema) against the checked-in baseline, keyed by (arch, mode, ads).
The three modes per arch are the restart-storm A/B:

  cold      -- no graceful restart, no overload protection (baseline)
  gr        -- GR grace > outage plus bounded prioritized ingress queues
  gr-flush  -- GR grace < outage: every grace window expires and the
               stale state must be flushed

Absolute gates on every cell in the CURRENT file (no baseline needed):

  * the storm must actually have crashed nodes (node_crashes > 0) and
    the run must have reconverged (reconverge_ms >= 0);
  * "gr" cells: forwarding continuity through the storm must be at
    least --min-continuity (default 99.0%), every grace window must
    have ended in a recovery handover (gr_recoveries > 0), no
    persistent invariant violation may survive, and the bounded
    ingress queues must be respected (peak_queue_depth <=
    --max-peak-queue, default 64 = the configured limit);
  * "gr-flush" cells: every grace window must have expired into a
    flush (gr_flushes > 0) and no persistent stale-route violation may
    survive the flush;
  * the A/B itself: per arch, the "gr" cell must beat the "cold" cell's
    continuity by at least --min-continuity-gain points (default 10.0).

Cells are also gated RELATIVELY, like check_bench_chaos_scale: for
cells present in both files with matching 'ads', counter_fingerprint
(a hash of the run's host-independent counters) and persistent
violations must equal the baseline, and reconverge_ms must not regress
by more than --threshold (default 20%). Cells only present on one side are
reported but never fail the gate, so CI can run a reduced --ads sweep
against the full checked-in baseline.

Usage:
  tools/check_bench_restart.py --baseline BENCH_restart.json \
      --current build/BENCH_restart.json [--min-continuity 99.0] \
      [--min-continuity-gain 10.0] [--max-peak-queue 64] \
      [--threshold 0.20]

Exit status: 0 = clean, 1 = regression, 2 = bad input.
"""

import argparse
import json
import sys


def load_runs(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_restart: cannot read {path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "bench_restart/v1" or "runs" not in doc:
        print(f"check_bench_restart: {path} is not a bench_restart/v1 file",
              file=sys.stderr)
        sys.exit(2)
    return {(r["arch"], r["mode"], r["ads"]): r for r in doc["runs"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True,
                    help="checked-in BENCH_restart.json")
    ap.add_argument("--current", required=True,
                    help="freshly produced BENCH_restart.json")
    ap.add_argument("--min-continuity", type=float, default=99.0,
                    help="min forwarding continuity %% for 'gr' cells "
                         "(default 99.0)")
    ap.add_argument("--min-continuity-gain", type=float, default=10.0,
                    help="min continuity points 'gr' must gain over 'cold' "
                         "per arch (default 10.0)")
    ap.add_argument("--max-peak-queue", type=float, default=64,
                    help="max ingress-queue peak depth for protected cells "
                         "(default 64 = the configured queue limit)")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="max fractional reconverge_ms regression vs the "
                         "baseline (default 0.20)")
    args = ap.parse_args()

    baseline = load_runs(args.baseline)
    current = load_runs(args.current)

    failures = []

    # Absolute gates on every current cell.
    for key in sorted(current):
        arch, mode, ads = key
        cur = current[key]
        label = f"{arch} {mode} ads={ads}"
        status = "ok"
        if cur["node_crashes"] <= 0:
            status = "NO STORM"
            failures.append(f"{label}: storm crashed no nodes")
        if cur["reconverge_ms"] < 0:
            status = "NO RECONV"
            failures.append(f"{label}: never reconverged")
        if mode == "gr":
            if cur["continuity_pct"] < args.min_continuity:
                status = "CONTINUITY"
                failures.append(
                    f"{label}: continuity {cur['continuity_pct']:.2f}% "
                    f"< {args.min_continuity:.2f}% "
                    f"({cur['continuity_ok']}/{cur['continuity_probes']})")
            if cur["gr_recoveries"] <= 0:
                status = "NO RECOVERY"
                failures.append(
                    f"{label}: no grace window ended in a recovery")
            if cur["persistent_violations"] != 0:
                status = "VIOLATIONS"
                failures.append(
                    f"{label}: {cur['persistent_violations']} persistent "
                    f"invariant violation(s)")
        if mode == "gr-flush":
            if cur["gr_flushes"] <= 0:
                status = "NO FLUSH"
                failures.append(
                    f"{label}: no grace window expired into a flush")
            if cur["persistent_violations"] != 0:
                status = "STALE ROUTES"
                failures.append(
                    f"{label}: {cur['persistent_violations']} persistent "
                    f"violation(s) survived the stale flush")
        if mode in ("gr", "gr-flush") and \
                cur["peak_queue_depth"] > args.max_peak_queue:
            status = "QUEUE BOUND"
            failures.append(
                f"{label}: peak queue depth {cur['peak_queue_depth']} "
                f"> {args.max_peak_queue:.0f}")
        print(f"  {label:<28} continuity {cur['continuity_pct']:7.2f}% "
              f"recoveries={cur['gr_recoveries']:<3} "
              f"flushes={cur['gr_flushes']:<3} "
              f"peak_q={cur['peak_queue_depth']:<4} "
              f"drops={cur['dropped_keepalive'] + cur['dropped_withdrawal'] + cur['dropped_update'] + cur['dropped_refresh']:<6} [{status}]")

    # The A/B within the current file: GR must move the continuity
    # needle over the cold baseline for the same arch and size.
    for key in sorted(current):
        arch, mode, ads = key
        if mode != "gr":
            continue
        cold_key = (arch, "cold", ads)
        if cold_key not in current:
            continue
        gain = current[key]["continuity_pct"] - \
            current[cold_key]["continuity_pct"]
        status = "ok"
        if gain < args.min_continuity_gain:
            status = "NO GAIN"
            failures.append(
                f"{arch} ads={ads}: gr gained only {gain:.2f} continuity "
                f"points over cold (< {args.min_continuity_gain:.1f})")
        print(f"  {arch:<6} ads={ads:<6} gr-vs-cold continuity gain "
              f"{gain:6.2f} pts [{status}]")

    # Relative gates against the baseline.
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("check_bench_restart: no (arch, mode, ads) cells in common "
              "with the baseline; skipping relative gates")
    for key in sorted(set(baseline) ^ set(current)):
        side = "baseline" if key in baseline else "current"
        print(f"  note: {key[0]} {key[1]} ads={key[2]} only in {side}; "
              f"skipped")
    for key in shared:
        arch, mode, ads = key
        base = baseline[key]
        cur = current[key]
        label = f"{arch} {mode} ads={ads}"
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
        print(f"  {label:<28} reconv {cur['reconverge_ms']:8.1f} ms "
              f"(baseline {base['reconverge_ms']:8.1f}) [{status}]")

    if failures:
        print(f"check_bench_restart: {len(failures)} failure(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"check_bench_restart: {len(current)} current cell(s) clean, "
          f"{len(shared)} compared against baseline")


if __name__ == "__main__":
    main()
