#!/usr/bin/env python3
"""Smoke test of the repository benchmark on a tiny profile (seconds).

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json, plus the by-hand converge-1e5, on a
~300-AD profile and asserts that:
  * every end-to-end and per-layer metric is reported with its unit, and
    every cell is correct;
  * the exact counters repeat bit for bit across two invocations;
  * the seed changes the query stream, and the storm stream.
Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ADS = 300
SECONDS = 1


def bench(workload, seed, trace):
    """One run.py invocation; returns (result line, full results file)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
         "--ads", str(ADS)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError(f"{workload} seed {seed} trace {trace}: "
                             f"exit {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(ROOT, bdir, "results",
                        f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return line, json.load(f)


def exact(full):
    """Every cell's exact counters, keyed by design point."""
    return {arch: c["exact"] for arch, c in full["cells"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if "converge-1e5" not in workloads:
        workloads.append("converge-1e5")
    problems = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for w in workloads:
        runs = {}
        for seed, trace in ((1, 0), (1, 1), (2, 1)):
            runs[seed, trace] = bench(w, seed, trace)
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            line, _ = runs[1, trace]
            got = line["metrics"]
            bad = [m["name"] for m in wanted
                   if got.get(m["name"], {}).get("unit") != m["unit"]]
            check(not bad and set(got) == {m["name"] for m in wanted},
                  f"{w} trace={trace}: every metric present with its unit {bad}")
            check(line["correct"] and line["failed"] == 0 and line["attempted"] > 0,
                  f"{w} trace={trace}: correct, nothing failed")
        first = exact(runs[1, 0][1])
        again = exact(runs[1, 1][1])
        check(first == again,
              f"{w}: exact counters repeat across invocations and tracing")
        other = exact(runs[2, 1][1])
        digest = {a: c["query.answer_digest"] for a, c in first.items()}
        moved = {a: c["query.answer_digest"] for a, c in other.items()}
        check(digest != moved, f"{w}: the seed changes the query stream")
        if w == "flap-storm-1e4":
            storm = {a: (c["sim.events"], c["sim.fingerprint"])
                     for a, c in first.items()}
            storm2 = {a: (c["sim.events"], c["sim.fingerprint"])
                      for a, c in other.items()}
            check(storm != storm2, f"{w}: the seed changes the storm stream")

    print("smoke test: " + ("PASS" if not problems else
                            f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
