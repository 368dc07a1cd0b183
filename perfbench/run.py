#!/usr/bin/env python3
"""Repository benchmark: paper-scale and sharded convergence, route queries
under churn, and flap storms for the four design points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the simulator library and
the cell program (perfbench/cell.cpp) into .bench_build/ (or
$CARGO_TARGET_DIR), runs one cell process per design point -- taking turns,
one sample at a time -- checks every cell's correctness verdict, scales the
wall-clock figures by the run's reference probe, and prints each metric
named in BENCHMARK.json with its unit. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones.

Full results (per-cell detail, host facts, failures) are written to
<build>/results/, and with --trace 1 the spans of every cell plus a
self-time summary. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import re
import select
import statistics
import subprocess
import sys
import time
import uuid

ARCHS = ["ecma", "idrp", "ls-hbh", "orwg"]
QUERY_ARCHS = ["ls-hbh", "orwg"]
PROFILE_SEED = 0x5CA1E
# Wall-clock metrics are scaled to a host on which the reference probe (see
# reference_probe() in cell.cpp) takes this long: value * REF_PROBE_S /
# median probe time of the run. The raw values stay in the results file.
REF_PROBE_S = 0.0012
WALL_UNITS = ("s", "us")
CELL_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure (once) and build the cell program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs,
                    "--target", "perfbench_cell"],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench_cell")


def host_facts(bdir, cells, args):
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            cpu = m.group(1).strip() if m else cpu
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)$",
                             line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        # A sharded cell reports its worker threads, a sequential one 0.
        "shard_threads": max(c["threads"] for c in cells.values()),
        "shards": 8,
        "profile_seed": PROFILE_SEED,
        "stream_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_cells(cell, args, run_id, outdir):
    """Run the four design points' cells, one sample at a time, round-robin.

    Every cell is its own process (its own peak RSS), and all four stay
    alive; a cell runs only between receiving "go" and printing "ready" (or
    exiting), so the load comes from one process at a time while each
    metric's samples spread over the whole run (see turn() in cell.cpp).
    """
    procs, paths = {}, {}
    deadline = time.monotonic() + CELL_TIMEOUT_S
    try:
        for arch in ARCHS:
            tag = f"{args.workload}-{arch}-seed{args.seed}-trace{args.trace}"
            paths[arch] = (os.path.join(outdir, f"cell-{tag}.json"),
                           os.path.join(outdir, f"spans-{tag}.jsonl"))
            for path in paths[arch]:
                if os.path.exists(path):
                    os.remove(path)
            cmd = [cell, "--workload", args.workload, "--arch", arch,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--run-id", run_id,
                   "--out", paths[arch][0]]
            if args.trace:
                cmd += ["--spans", paths[arch][1]]
            if args.ads:
                cmd += ["--ads", str(args.ads)]
            procs[arch] = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                           stdout=subprocess.PIPE,
                                           stderr=sys.stderr, text=True)
        # Each cell starts by asking for its first turn.
        active = [a for a in ARCHS if wait_ready(procs[a], deadline)]
        while active:
            for arch in list(active):
                procs[arch].stdin.write("go\n")
                procs[arch].stdin.flush()
                if not wait_ready(procs[arch], deadline):
                    active.remove(arch)
    finally:
        for p in procs.values():
            if p.poll() is None:
                p.kill()
            p.wait()

    cells = {}
    for arch in ARCHS:
        out, spans = paths[arch]
        code = procs[arch].returncode
        log(f"cell {args.workload}/{arch}: exit {code}")
        if not os.path.isfile(out):
            raise RuntimeError(f"cell {arch} exited {code} without a result")
        with open(out) as f:
            cells[arch] = json.load(f)
        cells[arch]["exit"] = code
        cells[arch]["spans_file"] = spans if args.trace else None
    return cells


def wait_ready(proc, deadline):
    """True when the cell asks for another turn, False when it has exited."""
    while True:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        if not ready:
            raise RuntimeError(f"cells still running after {CELL_TIMEOUT_S} s")
        line = proc.stdout.readline()
        if not line:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            return False
        if line.strip() == "ready":
            return True
        log(line.rstrip())  # stray output: not part of the turn protocol


def one_value(cells, key):
    """A per-layer fact every cell reports identically (topology shape)."""
    values = {c["layer"][key] for c in cells.values()}
    if len(values) != 1:
        raise RuntimeError(f"cells disagree on {key}: {sorted(values)}")
    return values.pop()


def e2e_metrics(cells):
    m = {"setup_s": sum(c["e2e"]["setup_s"] for c in cells.values())}
    for arch, c in cells.items():
        m[f"converge_s.{arch}"] = c["e2e"]["converge_s"]
        m[f"peak_rss_mb.{arch}"] = c["e2e"]["peak_rss_mb"]
    for arch in QUERY_ARCHS:
        m[f"query_p50_us.{arch}"] = cells[arch]["e2e"]["query_p50_us"]
        m[f"query_p99_us.{arch}"] = cells[arch]["e2e"]["query_p99_us"]
    attempted = sum(c["attempted"] for c in cells.values())
    failed = sum(c["failed"] for c in cells.values())
    m["ok_frac"] = 1.0 - failed / attempted
    return m


def layer_metrics(cells):
    m = {}
    for c in cells.values():
        for k, v in c["layer"].items():
            if k not in ("topology.build_s", "core.attach_s", "trace.measured_s"):
                m[k] = v
    for key in ("topology.ads", "topology.links", "shard.balance_factor",
                "shard.lookahead_ms"):
        m[key] = one_value(cells, key)
    # Set-up layers add up over the four design points, as setup_s does.
    m["topology.build_s"] = sum(c["layer"]["topology.build_s"] for c in cells.values())
    m["core.attach_s"] = sum(c["layer"]["core.attach_s"] for c in cells.values())
    m["trace.overhead_s"] = sum(c["layer"]["trace.measured_s"] - c["e2e"]["measured_s"]
                                for c in cells.values())
    attempted = sum(c["attempted"] for c in cells.values())
    m["failed_frac"] = sum(c["failed"] for c in cells.values()) / attempted
    return m


def span_summary(cells, merged_path):
    """Merge the cells' spans into one file; total and self time per name."""
    summary = {}
    with open(merged_path, "w") as out:
        for arch, c in cells.items():
            path = c.get("spans_file")
            if not path or not os.path.isfile(path):
                continue
            spans = []
            with open(path) as f:
                for line in f:
                    out.write(line)
                    spans.append(json.loads(line))
            child = [0.0] * len(spans)
            for s in spans:
                if s["parent"] >= 0:
                    child[s["parent"]] += s["t1"] - s["t0"]
            for s, kids in zip(spans, child):
                row = summary.setdefault(f"{arch}/{s['name']}",
                                         {"count": 0, "total_s": 0.0, "self_s": 0.0})
                row["count"] += 1
                row["total_s"] += s["t1"] - s["t0"]
                row["self_s"] += s["t1"] - s["t0"] - kids
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ads", type=int, default=0,
                    help="override the profile size (smoke test only)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir = build_dir()
    try:
        cell = build(bdir)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    outdir = os.path.join(bdir, "results")
    os.makedirs(outdir, exist_ok=True)
    run_id = uuid.uuid4().hex[:12]
    cells = run_cells(cell, args, run_id, outdir)
    host = host_facts(bdir, cells, args)
    log("host: " + json.dumps(host))
    values = layer_metrics(cells) if args.trace else e2e_metrics(cells)
    probe_s = statistics.median(x for c in cells.values() for x in c["probe_s"])
    values["host.probe_ms"] = probe_s * 1e3
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    scale = REF_PROBE_S / probe_s
    metrics = {m["name"]: {"value": values[m["name"]] *
                           (scale if m["unit"] in WALL_UNITS else 1.0),
                           "unit": m["unit"]}
               for m in wanted}

    attempted = sum(c["attempted"] for c in cells.values())
    failed = sum(c["failed"] for c in cells.values())
    failures = [f for c in cells.values() for f in c["failures"]]
    correct = failed == 0 and all(c["exit"] == 0 for c in cells.values())

    results = {"run_id": run_id, "workload": args.workload, "host": host,
               "correct": correct, "attempted": attempted, "failed": failed,
               "failures": failures, "metrics": metrics, "raw_values": values,
               "wall_scale": scale, "cells": cells}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        results["spans"] = span_summary(
            cells, os.path.join(outdir, f"spans-{tag}.jsonl"))
    with open(os.path.join(outdir, f"result-{tag}.json"), "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)

    for f in failures:
        log(f"FAILURE: {f}")
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
