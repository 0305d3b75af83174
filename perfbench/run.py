#!/usr/bin/env python3
"""Repo benchmark runner: builds the driver, runs one workload, prints metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The driver (perfbench/driver.cc) is built
from the checkout's sources into $CARGO_TARGET_DIR (default .bench_build).

Each driver process is one run of one workload: a fresh cluster, laydown,
warm-up and a fixed virtual-time measured window. The runner starts such
processes, one after another, until --seconds of wall time have passed
(at least three). All of them use the same seed, so their virtual-time
metrics and schedule hash must be identical; any difference is a
determinism bug and fails the run. Set-up time and memory are the median
over the processes, simulator throughput the best of them.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 the runner alternates untraced and traced processes and reports
the per-layer metrics: counters from the untraced processes, per-layer
stage times from the traced ones, and the tracing overhead as traced over
untraced wall time of the traced window, minus one. A correctness violation
in any process exits non-zero without a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("meta_churn", "append_read", "overwrite_gray")
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 90

# End-to-end metrics: name -> unit. Latencies are order statistics of the
# driver's per-op samples in virtual microseconds, resolved within the 1 us
# clock tick (Quantile in driver.cc).
END_TO_END = {
    "vops_per_s": "ops/s",
    "ok_op_ratio": "ratio",
    "ops_per_wall_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "stat_p50_us": "us",
    "stat_p99_us": "us",
    "create_p50_us": "us",
    "create_p99_us": "us",
    "unlink_p99_us": "us",
    "read_p50_us": "us",
    "read_p99_us": "us",
    "append_p50_us": "us",
    "append_p99_us": "us",
    "overwrite_p50_us": "us",
    "overwrite_p99_us": "us",
}

# Per-layer metrics: name -> unit. Counter metrics are deltas over the
# measured phase; *_us stage times are per op, from the traced window.
PER_LAYER = {
    "failed_op_ratio": "ratio",
    "sim.events_per_op": "count",
    "sim.events_per_wall_s": "1/s",
    "sim.allocs_per_op": "count",
    "sim.alloc_bytes_per_op": "B",
    "sim.net_msgs_per_op": "count",
    "sim.net_bytes_per_op": "B",
    "sim.disk_queue_us": "us",
    "sim.disk_service_us": "us",
    "sim.disk_write_bytes_per_user_byte": "ratio",
    "rpc.legs_per_op": "count",
    "rpc.retries_per_op": "count",
    "rpc.timeouts_fired": "count",
    "rpc.wire_us": "us",
    "client.cache_hit_ratio": "ratio",
    "client.meta_rpcs_per_op": "count",
    "client.data_rpcs_per_op": "count",
    "client.master_rpcs_per_op": "count",
    "client.window_stalls_per_append": "count",
    "client.resends": "count",
    "client.self_us": "us",
    "meta.handler_us": "us",
    "datanode.handler_us": "us",
    "raft.proposals_per_batch": "count",
    "raft.log_writes_per_op": "count",
    "raft.log_bytes_per_user_byte": "ratio",
    "raft.commit_us": "us",
    "raft.apply_us": "us",
    "obs.health_detect_us": "us",
    "obs.trace_overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure and build the driver; all build output goes to stderr."""
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "cfs_perfbench", "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "cfs_perfbench")
    if not os.path.isfile(binary):
        raise BenchError("driver binary missing after build")
    return binary


def run_driver(binary, workload, seed, traced, short):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    if short:
        cmd.append("--short")
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=PROCESS_TIMEOUT_S, cwd=ROOT)
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"driver exited with code {p.returncode}")
    return json.loads(lines[-1])


def deterministic_part(r):
    # Everything but wall time and heap allocations (tracing allocates).
    layer = {k: v for k, v in r["layer"].items() if not k.startswith("sim.alloc")}
    return (r["trace_hash"], r["attempted"], r["failed"], r["virtual"], r["samples"], layer)


def check_same_schedule(runs):
    first = deterministic_part(runs[0])
    for r in runs[1:]:
        if deterministic_part(r) != first:
            raise BenchError("same-seed runs diverged (virtual metrics or schedule hash differ)")


def run_processes(binary, args):
    """Run driver processes for about args.seconds; returns (untraced, traced)."""
    untraced, traced = [], []
    start = time.monotonic()
    least = 1 if args.trace else MIN_PROCESSES
    while len(untraced) < least or time.monotonic() - start < args.seconds:
        untraced.append(run_driver(binary, args.workload, args.seed, False, args.short))
        if args.trace:
            traced.append(run_driver(binary, args.workload, args.seed, True, args.short))
    return untraced, traced


def end_to_end(untraced):
    r = untraced[0]
    v = r["virtual"]
    values = {
        "vops_per_s": v["vops_per_s"],
        "ok_op_ratio": 1.0 - v["failed_op_ratio"],
        # The fastest process: other work on the machine only slows a
        # process down, so the best of several is the steadiest estimate.
        "ops_per_wall_s": max(u["wall"]["ops_per_wall_s"] for u in untraced),
        "setup_s": statistics.median(u["wall"]["setup_s"] for u in untraced),
        "peak_rss_mb": statistics.median(u["wall"]["peak_rss_mb"] for u in untraced),
    }
    samples = {}
    for name in END_TO_END:
        if name.endswith("_us"):
            op = name.split("_")[0]
            if name not in v:
                raise BenchError(f"workload issued no {op} ops")
            values[name] = v[name]
            samples[name] = r["samples"][op]
    return values, samples


def per_layer(untraced, traced):
    r = untraced[0]
    values = dict(r["layer"])
    values["failed_op_ratio"] = r["virtual"]["failed_op_ratio"]
    values["sim.events_per_wall_s"] = max(u["wall"]["events_per_wall_s"] for u in untraced)
    # Allocations are counted by the process, so take the untraced median.
    for name in ("sim.allocs_per_op", "sim.alloc_bytes_per_op"):
        values[name] = statistics.median(u["layer"][name] for u in untraced)
    stages = traced[0]["stages"]
    for name, unit in PER_LAYER.items():
        if unit == "us" and name in stages:
            values[name] = stages[name]
    untraced_window = statistics.median(u["wall"]["window_s"] for u in untraced)
    traced_window = statistics.median(t["wall"]["window_s"] for t in traced)
    values["obs.trace_overhead_ratio"] = traced_window / untraced_window - 1.0
    samples = {"window_ops": traced[0]["window_ops"], "window_roots": stages["window_roots"]}
    return values, samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="short measured window (tests); not for comparisons")
    args = ap.parse_args()

    try:
        binary = build()
        untraced, traced = run_processes(binary, args)
        check_same_schedule(untraced + traced)
        if args.trace:
            values, samples = per_layer(untraced, traced)
            units = PER_LAYER
        else:
            values, samples = end_to_end(untraced)
            units = END_TO_END
    except (BenchError, subprocess.TimeoutExpired, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    r = untraced[0]
    print(f"workload {args.workload} seed {args.seed} processes {len(untraced)}"
          f"{' + %d traced' % len(traced) if traced else ''}"
          f" attempted {r['attempted']} failed {r['failed']}")
    for name, unit in units.items():
        extra = f"  samples {samples[name]}" if name in samples else ""
        print(f"  {name:36s} {values[name]:>16.6g} {unit}{extra}")
    for name in ("window_ops", "window_roots"):
        if name in samples:
            print(f"  {name:36s} {samples[name]:>16.6g} count")
    result = {
        "correct": True,
        "attempted": int(r["attempted"]),
        "failed": int(r["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
