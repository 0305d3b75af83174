#!/usr/bin/env python3
"""Schedule check for the repo benchmark: print each workload's trace hash.

Runs every workload that BENCHMARK.json names through a built perfbench
driver, once, at seed 1 with tracing off, and prints one line per
workload:

    <workload> <trace_hash>

The trace hash digests the executed event stream, so two builds that
print the same hash ran the same schedule.

With --against, both drivers run each workload and the tool prints both
hashes; it exits 1 if any trace hash, op count, virtual-time metric or
per-layer counter differs, naming what differs. Wall-clock fields (set-up
time, throughput, RSS) and heap allocation counts are not compared: they
are not part of the schedule.

Usage: tools/trace_hashes.py <cfs_perfbench> [--against <cfs_perfbench>]
Build a driver with:
    cmake -S perfbench -B <dir> -DCMAKE_BUILD_TYPE=Release
    cmake --build <dir> -j4
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1
# Deterministic fields of the driver's result line: equal across builds
# whenever the schedule is.
SCHEDULE_FIELDS = ("trace_hash", "attempted", "failed", "window_ops", "samples", "virtual")


def schedule_part(result):
    part = {f: result.get(f) for f in SCHEDULE_FIELDS}
    part["layer"] = {k: v for k, v in result["layer"].items() if not k.startswith("sim.alloc")}
    return part


def workloads():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in bench["workloads"]]


def run(driver, workload):
    out = subprocess.run(
        [driver, "--workload", workload, "--seed", str(SEED), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("driver", help="built cfs_perfbench binary")
    ap.add_argument("--against", help="second cfs_perfbench binary to compare with")
    args = ap.parse_args()

    differs = []
    for w in workloads():
        mine = run(args.driver, w)
        if not args.against:
            print(w, mine["trace_hash"], flush=True)
            continue
        theirs = run(args.against, w)
        print(w, mine["trace_hash"], theirs["trace_hash"], flush=True)
        a, b = schedule_part(mine), schedule_part(theirs)
        for field in a:
            if a[field] != b[field]:
                differs.append(f"{w}: {field} {a[field]} vs {b[field]}")
    for d in differs:
        print("DIFFERS", d)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
