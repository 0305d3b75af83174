#!/usr/bin/env python3
"""CI gate for simulator throughput: check BENCH_wallclock.json against the
committed baseline (tools/bench_wallclock_baseline.json).

For every bench in the baseline the run must:

  - be present in BENCH_wallclock.json with a bench_wallclock result;
  - finish within its absolute wall-clock budget (`budget_sec`);
  - retire exactly the baseline's `events` count, when one is pinned — the
    event count is a schedule-preservation invariant (same seed, same
    workload => same executed-event stream), so a drift means the simulated
    behavior changed, not just its speed;
  - reach at least 80% of the baseline `events_per_sec`, when one is
    recorded (a >20% throughput regression fails CI);
  - stay at or below `max_allocs_per_rpc` and `max_allocs_per_proposal`,
    when the baseline sets them (bench_micro --rpc-churn reports measured
    heap allocations per steady-state unary RPC — the transport's
    zero-allocation contract — and per steady-state proposal through a
    3-replica raft group);
  - stay at or below `max_btree_bytes_per_entry`, when the baseline sets it
    (bench_micro --btree-footprint reports the live heap bytes per entry of
    the meta partitions' B-trees, the worst of an appended inode tree, the
    same tree after FIFO churn and a dentry tree).

Usage: tools/check_bench_wallclock.py BENCH_wallclock.json
       [--baseline tools/bench_wallclock_baseline.json]
Exit 0 = within budget, 1 = regression or malformed input.
"""

import argparse
import json
import pathlib
import sys

REGRESSION_TOLERANCE = 0.8  # fail below 80% of baseline events/sec
# Baseline cap -> (reported field, what the cap protects).
ALLOC_CAPS = {
    "max_allocs_per_rpc": ("allocs_per_rpc", "the transport's zero-allocation contract"),
    "max_allocs_per_proposal": ("allocs_per_proposal",
                                "raft steady-state replication's allocation budget"),
    "max_btree_bytes_per_entry": ("btree_bytes_per_entry",
                                  "dense meta B-tree nodes (no half-empty leaves)"),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", help="BENCH_wallclock.json from collect_bench.py --wallclock")
    ap.add_argument("--baseline",
                    default=str(pathlib.Path(__file__).resolve().parent /
                                "bench_wallclock_baseline.json"))
    args = ap.parse_args()

    with open(args.results, encoding="utf-8") as f:
        results = json.load(f)["benches"]
    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)["benches"]

    failures = []
    for name, base in baseline.items():
        got = results.get(name)
        if not got or "wall_sec" not in got:
            failures.append(f"{name}: no wallclock result in {args.results}")
            continue
        wall, events, eps = got["wall_sec"], got.get("events"), got.get("events_per_sec")
        line = f"{name}: {wall:.3f}s, {events} events, {eps:.0f} events/sec"
        if "speedup_vs_pre_pr" in got:
            line += f" ({got['speedup_vs_pre_pr']}x vs pre-PR engine)"
        print(line)
        if got.get("returncode", 0) != 0:
            failures.append(f"{name}: exited {got['returncode']}")
        budget = base.get("budget_sec")
        if budget is not None and wall > budget:
            failures.append(f"{name}: wall {wall:.3f}s exceeds budget {budget}s")
        if "events" in base and events != base["events"]:
            failures.append(
                f"{name}: executed {events} events, baseline pins {base['events']} "
                "(schedule drift, not a perf regression — investigate before "
                "re-baselining)")
        floor = base.get("events_per_sec")
        if floor is not None and eps is not None and eps < REGRESSION_TOLERANCE * floor:
            failures.append(
                f"{name}: {eps:.0f} events/sec is >20% below baseline {floor} "
                f"(floor {REGRESSION_TOLERANCE * floor:.0f})")
        for cap_key, (field, contract) in ALLOC_CAPS.items():
            cap = base.get(cap_key)
            if cap is None:
                continue
            value = got.get(field)
            if value is None:
                failures.append(f"{name}: baseline caps {field} but the run did not "
                                "report it")
            elif value > cap:
                failures.append(f"{name}: {field} {value} exceeds the cap {cap} ({contract})")

    for f_ in failures:
        print(f"FAIL {f_}", file=sys.stderr)
    if failures:
        print(f"check_bench_wallclock: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("check_bench_wallclock: within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
