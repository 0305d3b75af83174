#!/usr/bin/env bash
# One-stop local verification gate, mirroring the CI `analysis` job:
#
#   1. tools/analyze — suspension-point hazards A1-A5 + determinism lint
#      R1-R6 against tools/analyze/baseline.json (new findings AND stale
#      baseline entries both fail),
#   2. the fixture corpus that locks each check's behavior,
#   3. full-tree clang-tidy (skipped with a notice when not installed —
#      the container image doesn't bake it in; CI always runs it),
#   4. the health-telemetry gate: the gray-disk bench must detect its
#      injected slow disk and emit an event log byte-identical to the
#      committed golden (tests/golden/health_events_smoke.jsonl),
#   5. the simulator wall-clock gate (pinned executed-event counts +
#      throughput budget), when the benches are built.
#
# Usage: tools/check_all.sh [build-dir]     (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== analyzer: A1-A5 + R1-R6 vs tools/analyze/baseline.json =="
python3 -m tools.analyze

echo "== analyzer fixture corpus =="
python3 tests/analyze/run_fixtures.py "$PWD"

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy (full tree) =="
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  git ls-files 'src/*.cc' 'tests/*.cc' 'bench/*.cc' |
    xargs -P "$(nproc)" -n 4 clang-tidy -p "$BUILD_DIR" --quiet
else
  echo "== clang-tidy not installed: skipped (the CI analysis job runs it) =="
fi

if [ -x "$BUILD_DIR/bench/bench_health_gray_disk" ]; then
  echo "== health telemetry gate (gray-disk detection + golden event log) =="
  # The binary itself exits non-zero when the injected slow disk goes
  # undetected or the two same-seed runs' event logs diverge; the report
  # tool then schema-checks the log and pins it byte-for-byte to the
  # committed golden.
  "$BUILD_DIR/bench/bench_health_gray_disk" --smoke \
    --events-out "$BUILD_DIR/health_events.jsonl" >/dev/null
  python3 tools/health_report.py "$BUILD_DIR/health_events.jsonl" --check \
    --golden tests/golden/health_events_smoke.jsonl
else
  echo "== health telemetry gate skipped: bench not built in $BUILD_DIR =="
fi

if [ -x "$BUILD_DIR/bench/bench_fig9_largefile_multi_client" ]; then
  echo "== wallclock gate (pinned event counts + throughput budget) =="
  python3 tools/collect_bench.py --wallclock --build-dir "$BUILD_DIR" \
    -o "$BUILD_DIR/BENCH_wallclock.json"
  python3 tools/check_bench_wallclock.py "$BUILD_DIR/BENCH_wallclock.json"
else
  echo "== wallclock gate skipped: benches not built in $BUILD_DIR =="
fi

echo "check_all: OK"
