#!/usr/bin/env bash
# profile.sh — CPU-profile the bench_report battery and drop a report
# artifact (docs/tools.md#profilesh).
#
#   tools/profile.sh [--battery=smoke|battery] [--build-dir=build-profile]
#                    [--out=profile_report.txt]
#
# Prefers `perf` (sampling; no rebuild beyond RelWithDebInfo, and a
# flamegraph .svg lands next to the report when the FlameGraph scripts are
# on PATH). Falls back to gprof on machines without perf: the build
# directory is configured with -pg and the call-graph report comes from the
# instrumented run's gmon.out. Either way the human-readable report is
# written to --out, so "what is hot in the simulator right now" is one
# command and one artifact.
set -euo pipefail

BATTERY=smoke
BUILD_DIR=build-profile
OUT=profile_report.txt
for arg in "$@"; do
  case "$arg" in
    --battery=*) BATTERY="${arg#*=}" ;;
    --build-dir=*) BUILD_DIR="${arg#*=}" ;;
    --out=*) OUT="${arg#*=}" ;;
    *)
      echo "profile.sh: unknown flag $arg" >&2
      echo "usage: tools/profile.sh [--battery=smoke|battery]" \
           "[--build-dir=build-profile] [--out=profile_report.txt]" >&2
      exit 2
      ;;
  esac
done

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
OUT="$(realpath -m "$OUT")"

if command -v perf >/dev/null 2>&1; then
  # Sampling profiler: plain optimized build with symbols, no recompile
  # flags needed.
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$BUILD_DIR" -j --target bench_report >/dev/null
  PERF_DATA="$BUILD_DIR/perf.data"
  perf record -g --output="$PERF_DATA" -- \
    "$BUILD_DIR/tools/bench_report" --scenario="$BATTERY" --threads=1 \
    --out="$BUILD_DIR/profile_metrics.json" >/dev/null
  perf report --stdio --input="$PERF_DATA" > "$OUT"
  # Optional flamegraph when Brendan Gregg's scripts are installed.
  if command -v stackcollapse-perf.pl >/dev/null 2>&1 &&
     command -v flamegraph.pl >/dev/null 2>&1; then
    SVG="${OUT%.txt}.svg"
    perf script --input="$PERF_DATA" | stackcollapse-perf.pl |
      flamegraph.pl > "$SVG"
    echo "profile.sh: flamegraph at $SVG"
  fi
  echo "profile.sh: perf report ($BATTERY battery) at $OUT"
else
  # gprof fallback: instrumented build (-pg), run from the build directory
  # so gmon.out lands beside the binary. gprof drops GCC's clone symbols
  # (.part, .isra, .constprop, .cold) and charges their samples to the
  # function placed before them, so the build turns off the four passes
  # that make them: every sample then lands on a real function.
  NO_CLONES="-fno-partial-inlining -fno-ipa-sra -fno-ipa-cp"
  NO_CLONES="$NO_CLONES -fno-reorder-blocks-and-partition"
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-pg $NO_CLONES" -DCMAKE_EXE_LINKER_FLAGS=-pg >/dev/null
  cmake --build "$BUILD_DIR" -j --target bench_report >/dev/null
  (cd "$BUILD_DIR" &&
   ./tools/bench_report --scenario="$BATTERY" --threads=1 \
     --out=profile_metrics.json >/dev/null)
  gprof "$BUILD_DIR/tools/bench_report" "$BUILD_DIR/gmon.out" > "$OUT"
  echo "profile.sh: gprof report ($BATTERY battery) at $OUT"
fi
