#!/usr/bin/env bash
# SageBench: builds bench/sagebench (RelWithDebInfo) into build-sagebench/ at
# the repository root, then runs workloads, each in its own process.
#
#   run.sh                          all four workloads, end-to-end metrics
#   run.sh --trace                  all four, traced: per-layer metrics,
#                                   Chrome traces and self-time tables
#   run.sh --smoke                  kTiny datasets, 2 s windows (< 30 s)
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                                   one workload; the last line of output is
#                                   its JSON result
#
# Other flags: --out-dir DIR (results, traces; default build-sagebench/out).
# Every result line reads "<workload> <metric> <value> <unit>". Build output
# goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-sagebench"

workload=""
seed=1
seconds=""
trace=0
smoke=0
out_dir="$build/out"
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke=1; shift ;;
    --out-dir) out_dir="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done
if [ -z "$seconds" ]; then
  if [ "$smoke" = 1 ]; then seconds=2; else seconds=10; fi
fi

jobs="$(nproc 2>/dev/null || echo 2)"
[ "$jobs" -gt 4 ] && jobs=4
if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
  cmake -S "$here" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target sagebench -j "$jobs" >&2

SAGEBENCH_REV="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export SAGEBENCH_REV
mkdir -p "$out_dir"
args=(--seed="$seed" --seconds="$seconds" --trace="$trace" --out-dir="$out_dir")
[ "$smoke" = 1 ] && args+=(--smoke)

if [ -n "$workload" ]; then
  exec "$build/sagebench" "$workload" "${args[@]}"
fi

status=0
for w in traverse traverse-mt serve-bfs serve-mixed; do
  "$build/sagebench" "$w" "${args[@]}" > "$out_dir/$w.log" || status=1
  grep -v '^{' "$out_dir/$w.log" || true
done
exit "$status"
