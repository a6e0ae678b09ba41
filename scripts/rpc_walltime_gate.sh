#!/usr/bin/env bash
# Wall-time gate for the rpc lease path (DESIGN.md §14). Runs the quickstart
# in-process, then over loopback and over a Unix socket with 2 executors and
# telemetry on (--metrics-out), and requires:
#
#   1. each rpc mode takes at most 3 times the in-process wall time. Each
#      mode runs 3 times and the fastest run counts, so one slow run on a
#      busy machine does not decide the gate;
#   2. each rpc artifact matches the in-process one at ZERO tolerance, with
#      the same config fingerprint: the transport is invisible in results.
#
# A leader that idles while a result is already in hand shows up here as
# rpc modes many times slower than in-process, with identical artifacts.
# This is a wall-time check, so it runs as a CI step, never inside ctest.
#
# Usage: rpc_walltime_gate.sh <quickstart-binary> <executor-binary> <source-dir> [python]
set -euo pipefail

quickstart=$(readlink -f "${1:?usage: rpc_walltime_gate.sh <quickstart-binary> <executor-binary> <source-dir> [python]}")
executor=$(readlink -f "${2:?missing executor binary}")
src=$(readlink -f "${3:?missing source dir}")
py=${4:-python3}
max_ratio=3
reps=3

work=$(mktemp -d "${TMPDIR:-/tmp}/flint_rpc_walltime.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/rpc"
cd "$work"

# best_wall <name> <quickstart args...>: run `reps` times, print the fastest
# wall time in seconds; the last run's artifact is $work/<name>.json.
best_wall() {
  local name=$1
  shift
  local best=""
  for ((i = 0; i < reps; i++)); do
    local start end
    start=$(date +%s%N)
    "$quickstart" "$@" --artifact-out "$work/$name.json" > "$work/$name.out"
    end=$(date +%s%N)
    local s
    s=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", (b - a) / 1e9 }')
    if [[ -z "$best" ]] || awk -v x="$s" -v y="$best" 'BEGIN { exit !(x < y) }'; then
      best=$s
    fi
  done
  echo "$best"
}

inproc=$(best_wall inprocess)
echo "in-process: ${inproc} s (fastest of $reps)"

status=0
check_mode() {
  local name=$1
  shift
  local wall
  wall=$(best_wall "$name" "$@" --rpc-executors 2 --metrics-out "$work/$name.metrics.jsonl")
  local ratio
  ratio=$(awk -v a="$wall" -v b="$inproc" 'BEGIN { printf "%.2f", a / b }')
  echo "$name: ${wall} s (fastest of $reps) = ${ratio}x in-process (limit ${max_ratio}x)"
  if awk -v r="$ratio" -v m="$max_ratio" 'BEGIN { exit !(r > m) }'; then
    echo "FAIL: $name is ${ratio}x the in-process wall time" >&2
    status=1
  fi
  "$py" "$src/tools/flint_compare.py" --require-same-config --ignore-telemetry \
    --default-rel 0 "$work/inprocess.json" "$work/$name.json" || {
    echo "FAIL: $name artifact differs from in-process" >&2
    status=1
  }
}

check_mode loopback --transport loopback
check_mode unix --transport unix --executor-bin "$executor" --rpc-dir "$work/rpc"

if [[ $status -ne 0 ]]; then
  exit "$status"
fi
echo "rpc_walltime_gate: OK"
