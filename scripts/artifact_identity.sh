#!/usr/bin/env bash
# Artifact identity between two builds. Runs the same workloads with a base
# build and a head build and requires every run artifact to match at ZERO
# tolerance with the same config fingerprint, and every checkpoint file to
# be byte-identical. A change that promises "artifacts unchanged" (a
# refactor, a speed-up) is checked with this script against its parent.
#
# Workloads, each run once per build in its own directory:
#   - quickstart in-process with --checkpoint-every 2 (every checkpoint
#     file is compared), with --threads 4, and over loopback with 2 rpc
#     executors;
#   - bench_table3_fedbuff_speedup, bench_fig7_buffer_size,
#     bench_ablation_design and bench_scale --clients 100000;
#   - crash_resume_driver --algo fedavg and --algo fedbuff with checkpoints
#     (every checkpoint file is compared).
#
# Telemetry is excluded from the artifact diff (--ignore-telemetry): series
# names may legitimately change between builds; simulated results may not.
#
# Usage: artifact_identity.sh <base-build> <head-build> <source-dir> [python]
set -euo pipefail

usage="usage: artifact_identity.sh <base-build> <head-build> <source-dir> [python]"
base=$(readlink -f "${1:?$usage}")
head=$(readlink -f "${2:?$usage}")
src=$(readlink -f "${3:?$usage}")
py=${4:-python3}

work=$(mktemp -d "${TMPDIR:-/tmp}/flint_artifact_identity.XXXXXX")
trap 'rm -rf "$work"' EXIT

status=0
fail() {
  echo "FAIL: $*" >&2
  status=1
}

# run_both <name> <binary relative to the build dir> <args...>: run the
# workload with each build in $work/<side>/<name>/ (its cwd), writing the
# artifact to artifact.json there; "@DIR@" in an argument expands to that
# directory. Then compare the two artifacts; extra flint_compare arguments
# come from the `compare_args` array, if set.
run_both() {
  local name=$1 bin=$2
  shift 2
  for side in base head; do
    local build dir
    build=$([[ $side == base ]] && echo "$base" || echo "$head")
    dir="$work/$side/$name"
    mkdir -p "$dir"
    local args=()
    for a in "$@"; do args+=("${a//@DIR@/$dir}"); done
    (cd "$dir" && "$build/$bin" "${args[@]}" --artifact-out "$dir/artifact.json" \
      > "$dir/stdout.txt" 2> "$dir/stderr.txt") || fail "$name ($side) exited nonzero"
  done
  if "$py" "$src/tools/flint_compare.py" --require-same-config --ignore-telemetry \
    --default-rel 0 --quiet "${compare_args[@]}" \
    "$work/base/$name/artifact.json" "$work/head/$name/artifact.json"; then
    echo "$name: artifacts identical"
  else
    fail "$name artifacts differ"
  fi
}
compare_args=()

# same_checkpoints <name> <expected file count>: the checkpoint directories
# of both builds hold the same file names, and each file is byte-identical.
same_checkpoints() {
  local name=$1 expected=$2
  local a="$work/base/$name/ckpt" b="$work/head/$name/ckpt"
  local names_a names_b count
  names_a=$(cd "$a" && ls)
  names_b=$(cd "$b" && ls)
  if [[ "$names_a" != "$names_b" ]]; then
    fail "$name checkpoint file names differ"
    return
  fi
  local bad=0
  count=$(echo "$names_a" | grep -c . || true)
  if [[ "$count" -ne "$expected" ]]; then
    fail "$name wrote $count checkpoint files, expected $expected"
  fi
  for f in $names_a; do
    cmp -s "$a/$f" "$b/$f" || { fail "$name checkpoint $f differs"; bad=1; }
  done
  [[ $bad -ne 0 ]] || echo "$name: $count checkpoint files byte-identical"
}

run_both quickstart examples/quickstart --checkpoint-dir @DIR@/ckpt --checkpoint-every 2
same_checkpoints quickstart 30
run_both quickstart_threads examples/quickstart --threads 4
run_both quickstart_loopback examples/quickstart --transport loopback --rpc-executors 2

run_both table3 bench/bench_table3_fedbuff_speedup
run_both fig7 bench/bench_fig7_buffer_size
run_both ablation bench/bench_ablation_design
# bench_scale also reports its own wall-clock rates and peak RSS: those
# measure the machine, not the simulation, so they are exempt.
compare_args=(--threshold scalars.rate.=inf --threshold scalars.rss.=inf)
run_both scale bench/bench_scale --clients 100000 --spill-dir @DIR@
compare_args=()

for algo in fedavg fedbuff; do
  run_both "crash_resume_$algo" tests/crash_resume_driver --algo "$algo" \
    --checkpoint-dir @DIR@/ckpt
  same_checkpoints "crash_resume_$algo" 4
done

if [[ $status -ne 0 ]]; then
  exit "$status"
fi
echo "artifact_identity: OK"
