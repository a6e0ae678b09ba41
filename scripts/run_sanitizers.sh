#!/usr/bin/env bash
# Build FLINT under each sanitizer profile and run the ctest suite.
#
# Usage:
#   scripts/run_sanitizers.sh                 # asan+ubsan and tsan (the CI set)
#   scripts/run_sanitizers.sh address         # one specific profile
#   scripts/run_sanitizers.sh --all           # address, undefined, thread, address+undefined
#   scripts/run_sanitizers.sh --fast thread   # tsan, threaded tests only
#   scripts/run_sanitizers.sh --scalar ...    # pin ml kernels to the scalar
#                                             # path (FLINT_KERNELS=scalar) so
#                                             # sanitizers cover the reference
#                                             # kernels, not just the SIMD ones
#
# Each profile builds into build-<profile>/ so the instrumented trees never
# pollute the primary build/ directory.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
FAST=0
PROFILES=()

for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --scalar) export FLINT_KERNELS=scalar ;;
    --all) PROFILES=(address undefined thread "address+undefined") ;;
    address|undefined|thread|address+undefined|asan+ubsan) PROFILES+=("$arg") ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

if [ "${#PROFILES[@]}" -eq 0 ]; then
  PROFILES=("address+undefined" thread)
fi

# Make sanitizer findings fatal and reports deterministic.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=0:detect_leaks=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

status=0
for profile in "${PROFILES[@]}"; do
  dir="build-${profile//+/-}"
  dir="${dir//address-undefined/asan-ubsan}"  # match the CMakePresets.json name
  echo "=== sanitizer profile: ${profile} (${dir}) ==="
  cmake -B "$dir" -S . -DFLINT_SANITIZE="$profile" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    > "$dir.configure.log" 2>&1 || { cat "$dir.configure.log"; exit 1; }

  ctest_args=(--output-on-failure -j "$JOBS")
  if [ "$FAST" -eq 1 ] && [ "$profile" = "thread" ]; then
    # Threaded smoke only: skip the serial bulk of the suite under TSan.
    # rpc_test rides along in every lane: the frame-corruption matrix wants
    # ASan/UBSan eyes on the decoder, and the leader/executor loopback tests
    # are genuinely multi-threaded (TSan). session_stream_test builds every
    # spilled trace chunk on a worker pool.
    cmake --build "$dir" -j "$JOBS" --target concurrency_smoke_test fl_fedbuff_test store_test obs_test \
      util_thread_pool_test parallel_determinism_test fl_resume_test rpc_test session_stream_test
    ctest_args+=(-R 'Concurrency|FedBuff|Checkpoint|Obs|ThreadPool|ParallelDeterminism|CrashResume|Frame|Messages|Loopback|UnixSocket|Tcp|LeaderExecutor|SessionStream|SessionGenerator')
  else
    cmake --build "$dir" -j "$JOBS"
  fi

  if (cd "$dir" && ctest "${ctest_args[@]}"); then
    echo "=== ${profile}: PASS ==="
  else
    echo "=== ${profile}: FAIL ==="
    status=1
  fi
done

exit "$status"
