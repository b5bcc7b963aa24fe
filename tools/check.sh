#!/usr/bin/env bash
# CI-style verification: configure + build + ctest in plain, TSan and ASan(+UBSan)
# configurations, failing on the first error.
#
# Usage:
#   tools/check.sh                # all three configurations
#   tools/check.sh plain          # just one (plain | thread | address)
#   tools/check.sh --oversub plain
#                                 # additionally run the oversubscription smoke (a
#                                 # short bench/abl_oversub sweep of the list locks
#                                 # at 64 threads) after the plain test pass — a cheap
#                                 # "does the admission spinner still survive
#                                 # oversubscription" canary
#
# The plain pass also builds the repository benchmark's srl_bench (.bench_build/, as
# benchmark/run.py builds it), which no test target compiles.
# The sanitizer passes run the concurrency-heavy lock tests (not the full suite) to keep
# wall-clock sane under the ~10x sanitizer slowdown; the plain pass runs everything —
# including the `bench_smoke` tier, which runs every bench binary with tiny durations so
# benches can rot neither at compile time nor at runtime.
# CTest labels split the tiers further: `unit` tests run under every configuration, but
# `stress` tests (the randomized fuzz batteries) run only in plain and TSan — their value
# under a sanitizer is catching data races, which is TSan's job; repeating them under
# ASan+UBSan would double the slowest part of the matrix for little coverage.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

# Peel option flags off before the remaining words become the configuration list.
OVERSUB=0
ARGS=()
for arg in "$@"; do
  case "$arg" in
    --oversub) OVERSUB=1 ;;
    *) ARGS+=("$arg") ;;
  esac
done
CONFIGS=("${ARGS[@]:-plain thread address}")
# Word-split the default string while leaving explicit args intact.
read -r -a CONFIGS <<<"${CONFIGS[*]}"

# Lock-free hot paths + the sync substrate: what TSan/ASan must stay clean on.
# VmStructuralFuzz is the structural-VM-op battery (optimistic mm_rb walks, epoch-
# reclaimed VMAs, range-scoped mmap/munmap); it carries the `stress` label, so the
# ASan+UBSan pass (-LE stress) skips it while TSan races it for real. The list-lock
# stress sweeps, internals (helping unlink, cross-thread recycling, fast-path
# handoff), node pools, retire lists and the VM lock suites cover the shared
# Listing-1 core (src/core/range_list.h) under every lock built on it.
SANITIZED_TESTS='ListRangeLock|ListLockFree|ListRwRangeLock|FairList|LockConformance|LockFuzz|Epoch|Sync|SpinLock|RwSpinLock|FairRwLock|RwSemaphore|TreeRangeLock|SegmentRangeLock|RangeOracle|VmStructuralFuzz|VmFaultUnmapRace|VmStripe|VmSweep|SkiplistRangeLock|SkipList|Admission|Topology|ListExStress|ListRwStress|ListLockInternals|NodePool|RetireList|VmConcurrent|VmLock'

run_config() {
  local config="$1"
  local build_dir sanitize
  case "$config" in
    plain)   build_dir=build-check;      sanitize="" ;;
    thread)  build_dir=build-check-tsan; sanitize=thread ;;
    address) build_dir=build-check-asan; sanitize=address ;;
    *) echo "unknown configuration: $config (want plain|thread|address)" >&2; exit 2 ;;
  esac

  echo "=== [$config] configure ==="
  cmake -B "$build_dir" -S . -DSRL_SANITIZE="$sanitize" -DCMAKE_BUILD_TYPE=RelWithDebInfo

  echo "=== [$config] build ==="
  cmake --build "$build_dir" -j "$JOBS"
  if [[ "$config" == plain ]]; then
    # The repository benchmark is its own CMake project over the library headers, so
    # the tree above never compiles it. Build it the way benchmark/run.py does, so a
    # library API change that breaks srl_bench fails here; run.py reuses this build.
    echo "=== [$config] build srl_bench ==="
    cmake -S benchmark -B .bench_build -DCMAKE_BUILD_TYPE=Release
    cmake --build .bench_build --target srl_bench -j "$JOBS"
  fi

  echo "=== [$config] test ==="
  if [[ "$config" == plain ]]; then
    ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
    # Race-sensitive tests, 30 repeats each with 8 running at once: a rare
    # interleaving that one pass can miss shows up here. The flusher-vs-fault hammer
    # races the page-table leaf walk against faults that re-allocate the leaves it
    # frees. The admission gate's FIFO culls and the spinner rotation that keeps
    # oversubscribed list-lf full chains live (OversubscribedFullChainsStayLive) run
    # here further oversubscribed by their neighbours. The two stalled-section retire
    # list tests race a 5 ms barrier watchdog, which load stretches.
    echo "=== [$config] loaded repeats ==="
    ctest --test-dir "$build_dir" --output-on-failure \
      -R 'TimedReaderLostRaceConservesPoolNodes|CullsServeOldestParkedWaiterFirst|OversubscribedFullChainsStayLive|VmStripeTest|FlusherVsFaultHammerOnTrimmedWindow|StalledSectionCannotGrow' \
      --repeat until-fail:30 -j8
    # The lock-free fault's ordering oracles, 10 repeats each with 8 at once (~20 s;
    # loaded like this, one oracle instance runs 1-2.5 s): the scoped fault-vs-unmap
    # instances and the winner-cancel race. The fault validates behind an acquire fence,
    # not a full one, so these are what would catch an install or a cancel the locks
    # fail to order.
    ctest --test-dir "$build_dir" --output-on-failure \
      -R 'FaultVsUnmapOracle/.*scoped|WinnerCancelRacingAMunmapLeavesNoStalePage' \
      --repeat until-fail:10 -j8
    if [[ "$OVERSUB" == 1 ]]; then
      # Oversubscription canary: far more threads than any CI core count, long enough
      # for the spinner's parking/cull machinery to engage. Only the list locks
      # carry the gate (stock and tree have none), on the two mixes where their
      # waiters watch and park. Exit status only — perf numbers from shared runners
      # are not judged here (see tools/perf_diff.py for trajectories).
      echo "=== [$config] oversubscription smoke ==="
      "$build_dir/bench/abl_oversub" \
        --variants=list,list-lf --mixes=adversarial,hot \
        --threads=64 --gates=on,off --secs=0.2 --repeats=1
    fi
  elif [[ "$config" == thread ]]; then
    # Sanitizers must abort the test process on any finding, not just log it.
    TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
      ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" -R "$SANITIZED_TESTS"
  else
    # ASan+UBSan: unit tier only (-LE stress); see the header comment.
    ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
    UBSAN_OPTIONS="halt_on_error=1" \
      ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" \
        -R "$SANITIZED_TESTS" -LE stress
  fi
}

for config in "${CONFIGS[@]}"; do
  run_config "$config"
done

echo "=== all configurations green ==="
