// Ablation — the §4.5 fast path: uncontended acquire/release latency of every lock.
//
// The fast path's claim is a constant-step acquire/release when the lock is not
// contended ("particularly important for a single thread execution"). google-benchmark
// measures single-threaded lock+unlock of a small range for each implementation.
#include <benchmark/benchmark.h>

#include "src/baselines/segment_range_lock.h"
#include "src/baselines/tree_range_lock.h"
#include "src/core/fair_list_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/core/list_rw_range_lock.h"
#include "src/sync/rw_semaphore.h"

namespace srl {
namespace {

const Range kRange{100, 200};

void BM_ListExRegularPath(benchmark::State& state) {
  ListRangeLock lock;
  for (auto _ : state) {
    auto h = lock.Lock(kRange);
    lock.Unlock(h);
  }
}
BENCHMARK(BM_ListExRegularPath);

void BM_ListExFastPath(benchmark::State& state) {
  ListRangeLock lock(ListRangeLock::Options{.enable_fast_path = true});
  for (auto _ : state) {
    auto h = lock.Lock(kRange);
    lock.Unlock(h);
  }
}
BENCHMARK(BM_ListExFastPath);

void BM_ListRwRegularPathWrite(benchmark::State& state) {
  ListRwRangeLock lock;
  for (auto _ : state) {
    auto h = lock.Lock(kRange);
    lock.Unlock(h);
  }
}
BENCHMARK(BM_ListRwRegularPathWrite);

void BM_ListRwFastPathWrite(benchmark::State& state) {
  ListRwRangeLock lock(ListRwRangeLock::Options{.enable_fast_path = true});
  for (auto _ : state) {
    auto h = lock.Lock(kRange);
    lock.Unlock(h);
  }
}
BENCHMARK(BM_ListRwFastPathWrite);

void BM_ListRwFastPathRead(benchmark::State& state) {
  ListRwRangeLock lock(ListRwRangeLock::Options{.enable_fast_path = true});
  for (auto _ : state) {
    auto h = lock.Lock(kRange, LockMode::kRead);
    lock.Unlock(h);
  }
}
BENCHMARK(BM_ListRwFastPathRead);

void BM_FairListEx(benchmark::State& state) {
  FairRangeLock<ListRangeLock> lock;
  for (auto _ : state) {
    auto h = lock.Lock(kRange);
    lock.Unlock(h);
  }
}
BENCHMARK(BM_FairListEx);

void BM_TreeLock(benchmark::State& state) {
  TreeRangeLock lock;
  for (auto _ : state) {
    auto h = lock.Lock(kRange);
    lock.Unlock(h);
  }
}
BENCHMARK(BM_TreeLock);

void BM_SegmentLockNarrow(benchmark::State& state) {
  SegmentRangeLock lock(1 << 20, 256);
  for (auto _ : state) {
    auto h = lock.Lock(kRange);  // one segment
    lock.Unlock(h);
  }
}
BENCHMARK(BM_SegmentLockNarrow);

void BM_SegmentLockFullRange(benchmark::State& state) {
  SegmentRangeLock lock(1 << 20, 256);
  for (auto _ : state) {
    auto h = lock.Lock(Range::Full());  // all 256 segments
    lock.Unlock(h);
  }
}
BENCHMARK(BM_SegmentLockFullRange);

void BM_RwSemaphore(benchmark::State& state) {
  RwSemaphore sem;
  for (auto _ : state) {
    sem.lock();
    sem.unlock();
  }
}
BENCHMARK(BM_RwSemaphore);

}  // namespace
}  // namespace srl

BENCHMARK_MAIN();
