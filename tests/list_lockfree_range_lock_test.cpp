// Tests for the bucketed lock-free range lock: bucket geometry, multi-bucket sibling
// chains, the all-buckets short-circuit, partial-failure release on timed acquisition,
// cross-thread release, and destructor collection of marked residue. Exclusion and
// try/timed semantics are covered by the shared conformance and fuzz batteries; this
// file pins down what is specific to the bucketed structure.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/list_lockfree_range_lock.h"
#include "src/epoch/node_pool.h"
#include "src/harness/prng.h"

namespace srl {
namespace {

using namespace std::chrono_literals;
using Options = ListLockFreeRangeLock::Options;

TEST(ListLockFreeRangeLockTest, BucketCountClampsAndRoundsToPowerOfTwo) {
  EXPECT_EQ(ListLockFreeRangeLock(Options{.buckets = 0}).bucket_count(), 1u);
  EXPECT_EQ(ListLockFreeRangeLock(Options{.buckets = 1}).bucket_count(), 1u);
  EXPECT_EQ(ListLockFreeRangeLock(Options{.buckets = 3}).bucket_count(), 4u);
  EXPECT_EQ(ListLockFreeRangeLock(Options{.buckets = 16}).bucket_count(), 16u);
  EXPECT_EQ(ListLockFreeRangeLock(Options{.buckets = 200}).bucket_count(), 64u)
      << "covered-bucket mask is one uint64_t: 64 is the ceiling";
  EXPECT_EQ(ListLockFreeRangeLock(Options{.window_shift = -5}).window_shift(), 0);
  EXPECT_EQ(ListLockFreeRangeLock(Options{.window_shift = 99}).window_shift(), 63);
}

TEST(ListLockFreeRangeLockTest, LockUnlockSingleThread) {
  ListLockFreeRangeLock lock(Options{.buckets = 16, .window_shift = 4});
  // {10, 20} sits inside windows 0..1 of 16: at most two buckets, at least one node.
  ListLockFreeRangeLock::Handle h = lock.Lock({10, 20});
  ASSERT_NE(h, nullptr);
  EXPECT_GE(lock.DebugHeldCount(), 1);
  EXPECT_LE(lock.DebugHeldCount(), 2);
  EXPECT_TRUE(lock.DebugInvariantHolds());
  lock.Unlock(h);
  EXPECT_EQ(lock.DebugHeldCount(), 0);
}

// A range spanning >= bucket_count windows short-circuits to every bucket: the handle
// chains exactly bucket_count sibling nodes, and one Unlock releases them all.
TEST(ListLockFreeRangeLockTest, WideRangeOwnsOneNodePerBucket) {
  ListLockFreeRangeLock lock(Options{.buckets = 8, .window_shift = 0});
  auto h = lock.Lock({0, 8});  // 8 windows of size 1 -> all-buckets short-circuit
  EXPECT_EQ(lock.DebugHeldCount(), 8) << "held count counts nodes, not acquisitions";
  EXPECT_TRUE(lock.DebugInvariantHolds());
  // A disjoint range can still be acquired: same buckets, non-overlapping -> the
  // sorted lists hold both without conflict.
  auto h2 = lock.Lock({100, 108});
  EXPECT_EQ(lock.DebugHeldCount(), 16);
  lock.Unlock(h);
  EXPECT_EQ(lock.DebugHeldCount(), 8);
  lock.Unlock(h2);
  EXPECT_EQ(lock.DebugHeldCount(), 0);
  EXPECT_TRUE(lock.DebugInvariantHolds());
}

TEST(ListLockFreeRangeLockTest, SingleBucketDegeneratesToOneSortedList) {
  ListLockFreeRangeLock lock(Options{.buckets = 1, .window_shift = 4});
  auto h1 = lock.Lock({0, 10});
  auto h2 = lock.Lock({20, 30});
  auto h3 = lock.Lock({10, 20});  // adjacent, not overlapping
  EXPECT_EQ(lock.DebugHeldCount(), 3);
  EXPECT_TRUE(lock.DebugInvariantHolds());
  ListLockFreeRangeLock::Handle h4 = nullptr;
  EXPECT_FALSE(lock.TryLock({5, 25}, &h4)) << "overlaps all three held ranges";
  lock.Unlock(h3);
  lock.Unlock(h1);
  lock.Unlock(h2);  // out-of-order release is fine: marks are independent
  EXPECT_EQ(lock.DebugHeldCount(), 0);
}

TEST(ListLockFreeRangeLockTest, TryLockConflictFailsWithoutResidue) {
  ListLockFreeRangeLock lock(Options{.buckets = 8, .window_shift = 0});
  auto held = lock.Lock({5, 15});
  const int held_nodes = lock.DebugHeldCount();
  ListLockFreeRangeLock::Handle h = nullptr;
  EXPECT_FALSE(lock.TryLock({10, 20}, &h));
  EXPECT_EQ(lock.DebugHeldCount(), held_nodes)
      << "failed TryLock left an unmarked node behind";
  EXPECT_TRUE(lock.DebugInvariantHolds());
  ASSERT_TRUE(lock.TryLock({50, 60}, &h)) << "disjoint range must not be refused";
  lock.Unlock(h);
  lock.Unlock(held);
  EXPECT_EQ(lock.DebugHeldCount(), 0);
}

// Timed acquisition failing at a later bucket must release the already-inserted prefix.
// Geometry: with 8 buckets and window_shift 0, window 16 Fibonacci-hashes to bucket 7,
// so a holder of {16, 17} conflicts with an all-buckets range in the LAST bucket the
// ascending-order insertion reaches — after seven prefix nodes are already in place.
TEST(ListLockFreeRangeLockTest, TimedFailureReleasesInsertedPrefix) {
  ListLockFreeRangeLock lock(Options{.buckets = 8, .window_shift = 0});
  auto holder = lock.Lock({16, 17});
  ASSERT_EQ(lock.DebugHeldCount(), 1) << "geometry drifted: holder must cover 1 bucket";
  ListLockFreeRangeLock::Handle h = nullptr;
  EXPECT_FALSE(lock.LockFor({0, 100}, 2ms, &h));
  EXPECT_EQ(lock.DebugHeldCount(), 1)
      << "aborted multi-bucket acquisition left prefix nodes held";
  EXPECT_TRUE(lock.DebugInvariantHolds());
  lock.Unlock(holder);
  // The marked prefix residue must not block anyone: the full range is acquirable now.
  ASSERT_TRUE(lock.LockFor({0, 100}, 1s, &h));
  EXPECT_EQ(lock.DebugHeldCount(), 8);
  lock.Unlock(h);
  EXPECT_EQ(lock.DebugHeldCount(), 0);
}

TEST(ListLockFreeRangeLockTest, HandleReleasableFromAnotherThread) {
  ListLockFreeRangeLock lock(Options{.buckets = 8, .window_shift = 0});
  auto h = lock.Lock({0, 32});  // all buckets
  std::thread releaser([&] { lock.Unlock(h); });
  releaser.join();
  EXPECT_EQ(lock.DebugHeldCount(), 0);
  ListLockFreeRangeLock::Handle h2 = nullptr;
  ASSERT_TRUE(lock.TryLock({0, 32}, &h2));
  lock.Unlock(h2);
}

// The mutual-exclusion argument across buckets: overlapping ranges always share at
// least one bucket, so a plain counter guarded by overlapping Lock calls from many
// threads must never tear — also the TSan target for the insertion-CAS publication.
TEST(ListLockFreeRangeLockTest, OverlappingGuardedCounterNeverTears) {
  ListLockFreeRangeLock lock(Options{.buckets = 16, .window_shift = 2});
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  uint64_t counter = 0;  // non-atomic on purpose
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Alternate narrow and wide overlapping ranges so multi-bucket and
        // single-bucket acquisitions exclude each other.
        const Range r = (i + t) % 3 == 0 ? Range{0, 64} : Range{4, 8};
        ListLockFreeRangeLock::Guard g(lock, r);
        ++counter;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(lock.DebugHeldCount(), 0);
  EXPECT_TRUE(lock.DebugInvariantHolds());
}

// Destruction with marked residue in several buckets (released ranges no later
// traversal collected): the destructor must reclaim them without tripping its
// all-released assertions.
TEST(ListLockFreeRangeLockTest, DestructorCollectsMarkedResidue) {
  for (int round = 0; round < 4; ++round) {
    ListLockFreeRangeLock lock(Options{.buckets = 8, .window_shift = 0});
    // Two disjoint wide ranges (both cover >= 8 windows, hence every bucket): the
    // first acquisition takes every bucket's fast path, the second strips those
    // marked heads and inserts behind them. Both releases then find non-empty
    // buckets, so neither can fast-recycle — 16 marked nodes of residue per round
    // that only the destructor collects.
    auto h1 = lock.Lock({0, 40});
    auto h2 = lock.Lock({100, 140});
    lock.Unlock(h1);
    lock.Unlock(h2);
    EXPECT_EQ(lock.DebugHeldCount(), 0);
  }  // destructor runs here
}

// Regression for the §4.5 re-arm: a bucket that went slow once (a fast holder plus a
// disjoint holder inserted behind it, both released as marked residue) must return to
// the fast path once one slow acquisition has swept it empty. After that, every cycle
// must recycle its node eagerly and retire nothing, which this thread's pool sizes show
// exactly: a slow cycle would retire the previous cycle's residue and leave its own
// node behind in the list.
TEST(ListLockFreeRangeLockTest, FastPathRearmsAfterContention) {
  ListLockFreeRangeLock lock(Options{.buckets = 16, .window_shift = 4});
  // Every range below sits in window 0, hence in one bucket.
  auto fast = lock.Lock({0, 4});
  auto behind = lock.Lock({8, 12});  // strips the fast holder's mark, inserts behind it
  ASSERT_EQ(lock.DebugHeldCount(), 2) << "geometry drifted: both must share a bucket";
  lock.Unlock(fast);
  lock.Unlock(behind);              // neither can fast-release: marked residue
  lock.Unlock(lock.Lock({0, 16}));  // slow: sweeps the residue, bucket empty again
  NodePool<LNode>& pool = NodePool<LNode>::Local();
  const std::size_t active = pool.ActiveSize();
  const std::size_t reclaimed = pool.ReclaimedSize();
  for (int i = 0; i < 16; ++i) {
    lock.Unlock(lock.Lock({0, 16}));
  }
  EXPECT_EQ(pool.ReclaimedSize(), reclaimed) << "a cycle took the slow path";
  EXPECT_EQ(pool.ActiveSize(), active) << "a cycle's node was not recycled eagerly";
  EXPECT_EQ(lock.DebugHeldCount(), 0);
}

// TSan/ASan target for the re-arm publication: four threads hammer overlapping and
// disjoint ranges of ONE window (one bucket), so the bucket keeps draining and
// refilling — slow-path insertions publish marked heads that race strip CASes, eager
// recycles and the fast path itself. The per-unit counters are non-atomic and written
// only under the lock: an exclusion or publication hole shows up as a lost count (plain
// build) or a reported race (TSan), and a use after an eager recycle as an ASan report.
TEST(ListLockFreeRangeLockTest, SlowPathFastHeadHandoffStress) {
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  constexpr uint64_t kWindow = 16;
  ListLockFreeRangeLock lock(Options{.buckets = 16, .window_shift = 4});
  uint64_t units[kWindow] = {};  // non-atomic on purpose
  std::atomic<uint64_t> expected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0x4ea7 + t);
      uint64_t mine = 0;
      for (int i = 0; i < kIters; ++i) {
        // Mostly 1-2 unit ranges (often disjoint, so the bucket holds several nodes),
        // with an occasional whole-window range that waits for all of them.
        const uint64_t a = rng.NextBelow(kWindow - 2);
        const Range r = rng.NextChance(0.05) ? Range{0, kWindow}
                                             : Range{a, a + 1 + rng.NextBelow(2)};
        auto h = lock.Lock(r);
        for (uint64_t u = r.start; u < r.end; ++u) {
          ++units[u];
        }
        lock.Unlock(h);
        mine += r.end - r.start;
      }
      expected.fetch_add(mine);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  uint64_t total = 0;
  for (uint64_t u : units) {
    total += u;
  }
  EXPECT_EQ(total, expected.load());
  EXPECT_EQ(lock.DebugHeldCount(), 0);
  EXPECT_TRUE(lock.DebugInvariantHolds());
}

}  // namespace
}  // namespace srl
