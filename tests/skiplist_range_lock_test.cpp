// Tests for the skiplist-indexed range lock: level-0 insertion-is-acquisition,
// mark-bit release across index levels, helping snips with the links_remaining
// retire countdown, NodePool conservation, and destructor collection of (possibly
// partially snipped) marked residue. Exclusion and try/timed semantics are covered
// by the shared conformance and fuzz batteries; this file pins down what is specific
// to the skiplist index.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/skiplist_range_lock.h"
#include "src/epoch/node_pool.h"

namespace srl {
namespace {

using namespace std::chrono_literals;

TEST(SkiplistRangeLockTest, LockUnlockSingleThread) {
  SkiplistRangeLock lock;
  SkiplistRangeLock::Handle h = lock.Lock({10, 20});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(lock.DebugHeldCount(), 1u);
  EXPECT_TRUE(lock.DebugInvariantHolds());
  lock.Unlock(h);
  EXPECT_EQ(lock.DebugHeldCount(), 0u);
}

TEST(SkiplistRangeLockTest, DisjointRangesCoexistSortedByStart) {
  SkiplistRangeLock lock;
  auto h2 = lock.Lock({20, 30});
  auto h1 = lock.Lock({0, 10});
  auto h3 = lock.Lock({10, 20});  // adjacent, not overlapping
  EXPECT_EQ(lock.DebugHeldCount(), 3u);
  EXPECT_TRUE(lock.DebugInvariantHolds());
  SkiplistRangeLock::Handle h4 = nullptr;
  EXPECT_FALSE(lock.TryLock({5, 25}, &h4)) << "overlaps all three held ranges";
  lock.Unlock(h3);
  lock.Unlock(h1);
  lock.Unlock(h2);  // out-of-order release is fine: marks are independent
  EXPECT_EQ(lock.DebugHeldCount(), 0u);
}

TEST(SkiplistRangeLockTest, TryLockConflictFailsWithoutResidue) {
  SkiplistRangeLock lock;
  auto held = lock.Lock({5, 15});
  SkiplistRangeLock::Handle h = nullptr;
  EXPECT_FALSE(lock.TryLock({10, 20}, &h));
  EXPECT_FALSE(lock.TryLock({0, 6}, &h)) << "conflict via the predecessor's end";
  EXPECT_EQ(lock.DebugHeldCount(), 1u) << "failed TryLock left an unmarked node";
  EXPECT_TRUE(lock.DebugInvariantHolds());
  ASSERT_TRUE(lock.TryLock({50, 60}, &h)) << "disjoint range must not be refused";
  lock.Unlock(h);
  lock.Unlock(held);
  EXPECT_EQ(lock.DebugHeldCount(), 0u);
}

TEST(SkiplistRangeLockTest, TimedAcquisitionExpiresAgainstHolder) {
  SkiplistRangeLock lock;
  auto held = lock.Lock({0, 100});
  SkiplistRangeLock::Handle h = nullptr;
  EXPECT_FALSE(lock.LockFor({40, 50}, 2ms, &h));
  EXPECT_EQ(lock.DebugHeldCount(), 1u);
  lock.Unlock(held);
  ASSERT_TRUE(lock.LockFor({40, 50}, 1s, &h));
  lock.Unlock(h);
  EXPECT_EQ(lock.DebugHeldCount(), 0u);
}

TEST(SkiplistRangeLockTest, HandleReleasableFromAnotherThread) {
  SkiplistRangeLock lock;
  auto h = lock.Lock({0, 32});
  std::thread releaser([&] { lock.Unlock(h); });
  releaser.join();
  EXPECT_EQ(lock.DebugHeldCount(), 0u);
  SkiplistRangeLock::Handle h2 = nullptr;
  ASSERT_TRUE(lock.TryLock({0, 32}, &h2));
  lock.Unlock(h2);
}

// Exact NodePool conservation, single-threaded and deterministic. Acquiring the same
// start repeatedly makes every find pass the previous acquisition's marked node at
// each of its still-linked levels, snip them all, and retire it — so the steady
// state is exactly one standing residue node: pool_total == baseline - 1 after every
// round trip. A leak (a snipped node never retired because the countdown drifted) or
// a double retire (a level snipped twice) moves the total in opposite directions.
TEST(SkiplistRangeLockTest, SameKeyChurnConservesPoolNodes) {
  auto pool_total = [] {
    auto& pool = NodePool<SkipLockNode>::Local();
    return pool.ActiveSize() + pool.ReclaimedSize();
  };
  SkiplistRangeLock lock;
  {
    auto h = lock.Lock({7, 9});  // prime: first residue node
    lock.Unlock(h);
  }
  const std::size_t baseline = pool_total() + 1;  // +1: the standing residue node
  for (int i = 0; i < 400; ++i) {
    SkiplistRangeLock::Handle h = nullptr;
    ASSERT_TRUE(lock.TryLock({7, 9}, &h)) << "round " << i;
    lock.Unlock(h);
    ASSERT_EQ(pool_total(), baseline - 1) << "round " << i;
  }
  EXPECT_EQ(lock.DebugHeldCount(), 0u);
  EXPECT_TRUE(lock.DebugInvariantHolds());
}

// The level-0 CAS arbitration: overlapping Lock calls from many threads guard a
// non-atomic counter; any lost exclusion tears it. Also the TSan target for the
// insertion CAS's publication ordering.
TEST(SkiplistRangeLockTest, OverlappingGuardedCounterNeverTears) {
  SkiplistRangeLock lock;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  uint64_t counter = 0;  // non-atomic on purpose
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Alternate narrow and wide overlapping ranges so waits arise on both the
        // predecessor-end and successor-start conflict arms.
        const Range r = (i + t) % 3 == 0 ? Range{0, 64} : Range{4, 8};
        RangeGuard g(lock, r);
        ++counter;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(lock.DebugHeldCount(), 0u);
  EXPECT_TRUE(lock.DebugInvariantHolds());
}

// Concurrent disjoint holders at scale: hundreds of simultaneously live ranges (the
// regime the index exists for), fuzzing the upper-level link/snip machinery while
// DebugInvariantHolds spot-checks the sorted/disjoint invariants live.
TEST(SkiplistRangeLockTest, ManyLiveRangesStress) {
  SkiplistRangeLock lock;
  constexpr int kThreads = 4;
  constexpr int kSlots = 128;   // per-thread slots -> up to 512 live ranges
  constexpr int kIters = 1500;
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<SkiplistRangeLock::Handle> held(kSlots, nullptr);
      uint64_t state = 0x9e3779b97f4a7c15u * static_cast<uint64_t>(t + 1);
      auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
      };
      for (int i = 0; i < kIters; ++i) {
        const int slot = static_cast<int>(next() % kSlots);
        // Thread-disjoint universe: slot s of thread t is [base, base + 4).
        const uint64_t base =
            (static_cast<uint64_t>(t) * kSlots + static_cast<uint64_t>(slot)) * 8;
        if (held[slot] == nullptr) {
          held[slot] = lock.Lock({base, base + 4});
        } else {
          lock.Unlock(held[slot]);
          held[slot] = nullptr;
        }
      }
      for (auto& h : held) {
        if (h != nullptr) {
          lock.Unlock(h);
        }
      }
    });
  }
  for (int probe = 0; probe < 50; ++probe) {
    if (!lock.DebugInvariantHolds()) {
      ok.store(false);
      break;
    }
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_TRUE(ok.load()) << "invariant violated while threads churned";
  EXPECT_EQ(lock.DebugHeldCount(), 0u);
  EXPECT_TRUE(lock.DebugInvariantHolds());
}

// Destruction with marked residue, including partially snipped nodes: a later find
// that stops short of a residue node's lower levels leaves links_remaining strictly
// between 0 and top_level + 1. The destructor's per-level sweep must free each node
// exactly once regardless (ASan backs the assertion).
TEST(SkiplistRangeLockTest, DestructorCollectsMarkedResidue) {
  for (int round = 0; round < 8; ++round) {
    SkiplistRangeLock lock;
    std::vector<SkiplistRangeLock::Handle> hs;
    for (uint64_t k = 0; k < 32; ++k) {
      hs.push_back(lock.Lock({k * 10, k * 10 + 5}));
    }
    for (auto& h : hs) {
      lock.Unlock(h);
    }
    // Partial snipping: finds targeted at a few keys unlink those nodes at the
    // levels on their search paths, leaving a mix of fully-linked, partially
    // snipped, and fully retired residue for the destructor.
    for (uint64_t k = 0; k < 32; k += 5) {
      SkiplistRangeLock::Handle h = nullptr;
      ASSERT_TRUE(lock.TryLock({k * 10, k * 10 + 5}, &h));
      lock.Unlock(h);
    }
    EXPECT_EQ(lock.DebugHeldCount(), 0u);
  }  // destructor runs here
}

}  // namespace
}  // namespace srl
