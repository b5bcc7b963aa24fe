// Targeted tests for the list-lock internals: lazy unlink + helping, node-pool
// recycling across threads, bounded patience under real contention, and independence
// of multiple locks sharing the global epoch domain.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/list_range_lock.h"
#include "src/core/list_rw_range_lock.h"
#include "src/epoch/node_pool.h"
#include "src/harness/prng.h"
#include "tests/common/range_oracle.h"

namespace srl {
namespace {

// Released nodes stay in the list (marked) until a later traversal unlinks them. A
// traversal that walks the whole list must collect every marked node it passes.
TEST(ListLockInternalsTest, TraversalCollectsMarkedNodes) {
  ListRangeLock lock;
  // Acquire + release a ladder of disjoint ranges: each release only marks.
  std::vector<ListRangeLock::Handle> handles;
  for (uint64_t i = 0; i < 32; ++i) {
    handles.push_back(lock.Lock({i * 10, i * 10 + 5}));
  }
  for (auto h : handles) {
    lock.Unlock(h);
  }
  // A traversal to the very end must physically unlink all 32 marked nodes.
  auto h = lock.Lock({1000, 1010});
  EXPECT_EQ(lock.DebugHeldCount(), 1);
  lock.Unlock(h);
}

// Nodes allocated by one thread can be unlinked (and thus pooled) by another; the
// pools must keep every thread supplied through a long imbalanced run.
TEST(ListLockInternalsTest, CrossThreadNodeRecycling) {
  ListRangeLock lock;
  constexpr int kIters = 30000;  // well above the pool target of 128
  std::atomic<bool> stop{false};
  // Thread B continuously acquires a range positioned after A's, so B's traversals
  // unlink A's marked nodes, draining them into B's pools.
  std::thread b([&] {
    while (!stop.load()) {
      auto h = lock.Lock({5000, 5010});
      lock.Unlock(h);
    }
  });
  for (int i = 0; i < kIters; ++i) {
    auto h = lock.Lock({0, 10});
    lock.Unlock(h);
  }
  stop.store(true);
  b.join();
  EXPECT_EQ(lock.DebugHeldCount(), 0);
  EXPECT_TRUE(lock.DebugInvariantHolds());
}

// With zero patience and genuine CAS contention, LockBounded must sometimes give up —
// and a give-up must leave no residue in the list.
TEST(ListLockInternalsTest, LockBoundedGivesUpUnderContention) {
  ListRangeLock lock;
  std::atomic<uint64_t> give_ups{0};
  std::atomic<uint64_t> acquisitions{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        ListRangeLock::Handle h = nullptr;
        // Disjoint 1-unit ranges at the head of the list: no blocking, pure CAS races.
        if (lock.LockBounded({static_cast<uint64_t>(i % 7) * 2,
                              static_cast<uint64_t>(i % 7) * 2 + 1},
                             /*max_failures=*/0, &h)) {
          acquisitions.fetch_add(1);
          lock.Unlock(h);
        } else {
          give_ups.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_GT(acquisitions.load(), 0u);
  EXPECT_EQ(lock.DebugHeldCount(), 0);
  EXPECT_TRUE(lock.DebugInvariantHolds());
  // give_ups may be zero on an unloaded machine; the structural checks above are the
  // real assertions. Report for visibility.
  RecordProperty("give_ups", static_cast<int>(give_ups.load()));
}

// Many locks share the one global epoch domain; traffic on one lock must never corrupt
// another (nodes unlinked from lock A recycled into acquisitions on lock B).
TEST(ListLockInternalsTest, MultipleLocksShareEpochDomain) {
  constexpr int kLocks = 8;
  constexpr uint64_t kUniverse = 64;
  std::vector<std::unique_ptr<ListRwRangeLock>> locks;
  std::vector<std::unique_ptr<testing::RangeOracle>> oracles;
  for (int i = 0; i < kLocks; ++i) {
    locks.push_back(std::make_unique<ListRwRangeLock>());
    oracles.push_back(std::make_unique<testing::RangeOracle>(kUniverse));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0x10c + t);
      for (int i = 0; i < 8000; ++i) {
        const std::size_t li = rng.NextBelow(kLocks);
        uint64_t a = rng.NextBelow(kUniverse);
        uint64_t b = rng.NextBelow(kUniverse);
        if (a > b) {
          std::swap(a, b);
        }
        const Range r{a, b + 1};
        if (rng.NextChance(0.4)) {
          auto h = locks[li]->LockWrite(r);
          oracles[li]->EnterWrite(r);
          oracles[li]->ExitWrite(r);
          locks[li]->Unlock(h);
        } else {
          auto h = locks[li]->LockRead(r);
          oracles[li]->EnterRead(r);
          oracles[li]->ExitRead(r);
          locks[li]->Unlock(h);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int i = 0; i < kLocks; ++i) {
    EXPECT_FALSE(oracles[i]->Violated()) << "lock " << i;
    EXPECT_EQ(locks[i]->DebugHeldCount(), 0) << "lock " << i;
    EXPECT_TRUE(locks[i]->DebugInvariantHolds()) << "lock " << i;
  }
}

// Fast-path acquisitions interleaved with regular-path contention: the mark-at-head
// conversion protocol (§4.5) must stay consistent through repeated handoffs.
TEST(ListLockInternalsTest, FastPathConversionHandoffStress) {
  ListRangeLock lock(ListRangeLock::Options{.enable_fast_path = true});
  constexpr uint64_t kUniverse = 32;
  testing::RangeOracle oracle(kUniverse);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0xfa57 + t);
      for (int i = 0; i < 10000; ++i) {
        // Mostly tiny, often non-overlapping ranges with frequent empty-list windows —
        // maximizing fast-path acquisitions racing regular-path conversions.
        const uint64_t a = rng.NextBelow(kUniverse - 2);
        const Range r{a, a + 1 + rng.NextBelow(2)};
        auto h = lock.Lock(r);
        oracle.EnterWrite(r);
        oracle.ExitWrite(r);
        lock.Unlock(h);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(oracle.Violated());
  EXPECT_EQ(lock.DebugHeldCount(), 0);
}

// list-rw must never re-arm its fast path from the slow path: its validation scans read
// the head without a strip CAS, so a slow insertion into the empty list stays a plain
// node, and every later cycle finds the previous cycle's marked residue, retires it and
// leaves its own. (list-ex and list-lf re-arm instead, and then the same cycles touch
// neither pool list: see FastPathRearmsAfterContention in their suites.)
TEST(ListLockInternalsTest, RwSlowPathNeverRearmsFastPath) {
  ListRwRangeLock lock(ListRwRangeLock::Options{.enable_fast_path = true});
  auto fast = lock.LockWrite({0, 4});
  auto behind = lock.LockWrite({8, 12});  // strips the fast holder's mark
  ASSERT_EQ(lock.DebugHeldCount(), 2);
  lock.Unlock(fast);
  lock.Unlock(behind);                   // neither can fast-release: marked residue
  lock.Unlock(lock.LockWrite({0, 16}));  // slow: sweeps the residue, list empty again
  NodePool<LNode>& pool = NodePool<LNode>::Local();
  const std::size_t active = pool.ActiveSize();
  const std::size_t reclaimed = pool.ReclaimedSize();
  for (int i = 0; i < 16; ++i) {
    lock.Unlock(lock.LockWrite({0, 16}));
  }
  EXPECT_TRUE(pool.ActiveSize() != active || pool.ReclaimedSize() != reclaimed)
      << "every cycle recycled eagerly: the slow path re-armed the fast path";
  EXPECT_EQ(lock.DebugHeldCount(), 0);
  EXPECT_TRUE(lock.DebugInvariantHolds());
}

// RW lock: a full-range writer alternating with page-sized readers — the exact
// interleaving pattern of the VM subsystem's structural vs refined operations.
TEST(ListLockInternalsTest, FullRangeWriterVsFineReaders) {
  ListRwRangeLock lock;
  constexpr uint64_t kUniverse = 64;
  testing::RangeOracle oracle(kUniverse);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(0xbee + t);
      while (!stop.load()) {
        const uint64_t a = rng.NextBelow(kUniverse);
        const Range r{a, a + 1};
        auto h = lock.LockRead(r);
        oracle.EnterRead(r);
        oracle.ExitRead(r);
        lock.Unlock(h);
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    auto h = lock.LockWrite(Range::Full());
    oracle.EnterWrite({0, kUniverse});
    oracle.ExitWrite({0, kUniverse});
    lock.Unlock(h);
  }
  stop.store(true);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_FALSE(oracle.Violated());
  EXPECT_TRUE(oracle.Quiescent());
}

}  // namespace
}  // namespace srl
