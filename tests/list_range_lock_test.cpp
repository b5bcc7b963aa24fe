// Tests for the exclusive list-based range lock (§4.1) and its fast-path / fairness
// configurations.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/fair_list_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/epoch/node_pool.h"
#include "src/harness/prng.h"
#include "tests/common/range_oracle.h"
#include "tests/common/test_clock.h"

namespace srl {
namespace {

using namespace std::chrono_literals;
using testing::StaysFalse;

TEST(ListRangeLockTest, LockUnlockSingleThread) {
  ListRangeLock lock;
  ListRangeLock::Handle h = lock.Lock({10, 20});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(lock.DebugHeldCount(), 1);
  EXPECT_TRUE(lock.DebugInvariantHolds());
  lock.Unlock(h);
  EXPECT_EQ(lock.DebugHeldCount(), 0);
}

TEST(ListRangeLockTest, DisjointRangesHeldTogether) {
  ListRangeLock lock;
  auto h1 = lock.Lock({0, 10});
  auto h2 = lock.Lock({20, 30});
  auto h3 = lock.Lock({10, 20});  // fills the gap; adjacent, not overlapping
  EXPECT_EQ(lock.DebugHeldCount(), 3);
  EXPECT_TRUE(lock.DebugInvariantHolds());
  lock.Unlock(h2);
  lock.Unlock(h1);
  lock.Unlock(h3);
  EXPECT_EQ(lock.DebugHeldCount(), 0);
}

TEST(ListRangeLockTest, SortedInsertionAnyOrder) {
  ListRangeLock lock;
  auto h3 = lock.Lock({40, 50});
  auto h1 = lock.Lock({0, 10});
  auto h2 = lock.Lock({20, 30});
  EXPECT_TRUE(lock.DebugInvariantHolds());
  EXPECT_EQ(lock.DebugHeldCount(), 3);
  lock.Unlock(h1);
  lock.Unlock(h2);
  lock.Unlock(h3);
}

TEST(ListRangeLockTest, OverlapBlocksUntilRelease) {
  ListRangeLock lock;
  auto h = lock.Lock({0, 10});
  std::atomic<bool> acquired{false};
  std::thread blocked([&] {
    auto h2 = lock.Lock({5, 15});
    acquired.store(true);
    lock.Unlock(h2);
  });
  EXPECT_TRUE(StaysFalse([&] { return acquired.load(); }));
  lock.Unlock(h);
  blocked.join();
  EXPECT_TRUE(acquired.load());
}

TEST(ListRangeLockTest, FullRangeBlocksEverything) {
  ListRangeLock lock;
  auto h = lock.Lock(Range::Full());
  std::atomic<bool> acquired{false};
  std::thread blocked([&] {
    auto h2 = lock.Lock({1000, 1001});
    acquired.store(true);
    lock.Unlock(h2);
  });
  EXPECT_TRUE(StaysFalse([&] { return acquired.load(); }));
  lock.Unlock(h);
  blocked.join();
  EXPECT_TRUE(acquired.load());
}

TEST(ListRangeLockTest, AdjacentRangesDoNotBlock) {
  ListRangeLock lock;
  auto h = lock.Lock({0, 10});
  std::atomic<bool> acquired{false};
  std::thread other([&] {
    auto h2 = lock.Lock({10, 20});
    acquired.store(true);
    lock.Unlock(h2);
  });
  other.join();
  EXPECT_TRUE(acquired.load());
  lock.Unlock(h);
}

// The §3 motivating example: A=[1,3) held, B=[2,7) blocked on A, C=[4,5) must proceed —
// the list design does not serialize C behind B the way the kernel tree lock does.
TEST(ListRangeLockTest, NonOverlappingRequestNotBlockedBehindWaiter) {
  ListRangeLock lock;
  auto a = lock.Lock({1, 3});
  std::atomic<bool> b_acquired{false};
  std::thread b([&] {
    auto h = lock.Lock({2, 7});
    b_acquired.store(true);
    lock.Unlock(h);
  });
  // B cannot be observed waiting from outside (a blocked list requester inserts nothing
  // until the conflict clears), so bound the observation instead of sleeping blind: B
  // must not get in while A holds [1,3).
  EXPECT_TRUE(StaysFalse([&] { return b_acquired.load(); }));
  std::atomic<bool> c_acquired{false};
  std::thread c([&] {
    auto h = lock.Lock({4, 5});
    c_acquired.store(true);
    lock.Unlock(h);
  });
  c.join();  // C terminates while A is still held and B still waits
  EXPECT_TRUE(c_acquired.load());
  EXPECT_FALSE(b_acquired.load());
  lock.Unlock(a);
  b.join();
  EXPECT_TRUE(b_acquired.load());
}

TEST(ListRangeLockTest, LockBoundedUncontendedSucceeds) {
  ListRangeLock lock;
  ListRangeLock::Handle h = nullptr;
  EXPECT_TRUE(lock.LockBounded({0, 10}, 0, &h));
  ASSERT_NE(h, nullptr);
  lock.Unlock(h);
}

TEST(ListRangeLockFastPathTest, SingleThreadUsesFastPath) {
  ListRangeLock lock(ListRangeLock::Options{.enable_fast_path = true});
  for (int i = 0; i < 1000; ++i) {
    auto h = lock.Lock({0, 100});
    lock.Unlock(h);
  }
  EXPECT_EQ(lock.DebugHeldCount(), 0);
}

TEST(ListRangeLockFastPathTest, FastPathHolderBlocksOverlap) {
  ListRangeLock lock(ListRangeLock::Options{.enable_fast_path = true});
  auto h = lock.Lock({0, 10});  // fast path (empty list)
  std::atomic<bool> acquired{false};
  std::thread blocked([&] {
    auto h2 = lock.Lock({5, 15});  // must unmark-convert the fast-path node, then wait
    acquired.store(true);
    lock.Unlock(h2);
  });
  EXPECT_TRUE(StaysFalse([&] { return acquired.load(); }));
  lock.Unlock(h);  // fast-path release CAS fails (converted); regular release
  blocked.join();
  EXPECT_TRUE(acquired.load());
}

TEST(ListRangeLockFastPathTest, FastPathHolderAllowsDisjoint) {
  ListRangeLock lock(ListRangeLock::Options{.enable_fast_path = true});
  auto h = lock.Lock({0, 10});
  std::atomic<bool> acquired{false};
  std::thread other([&] {
    auto h2 = lock.Lock({50, 60});
    acquired.store(true);
    lock.Unlock(h2);
  });
  other.join();
  EXPECT_TRUE(acquired.load());
  lock.Unlock(h);
}

// Regression for the §4.5 re-arm, as in ListLockFreeRangeLockTest: once one slow
// acquisition has swept the list empty, later cycles must be back on the fast path —
// eager recycle, nothing retired.
TEST(ListRangeLockFastPathTest, FastPathRearmsAfterContention) {
  ListRangeLock lock(ListRangeLock::Options{.enable_fast_path = true});
  auto fast = lock.Lock({0, 4});
  auto behind = lock.Lock({8, 12});  // strips the fast holder's mark, inserts behind it
  ASSERT_EQ(lock.DebugHeldCount(), 2);
  lock.Unlock(fast);
  lock.Unlock(behind);              // neither can fast-release: marked residue
  lock.Unlock(lock.Lock({0, 16}));  // slow: sweeps the residue, list empty again
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

// Randomized exclusion stress, parameterized over (threads, fast_path, fairness).
// gtest prints a parameter without a PrintTo as its raw bytes, and that text is part
// of the listed test name; the explicit zeroed tail keeps the would-be padding bytes
// deterministic so the names are stable across builds.
struct StressParam {
  int threads;
  bool fast_path;
  bool fair;
  unsigned char reserved[2] = {};
};

class ListExStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(ListExStressTest, RandomRangesNeverOverlap) {
  const StressParam param = GetParam();
  constexpr uint64_t kUniverse = 128;
  constexpr int kIters = 4000;
  testing::RangeOracle oracle(kUniverse);

  auto body = [&](auto& lock, int tid) {
    Xoshiro256 rng(0x5eed0000 + tid);
    for (int i = 0; i < kIters; ++i) {
      uint64_t a = rng.NextBelow(kUniverse);
      uint64_t b = rng.NextBelow(kUniverse);
      if (a > b) {
        std::swap(a, b);
      }
      const Range r{a, b + 1};
      auto h = lock.Lock(r);
      oracle.EnterWrite(r);
      oracle.ExitWrite(r);
      lock.Unlock(h);
    }
  };

  auto run = [&](auto& lock) {
    std::vector<std::thread> threads;
    for (int t = 0; t < param.threads; ++t) {
      threads.emplace_back([&, t] { body(lock, t); });
    }
    for (auto& th : threads) {
      th.join();
    }
  };

  if (param.fair) {
    FairRangeLock<ListRangeLock> lock(FairRangeLock<ListRangeLock>::Options{
        .inner = {.enable_fast_path = param.fast_path}, .patience = 4});
    run(lock);
  } else {
    ListRangeLock lock(ListRangeLock::Options{.enable_fast_path = param.fast_path});
    run(lock);
    EXPECT_EQ(lock.DebugHeldCount(), 0);
    EXPECT_TRUE(lock.DebugInvariantHolds());
  }
  EXPECT_FALSE(oracle.Violated());
  EXPECT_TRUE(oracle.Quiescent());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ListExStressTest,
    ::testing::Values(StressParam{2, false, false}, StressParam{4, false, false},
                      StressParam{8, false, false}, StressParam{4, true, false},
                      StressParam{8, true, false}, StressParam{4, false, true},
                      StressParam{8, true, true}),
    [](const ::testing::TestParamInfo<StressParam>& info) {
      return "t" + std::to_string(info.param.threads) +
             (info.param.fast_path ? "_fp" : "") + (info.param.fair ? "_fair" : "");
    });

// Pinpoint stress on a single hot range: maximum CAS contention at one insertion point.
TEST(ListRangeLockTest, HotSpotContention) {
  ListRangeLock lock;
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  int64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto h = lock.Lock({100, 200});
        counter += 1;  // protected by the range
        lock.Unlock(h);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, int64_t{kThreads} * kIters);
  EXPECT_EQ(lock.DebugHeldCount(), 0);
}

// Handles may be released by a different thread than the acquirer (the VM subsystem
// moves guards across logical contexts).
TEST(ListRangeLockTest, CrossThreadRelease) {
  ListRangeLock lock;
  auto h = lock.Lock({0, 10});
  std::thread releaser([&] { lock.Unlock(h); });
  releaser.join();
  auto h2 = lock.Lock({0, 10});  // must be acquirable again
  lock.Unlock(h2);
  EXPECT_EQ(lock.DebugHeldCount(), 0);
}

// TSan regression test for the insert-CAS publication ordering (the memory-ordering
// audit of the lock-free-list PR): plain, non-atomic data is mutated only under
// overlapping range acquisitions, so every inter-thread edge must flow through the
// lock's release (mark fetch_add / releasing CAS) into the next acquirer's insertion.
// If the relaxed node->next store or a too-weak CAS ordering ever leaked past the
// publication point, TSan would flag a data race on `slots`/`total` here; the final
// sums double as a plain-build exclusion check.
TEST(ListRangeLockTest, GuardedPlainDataHasNoRace) {
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  constexpr uint64_t kSlots = 8;
  ListRangeLock lock;
  uint64_t slots[kSlots] = {};  // deliberately non-atomic
  uint64_t wide_passes = 0;     // mutated under the covering range only
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0x7a50 + t);
      for (int i = 0; i < kIters; ++i) {
        if (rng.NextChance(0.05)) {
          // Covering acquisition: reads and writes every slot, so it must be ordered
          // against every narrow holder.
          auto h = lock.Lock({0, kSlots});
          uint64_t sum = 0;
          for (uint64_t s = 0; s < kSlots; ++s) {
            sum += slots[s];
          }
          wide_passes += 1 + (sum >> 63);  // counts passes; keeps the reads live
          lock.Unlock(h);
        } else {
          const uint64_t s = rng.NextBelow(kSlots);
          auto h = lock.Lock({s, s + 2});  // overlaps the neighbouring slot's range
          ++slots[s];
          lock.Unlock(h);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  uint64_t total = 0;
  for (uint64_t s = 0; s < kSlots; ++s) {
    total += slots[s];
  }
  EXPECT_GT(total, 0u);
  EXPECT_GT(wide_passes, 0u);
}

// Same shape for the §4.5 fast path, whose ordering is subtler: the fast-path release
// is a CAS back to empty (not a mark), and a fast-path holder's node can be converted
// into a regular list node by a concurrent acquirer's strip-CAS — the handoff the
// acq_rel orderings at the head must cover. Two threads hammer ONE range so the list
// keeps collapsing to empty and re-entering the fast path, crossing the strip-convert
// boundary constantly.
TEST(ListRangeLockFastPathTest, GuardedPlainDataHasNoRaceAcrossStripConvert) {
  constexpr int kThreads = 4;
  constexpr int kIters = 4000;
  ListRangeLock lock(ListRangeLock::Options{.enable_fast_path = true});
  uint64_t counter = 0;  // deliberately non-atomic
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto h = lock.Lock({10, 20});
        ++counter;
        lock.Unlock(h);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, static_cast<uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace srl
