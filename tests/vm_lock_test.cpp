// Tests for the VmLock variants: semantics per kind and wait-stats instrumentation, and
// the list backend's per-stripe heads (VmLockStripedListTest).
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/prng.h"
#include "src/sync/pause.h"
#include "src/vm/vm_lock.h"
#include "src/vm/vma_index.h"
#include "tests/common/range_oracle.h"
#include "tests/common/test_clock.h"

namespace srl::vm {
namespace {

using namespace std::chrono_literals;
using srl::testing::RangeOracle;
using srl::testing::StaysFalse;

class VmLockTest : public ::testing::TestWithParam<VmLockKind> {};

TEST_P(VmLockTest, ReadersShareWritersExclude) {
  auto lock = MakeVmLock(GetParam());
  void* r1 = lock->Lock({0, 100}, LockMode::kRead);
  void* r2 = lock->Lock({50, 150}, LockMode::kRead);  // must not block
  lock->Unlock(r1);
  lock->Unlock(r2);

  void* w = lock->Lock({0, 100});
  std::atomic<bool> in{false};
  std::thread t([&] {
    void* w2 = lock->Lock({50, 150});
    in.store(true);
    lock->Unlock(w2);
  });
  EXPECT_TRUE(StaysFalse([&] { return in.load(); }));
  lock->Unlock(w);
  t.join();
  EXPECT_TRUE(in.load());
}

TEST_P(VmLockTest, FullWriteExcludesEverything) {
  auto lock = MakeVmLock(GetParam());
  void* fw = lock->LockFullWrite();
  std::atomic<bool> in{false};
  std::thread t([&] {
    void* r = lock->Lock({1000, 1001}, LockMode::kRead);
    in.store(true);
    lock->Unlock(r);
  });
  EXPECT_TRUE(StaysFalse([&] { return in.load(); }));
  lock->Unlock(fw);
  t.join();
  EXPECT_TRUE(in.load());
}

TEST_P(VmLockTest, DisjointWritesParallelIffRangeLock) {
  auto lock = MakeVmLock(GetParam());
  void* w1 = lock->Lock({0, 100});
  std::atomic<bool> in{false};
  std::thread t([&] {
    void* w2 = lock->Lock({200, 300});
    in.store(true);
    lock->Unlock(w2);
  });
  if (GetParam() == VmLockKind::kStock) {
    // The semaphore ignores ranges: disjoint writers still serialize.
    EXPECT_TRUE(StaysFalse([&] { return in.load(); }));
    lock->Unlock(w1);
    t.join();
  } else {
    t.join();  // range locks admit the disjoint writer while w1 is held
    EXPECT_TRUE(in.load());
    lock->Unlock(w1);
  }
  EXPECT_TRUE(in.load());
}

TEST_P(VmLockTest, WaitStatsCountAcquisitions) {
  auto lock = MakeVmLock(GetParam());
  WaitStats stats;
  lock->SetWaitStats(&stats);
  for (int i = 0; i < 5; ++i) {
    lock->Unlock(lock->Lock({0, 10}, LockMode::kRead));
  }
  for (int i = 0; i < 3; ++i) {
    lock->Unlock(lock->Lock({0, 10}));
  }
  lock->Unlock(lock->LockFullWrite());
  EXPECT_EQ(stats.ReadCount(), 5u);
  EXPECT_EQ(stats.WriteCount(), 4u);  // 3 ranged + 1 full
  EXPECT_EQ(lock->RangedWriteAcquisitions(), 3u);
  EXPECT_EQ(lock->FullWriteAcquisitions(), 1u);

  // The fault path is trylock-first, so Figure 7 leans on the try path: a successful
  // try is one sample in its own mode, and a write try counts as a ranged or full write.
  void* h = nullptr;
  ASSERT_TRUE(lock->TryLock({0, 10}, &h, LockMode::kRead));
  lock->Unlock(h);
  ASSERT_TRUE(lock->TryLock({0, 10}, &h));
  lock->Unlock(h);
  ASSERT_TRUE(lock->TryLock(Range::Full(), &h));
  lock->Unlock(h);
  EXPECT_EQ(stats.ReadCount(), 6u);
  EXPECT_EQ(stats.WriteCount(), 6u);
  EXPECT_EQ(lock->RangedWriteAcquisitions(), 4u);
  EXPECT_EQ(lock->FullWriteAcquisitions(), 2u);

  // A failed try against a held overlapping write records and counts nothing; the
  // blocking fallback that follows it is what measures the wait.
  void* held = lock->Lock({0, 10});
  for (const LockMode mode : {LockMode::kRead, LockMode::kWrite}) {
    EXPECT_FALSE(lock->TryLock({5, 15}, &h, mode));
    EXPECT_FALSE(lock->TryLock(Range::Full(), &h, mode));
  }
  lock->Unlock(held);
  EXPECT_EQ(stats.ReadCount(), 6u);
  EXPECT_EQ(stats.WriteCount(), 7u);  // the held write only
  EXPECT_EQ(lock->RangedWriteAcquisitions(), 5u);
  EXPECT_EQ(lock->FullWriteAcquisitions(), 2u);
  lock->SetWaitStats(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Kinds, VmLockTest,
                         ::testing::Values(VmLockKind::kStock, VmLockKind::kTree,
                                           VmLockKind::kList),
                         [](const ::testing::TestParamInfo<VmLockKind>& info) {
                           return VmLockKindName(info.param);
                         });

// --- The list backend over 4 stripes -------------------------------------------------
//
// MakeVmLock(kList, 4) keeps one list per stripe; a range takes the list of every stripe
// it covers, in ascending order. These pin the three rules that make that equal to one
// list: a range crossing stripes waits in each of them, Range::Full covers every stripe
// (the clamped margins included), and a failed multi-stripe try leaves nothing held.

constexpr unsigned kStripes = 4;
constexpr uint64_t kPage = 4096;

// [first, first + pages) pages into stripe `stripe`'s window.
Range InStripe(unsigned stripe, uint64_t first, uint64_t pages) {
  const uint64_t base = VmaIndex::WindowBase(stripe);
  return {base + first * kPage, base + (first + pages) * kPage};
}

// The last `tail` pages of stripe `stripe` through the first `head` pages of the next.
Range AcrossEdge(unsigned stripe, uint64_t tail, uint64_t head) {
  const uint64_t edge = VmaIndex::WindowEnd(stripe);
  return {edge - tail * kPage, edge + head * kPage};
}

// Whether a try acquisition of `r` succeeds; a successful one is released at once, so a
// failing check never leaves a range held behind it.
bool TryHolds(VmLock& lock, const Range& r, LockMode mode) {
  void* h = nullptr;
  if (!lock.TryLock(r, &h, mode)) {
    return false;
  }
  lock.Unlock(h);
  return true;
}

TEST(VmLockStripedListTest, WritersInDifferentStripesHoldTogether) {
  auto lock = MakeVmLock(VmLockKind::kList, kStripes);
  // Abutting at the stripe 0/1 edge: disjoint, so both hold at once.
  void* w0 = lock->Lock(AcrossEdge(0, 1, 0));
  void* w1 = nullptr;
  EXPECT_TRUE(lock->TryLock(InStripe(1, 0, 1), &w1));
  EXPECT_TRUE(TryHolds(*lock, InStripe(1, 8, 4), LockMode::kWrite));
  // An overlapping writer in either stripe still waits.
  EXPECT_FALSE(TryHolds(*lock, AcrossEdge(0, 1, 1), LockMode::kWrite));
  if (w1 != nullptr) {
    lock->Unlock(w1);
  }
  lock->Unlock(w0);
}

// A write spanning stripes 1-2 must find a writer that holds a range in stripe 2 only:
// the conflict is visible in stripe 2's list alone, so a chain that stopped at its first
// stripe would walk straight in.
TEST(VmLockStripedListTest, CrossStripeWriteWaitsForWriterInItsSecondStripe) {
  auto lock = MakeVmLock(VmLockKind::kList, kStripes);
  void* held = lock->Lock(InStripe(2, 2, 2));
  const Range spanning = {VmaIndex::WindowEnd(1) - 4 * kPage,
                          VmaIndex::WindowBase(2) + 3 * kPage};
  EXPECT_FALSE(TryHolds(*lock, spanning, LockMode::kWrite))
      << "writer try walked past the stripe-2 holder";
  EXPECT_FALSE(TryHolds(*lock, spanning, LockMode::kRead))
      << "reader try walked past the stripe-2 holder";
  std::atomic<bool> in{false};
  std::thread t([&] {
    void* w = lock->Lock(spanning);
    in.store(true);
    lock->Unlock(w);
  });
  EXPECT_TRUE(StaysFalse([&] { return in.load(); }))
      << "a write spanning stripes 1-2 ran beside a writer inside stripe 2";
  lock->Unlock(held);
  t.join();
  EXPECT_TRUE(in.load());
}

TEST(VmLockStripedListTest, FullWriteBlocksReadersInEveryStripe) {
  auto lock = MakeVmLock(VmLockKind::kList, kStripes);
  void* fw = lock->LockFullWrite();
  // The last stripe, and the clamped margins below the first window and above the last.
  const Range last = InStripe(kStripes - 1, 3, 1);
  const Range below = {kPage, 2 * kPage};
  const Range above = {VmaIndex::WindowEnd(kStripes - 1),
                       VmaIndex::WindowEnd(kStripes - 1) + kPage};
  for (const Range& r : {last, below, above}) {
    EXPECT_FALSE(TryHolds(*lock, r, LockMode::kRead))
        << "reader of " << r << " ran beside Full";
  }
  std::atomic<int> in{0};
  std::vector<std::thread> readers;
  for (const Range& r : {last, below}) {
    readers.emplace_back([&, r] {
      void* h = lock->Lock(r, LockMode::kRead);
      in.fetch_add(1);
      lock->Unlock(h);
    });
  }
  EXPECT_TRUE(StaysFalse([&] { return in.load() != 0; }));
  lock->Unlock(fw);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(in.load(), 2);
}

// A try that holds stripe 1 and then fails in stripe 2 must release stripe 1 before it
// returns: the same range in stripe 1 is then immediately writable.
TEST(VmLockStripedListTest, FailedMultiStripeTryReleasesItsPrefix) {
  auto lock = MakeVmLock(VmLockKind::kList, kStripes);
  void* held = lock->Lock(InStripe(2, 0, 1));
  const Range spanning = AcrossEdge(1, 2, 2);
  for (const LockMode mode : {LockMode::kWrite, LockMode::kRead}) {
    const char* who = mode == LockMode::kRead ? "reader" : "writer";
    EXPECT_FALSE(TryHolds(*lock, spanning, mode)) << who << " try walked past the holder";
    EXPECT_TRUE(TryHolds(*lock, AcrossEdge(1, 2, 0), LockMode::kWrite))
        << who << " try kept its stripe-1 node";
  }
  lock->Unlock(held);
  EXPECT_TRUE(TryHolds(*lock, spanning, LockMode::kWrite));
}

// Readers and writers of single-stripe, cross-stripe and full ranges, blocking and try,
// checked against the exclusion oracle. Oracle cell c is page c % kCells of stripe
// c / kCells; the map is increasing, so cell ranges overlap iff their address ranges do.
TEST(VmLockStripedListTest, MixedChainsKeepExclusion) {
  constexpr uint64_t kCells = 8;
  auto lock = MakeVmLock(VmLockKind::kList, kStripes);
  RangeOracle oracle(kStripes * kCells);
  const auto addr = [](uint64_t cell) {
    return VmaIndex::WindowBase(static_cast<unsigned>(cell / kCells)) +
           (cell % kCells) * kPage;
  };
  const auto Hold = [] {
    for (int k = 0; k < 64; ++k) {
      CpuRelax();
    }
  };
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0x5712 + static_cast<uint64_t>(t));
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
        std::this_thread::yield();
      }
      for (int i = 0; i < 20000; ++i) {
        Range cells{0, kStripes * kCells};
        Range r = Range::Full();
        if (!rng.NextChance(0.02)) {
          const uint64_t a = rng.NextBelow(kStripes * kCells);
          const uint64_t len = 1 + rng.NextBelow(rng.NextChance(0.3) ? 2 * kCells : 3);
          cells = {a, a + len < kStripes * kCells ? a + len : kStripes * kCells};
          r = {addr(cells.start), addr(cells.end)};
        }
        const LockMode mode = rng.NextChance(0.5) ? LockMode::kRead : LockMode::kWrite;
        void* h = nullptr;
        if (rng.NextChance(0.3)) {
          if (!lock->TryLock(r, &h, mode)) {
            continue;
          }
        } else {
          h = lock->Lock(r, mode);
        }
        // A short hold widens the window in which a wrongly admitted peer meets us.
        if (mode == LockMode::kRead) {
          oracle.EnterRead(cells);
          Hold();
          oracle.ExitRead(cells);
        } else {
          oracle.EnterWrite(cells);
          Hold();
          oracle.ExitWrite(cells);
        }
        lock->Unlock(h);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(oracle.Violated());
  EXPECT_TRUE(oracle.Quiescent());
}

}  // namespace
}  // namespace srl::vm
