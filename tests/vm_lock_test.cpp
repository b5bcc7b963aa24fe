// Tests for the VmLock adapters: semantics per kind and wait-stats instrumentation, and
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
  void* r1 = lock->LockRead({0, 100});
  void* r2 = lock->LockRead({50, 150});  // must not block
  lock->UnlockRead(r1);
  lock->UnlockRead(r2);

  void* w = lock->LockWrite({0, 100});
  std::atomic<bool> in{false};
  std::thread t([&] {
    void* w2 = lock->LockWrite({50, 150});
    in.store(true);
    lock->UnlockWrite(w2);
  });
  EXPECT_TRUE(StaysFalse([&] { return in.load(); }));
  lock->UnlockWrite(w);
  t.join();
  EXPECT_TRUE(in.load());
}

TEST_P(VmLockTest, FullWriteExcludesEverything) {
  auto lock = MakeVmLock(GetParam());
  void* fw = lock->LockFullWrite();
  std::atomic<bool> in{false};
  std::thread t([&] {
    void* r = lock->LockRead({1000, 1001});
    in.store(true);
    lock->UnlockRead(r);
  });
  EXPECT_TRUE(StaysFalse([&] { return in.load(); }));
  lock->UnlockWrite(fw);
  t.join();
  EXPECT_TRUE(in.load());
}

TEST_P(VmLockTest, DisjointWritesParallelIffRangeLock) {
  auto lock = MakeVmLock(GetParam());
  void* w1 = lock->LockWrite({0, 100});
  std::atomic<bool> in{false};
  std::thread t([&] {
    void* w2 = lock->LockWrite({200, 300});
    in.store(true);
    lock->UnlockWrite(w2);
  });
  if (GetParam() == VmLockKind::kStock) {
    // The semaphore ignores ranges: disjoint writers still serialize.
    EXPECT_TRUE(StaysFalse([&] { return in.load(); }));
    lock->UnlockWrite(w1);
    t.join();
  } else {
    t.join();  // range locks admit the disjoint writer while w1 is held
    EXPECT_TRUE(in.load());
    lock->UnlockWrite(w1);
  }
  EXPECT_TRUE(in.load());
}

TEST_P(VmLockTest, WaitStatsCountAcquisitions) {
  auto lock = MakeVmLock(GetParam());
  WaitStats stats;
  lock->SetWaitStats(&stats);
  for (int i = 0; i < 5; ++i) {
    lock->UnlockRead(lock->LockRead({0, 10}));
  }
  for (int i = 0; i < 3; ++i) {
    lock->UnlockWrite(lock->LockWrite({0, 10}));
  }
  lock->UnlockWrite(lock->LockFullWrite());
  EXPECT_EQ(stats.ReadCount(), 5u);
  EXPECT_EQ(stats.WriteCount(), 4u);  // 3 ranged + 1 full
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
bool TryHolds(VmLock& lock, const Range& r, bool reader) {
  void* h = nullptr;
  if (reader ? !lock.TryLockRead(r, &h) : !lock.TryLockWrite(r, &h)) {
    return false;
  }
  if (reader) {
    lock.UnlockRead(h);
  } else {
    lock.UnlockWrite(h);
  }
  return true;
}

TEST(VmLockStripedListTest, WritersInDifferentStripesHoldTogether) {
  auto lock = MakeVmLock(VmLockKind::kList, kStripes);
  // Abutting at the stripe 0/1 edge: disjoint, so both hold at once.
  void* w0 = lock->LockWrite(AcrossEdge(0, 1, 0));
  void* w1 = nullptr;
  EXPECT_TRUE(lock->TryLockWrite(InStripe(1, 0, 1), &w1));
  EXPECT_TRUE(TryHolds(*lock, InStripe(1, 8, 4), /*reader=*/false));
  // An overlapping writer in either stripe still waits.
  EXPECT_FALSE(TryHolds(*lock, AcrossEdge(0, 1, 1), /*reader=*/false));
  if (w1 != nullptr) {
    lock->UnlockWrite(w1);
  }
  lock->UnlockWrite(w0);
}

// A write spanning stripes 1-2 must find a writer that holds a range in stripe 2 only:
// the conflict is visible in stripe 2's list alone, so a chain that stopped at its first
// stripe would walk straight in.
TEST(VmLockStripedListTest, CrossStripeWriteWaitsForWriterInItsSecondStripe) {
  auto lock = MakeVmLock(VmLockKind::kList, kStripes);
  void* held = lock->LockWrite(InStripe(2, 2, 2));
  const Range spanning = {VmaIndex::WindowEnd(1) - 4 * kPage,
                          VmaIndex::WindowBase(2) + 3 * kPage};
  EXPECT_FALSE(TryHolds(*lock, spanning, /*reader=*/false))
      << "writer try walked past the stripe-2 holder";
  EXPECT_FALSE(TryHolds(*lock, spanning, /*reader=*/true))
      << "reader try walked past the stripe-2 holder";
  std::atomic<bool> in{false};
  std::thread t([&] {
    void* w = lock->LockWrite(spanning);
    in.store(true);
    lock->UnlockWrite(w);
  });
  EXPECT_TRUE(StaysFalse([&] { return in.load(); }))
      << "a write spanning stripes 1-2 ran beside a writer inside stripe 2";
  lock->UnlockWrite(held);
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
    EXPECT_FALSE(TryHolds(*lock, r, /*reader=*/true))
        << "reader of " << r << " ran beside Full";
  }
  std::atomic<int> in{0};
  std::vector<std::thread> readers;
  for (const Range& r : {last, below}) {
    readers.emplace_back([&, r] {
      void* h = lock->LockRead(r);
      in.fetch_add(1);
      lock->UnlockRead(h);
    });
  }
  EXPECT_TRUE(StaysFalse([&] { return in.load() != 0; }));
  lock->UnlockWrite(fw);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(in.load(), 2);
}

// A try that holds stripe 1 and then fails in stripe 2 must release stripe 1 before it
// returns: the same range in stripe 1 is then immediately writable.
TEST(VmLockStripedListTest, FailedMultiStripeTryReleasesItsPrefix) {
  auto lock = MakeVmLock(VmLockKind::kList, kStripes);
  void* held = lock->LockWrite(InStripe(2, 0, 1));
  const Range spanning = AcrossEdge(1, 2, 2);
  for (const bool reader : {false, true}) {
    EXPECT_FALSE(TryHolds(*lock, spanning, reader))
        << "try walked past the stripe-2 holder";
    EXPECT_TRUE(TryHolds(*lock, AcrossEdge(1, 2, 0), /*reader=*/false))
        << (reader ? "reader" : "writer") << " try kept its stripe-1 node";
  }
  lock->UnlockWrite(held);
  EXPECT_TRUE(TryHolds(*lock, spanning, /*reader=*/false));
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
        const bool reader = rng.NextChance(0.5);
        void* h = nullptr;
        if (rng.NextChance(0.3)) {
          if (!(reader ? lock->TryLockRead(r, &h) : lock->TryLockWrite(r, &h))) {
            continue;
          }
        } else {
          h = reader ? lock->LockRead(r) : lock->LockWrite(r);
        }
        // A short hold widens the window in which a wrongly admitted peer meets us.
        if (reader) {
          oracle.EnterRead(cells);
          Hold();
          oracle.ExitRead(cells);
          lock->UnlockRead(h);
        } else {
          oracle.EnterWrite(cells);
          Hold();
          oracle.ExitWrite(cells);
          lock->UnlockWrite(h);
        }
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
