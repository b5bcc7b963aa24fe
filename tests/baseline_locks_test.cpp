// Tests for the baseline range locks: the kernel tree lock port (lustre-ex /
// kernel-rw semantics) and the pNOVA segment lock.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/segment_range_lock.h"
#include "src/baselines/tree_range_lock.h"
#include "src/harness/prng.h"
#include "tests/common/range_oracle.h"
#include "tests/common/test_clock.h"

namespace srl {
namespace {

using namespace std::chrono_literals;
using testing::EventuallyTrue;
using testing::StaysFalse;

TEST(TreeRangeLockTest, AcquireReleaseSingleThread) {
  TreeRangeLock lock;
  auto h = lock.Lock({0, 10});
  EXPECT_EQ(lock.DebugHeldCount(), 1u);
  EXPECT_TRUE(lock.DebugTreeValid());
  lock.Unlock(h);
  EXPECT_EQ(lock.DebugHeldCount(), 0u);
}

TEST(TreeRangeLockTest, DisjointWritersDoNotBlock) {
  TreeRangeLock lock;
  auto h1 = lock.Lock({0, 10});
  std::atomic<bool> in{false};
  std::thread t([&] {
    auto h2 = lock.Lock({20, 30});
    in.store(true);
    lock.Unlock(h2);
  });
  t.join();
  EXPECT_TRUE(in.load());
  lock.Unlock(h1);
}

TEST(TreeRangeLockTest, OverlappingWriterBlocks) {
  TreeRangeLock lock;
  auto h1 = lock.Lock({0, 10});
  std::atomic<bool> in{false};
  std::thread t([&] {
    auto h2 = lock.Lock({5, 15});
    in.store(true);
    lock.Unlock(h2);
  });
  EXPECT_TRUE(StaysFalse([&] { return in.load(); }));
  lock.Unlock(h1);
  t.join();
  EXPECT_TRUE(in.load());
}

TEST(TreeRangeLockTest, OverlappingReadersShare) {
  TreeRangeLock lock;
  auto r1 = lock.Lock({0, 100}, LockMode::kRead);
  std::atomic<bool> in{false};
  std::thread t([&] {
    auto r2 = lock.Lock({50, 150}, LockMode::kRead);
    in.store(true);
    lock.Unlock(r2);
  });
  t.join();
  EXPECT_TRUE(in.load());
  lock.Unlock(r1);
}

TEST(TreeRangeLockTest, WriterBlocksBehindReader) {
  TreeRangeLock lock;
  auto r = lock.Lock({0, 100}, LockMode::kRead);
  std::atomic<bool> in{false};
  std::thread t([&] {
    auto w = lock.Lock({10, 20});
    in.store(true);
    lock.Unlock(w);
  });
  EXPECT_TRUE(StaysFalse([&] { return in.load(); }));
  lock.Unlock(r);
  t.join();
  EXPECT_TRUE(in.load());
}

// The §3 FIFO pathology this baseline deliberately reproduces: C=[4,5) counts the
// *waiting* B=[2,7) as a blocker and stalls even though only A=[1,3) is actually held.
// (Contrast with ListRangeLockTest.NonOverlappingRequestNotBlockedBehindWaiter.)
TEST(TreeRangeLockTest, RequestBlocksBehindOverlappingWaiter) {
  TreeRangeLock lock;
  auto a = lock.Lock({1, 3});
  std::atomic<bool> b_in{false};
  std::thread b([&] {
    auto h = lock.Lock({2, 7});
    b_in.store(true);
    lock.Unlock(h);
  });
  // Wait until B's range is actually in the tree (waiters are inserted before they
  // spin), so C is guaranteed to find it there.
  ASSERT_TRUE(EventuallyTrue([&] { return lock.DebugTreeSizeLocked() == 2; }));
  std::atomic<bool> c_in{false};
  std::thread c([&] {
    auto h = lock.Lock({4, 5});
    c_in.store(true);
    lock.Unlock(h);
  });
  EXPECT_TRUE(StaysFalse([&] { return b_in.load() || c_in.load(); }))
      << "kernel tree lock admits C ahead of waiter B — FIFO broken";
  lock.Unlock(a);
  b.join();
  c.join();
  EXPECT_TRUE(b_in.load());
  EXPECT_TRUE(c_in.load());
}

TEST(TreeRangeLockTest, SpinWaitStatsRecord) {
  TreeRangeLock lock;
  WaitStats stats;
  lock.SetSpinWaitStats(&stats);
  auto h = lock.Lock({0, 10});
  lock.Unlock(h);
  // One internal spin-lock acquisition each for acquire and release.
  EXPECT_EQ(stats.WriteCount(), 2u);
  lock.SetSpinWaitStats(nullptr);
}

TEST(TreeRangeLockTest, StressRandomRanges) {
  TreeRangeLock lock;
  constexpr uint64_t kUniverse = 128;
  testing::RangeOracle oracle(kUniverse);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0xbead + t);
      for (int i = 0; i < 2000; ++i) {
        uint64_t a = rng.NextBelow(kUniverse);
        uint64_t b = rng.NextBelow(kUniverse);
        if (a > b) {
          std::swap(a, b);
        }
        const Range r{a, b + 1};
        if (rng.NextChance(0.3)) {
          auto h = lock.Lock(r);
          oracle.EnterWrite(r);
          oracle.ExitWrite(r);
          lock.Unlock(h);
        } else {
          auto h = lock.Lock(r, LockMode::kRead);
          oracle.EnterRead(r);
          oracle.ExitRead(r);
          lock.Unlock(h);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(oracle.Violated());
  EXPECT_EQ(lock.DebugHeldCount(), 0u);
}

TEST(SegmentRangeLockTest, BasicAcquireRelease) {
  SegmentRangeLock lock(1024, 16);
  auto h = lock.Lock({0, 64});  // exactly one segment
  EXPECT_EQ(h.first_seg, 0u);
  EXPECT_EQ(h.last_seg, 0u);
  lock.Unlock(h);
  auto h2 = lock.Lock({0, 65});  // spills into the second segment
  EXPECT_EQ(h2.last_seg, 1u);
  lock.Unlock(h2);
}

TEST(SegmentRangeLockTest, FullRangeTakesEverySegment) {
  SegmentRangeLock lock(1024, 16);
  auto h = lock.Lock(Range::Full());
  EXPECT_EQ(h.first_seg, 0u);
  EXPECT_EQ(h.last_seg, 15u);
  // Nothing else can get in anywhere.
  std::atomic<bool> in{false};
  std::thread t([&] {
    auto h2 = lock.Lock({512, 513}, LockMode::kRead);
    in.store(true);
    lock.Unlock(h2);
  });
  EXPECT_TRUE(StaysFalse([&] { return in.load(); }));
  lock.Unlock(h);
  t.join();
  EXPECT_TRUE(in.load());
}

TEST(SegmentRangeLockTest, FalseSharingWithinSegment) {
  // Two disjoint ranges inside the same segment serialize — the granularity cost the
  // paper attributes to this design.
  SegmentRangeLock lock(1024, 16);
  auto h = lock.Lock({0, 8});
  std::atomic<bool> in{false};
  std::thread t([&] {
    auto h2 = lock.Lock({32, 40});  // same segment 0
    in.store(true);
    lock.Unlock(h2);
  });
  EXPECT_TRUE(StaysFalse([&] { return in.load(); }));
  lock.Unlock(h);
  t.join();
  EXPECT_TRUE(in.load());
}

// The timed acquisition forms keep the per-segment RwSpinLock's writer preference: a
// blocking writer that has queued holds off timed readers, so polling readers cannot
// starve it — the mirror of RwSemaphoreTest.TimedWriterGetsPreferenceOverNewReaders.
TEST(SegmentRangeLockTest, TimedReadersDeferToQueuedWriter) {
  SegmentRangeLock lock(1024, 16);
  auto r = lock.Lock({0, 8}, LockMode::kRead);
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    auto h = lock.Lock({0, 8});
    writer_done.store(true);
    lock.Unlock(h);
  });
  // Once the writer has queued on segment 0, a timed read of the same segment fails
  // fast instead of being admitted past it. (A probe that does get in lets go again.)
  EXPECT_TRUE(EventuallyTrue([&] {
    SegmentRangeLock::Handle h;
    if (lock.LockFor({0, 8}, 0ms, &h, LockMode::kRead)) {
      lock.Unlock(h);
      return false;
    }
    return true;
  }));
  EXPECT_FALSE(writer_done.load());
  lock.Unlock(r);  // last reader leaves; the queued writer must admit
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

// A timed writer registers while it polls, so a reader stream cannot keep admitting
// past it for its whole timeout.
TEST(SegmentRangeLockTest, TimedWriterGetsPreferenceOverNewReaders) {
  SegmentRangeLock lock(1024, 16);
  auto r = lock.Lock({0, 8}, LockMode::kRead);
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    SegmentRangeLock::Handle h;
    if (lock.LockFor({0, 8}, 60s, &h)) {
      writer_done.store(true);
      lock.Unlock(h);
    }
  });
  EXPECT_TRUE(EventuallyTrue([&] {
    SegmentRangeLock::Handle h;
    if (lock.TryLock({0, 8}, &h, LockMode::kRead)) {
      lock.Unlock(h);
      return false;
    }
    return true;
  }));
  EXPECT_FALSE(writer_done.load());
  lock.Unlock(r);
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(SegmentRangeLockTest, StressNoDeadlockMixedWidths) {
  SegmentRangeLock lock(1024, 16);
  constexpr uint64_t kUniverse = 1024;
  testing::RangeOracle oracle(kUniverse);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0xface + t);
      for (int i = 0; i < 1500; ++i) {
        uint64_t a = rng.NextBelow(kUniverse);
        uint64_t len = 1 + rng.NextBelow(300);  // frequently spans several segments
        const Range r{a, std::min<uint64_t>(a + len, kUniverse)};
        if (!r.Valid()) {
          continue;
        }
        if (rng.NextChance(0.4)) {
          auto h = lock.Lock(r);
          oracle.EnterWrite(r);
          oracle.ExitWrite(r);
          lock.Unlock(h);
        } else {
          auto h = lock.Lock(r, LockMode::kRead);
          oracle.EnterRead(r);
          oracle.ExitRead(r);
          lock.Unlock(h);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(oracle.Violated());
  EXPECT_TRUE(oracle.Quiescent());
}

}  // namespace
}  // namespace srl
