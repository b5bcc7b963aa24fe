// Tests for the reader-writer list-based range lock (§4.2, Listings 2–3).
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/fair_list_range_lock.h"
#include "src/core/list_rw_range_lock.h"
#include "src/harness/prng.h"
#include "tests/common/range_oracle.h"
#include "tests/common/test_clock.h"

namespace srl {
namespace {

using namespace std::chrono_literals;
using testing::StaysFalse;

TEST(ListRwRangeLockTest, ReadWriteSingleThread) {
  ListRwRangeLock lock;
  auto r = lock.LockRead({0, 10});
  ASSERT_NE(r, nullptr);
  lock.Unlock(r);
  auto w = lock.LockWrite({0, 10});
  ASSERT_NE(w, nullptr);
  lock.Unlock(w);
  EXPECT_EQ(lock.DebugHeldCount(), 0);
}

TEST(ListRwRangeLockTest, OverlappingReadersShare) {
  ListRwRangeLock lock;
  auto r1 = lock.LockRead({0, 100});
  std::atomic<bool> second_in{false};
  std::thread t([&] {
    auto r2 = lock.LockRead({50, 150});  // overlaps r1; must not block
    second_in.store(true);
    lock.Unlock(r2);
  });
  t.join();  // terminates while r1 is still held
  EXPECT_TRUE(second_in.load());
  lock.Unlock(r1);
}

TEST(ListRwRangeLockTest, SameRangeReadersShare) {
  ListRwRangeLock lock;
  auto r1 = lock.LockRead({0, 10});
  auto r2 = lock.LockRead({0, 10});  // identical range, same start — still shared
  EXPECT_EQ(lock.DebugHeldCount(), 2);
  lock.Unlock(r1);
  lock.Unlock(r2);
}

TEST(ListRwRangeLockTest, WriterBlocksOverlappingReader) {
  ListRwRangeLock lock;
  auto w = lock.LockWrite({0, 100});
  std::atomic<bool> reader_in{false};
  std::thread t([&] {
    auto r = lock.LockRead({50, 60});
    reader_in.store(true);
    lock.Unlock(r);
  });
  EXPECT_TRUE(StaysFalse([&] { return reader_in.load(); }));
  lock.Unlock(w);
  t.join();
  EXPECT_TRUE(reader_in.load());
}

TEST(ListRwRangeLockTest, ReaderBlocksOverlappingWriter) {
  ListRwRangeLock lock;
  auto r = lock.LockRead({0, 100});
  std::atomic<bool> writer_in{false};
  std::thread t([&] {
    auto w = lock.LockWrite({50, 60});
    writer_in.store(true);
    lock.Unlock(w);
  });
  EXPECT_TRUE(StaysFalse([&] { return writer_in.load(); }));
  lock.Unlock(r);
  t.join();
  EXPECT_TRUE(writer_in.load());
}

TEST(ListRwRangeLockTest, WritersExcludeEachOther) {
  ListRwRangeLock lock;
  auto w1 = lock.LockWrite({0, 100});
  std::atomic<bool> second_in{false};
  std::thread t([&] {
    auto w2 = lock.LockWrite({50, 150});
    second_in.store(true);
    lock.Unlock(w2);
  });
  EXPECT_TRUE(StaysFalse([&] { return second_in.load(); }));
  lock.Unlock(w1);
  t.join();
  EXPECT_TRUE(second_in.load());
}

TEST(ListRwRangeLockTest, DisjointWritersProceedInParallel) {
  ListRwRangeLock lock;
  auto w1 = lock.LockWrite({0, 10});
  std::atomic<bool> second_in{false};
  std::thread t([&] {
    auto w2 = lock.LockWrite({20, 30});
    second_in.store(true);
    lock.Unlock(w2);
  });
  t.join();
  EXPECT_TRUE(second_in.load());
  lock.Unlock(w1);
}

TEST(ListRwRangeLockTest, ReaderPastWriterRangeNotBlocked) {
  ListRwRangeLock lock;
  auto w = lock.LockWrite({0, 10});
  std::atomic<bool> reader_in{false};
  std::thread t([&] {
    auto r = lock.LockRead({10, 20});  // adjacent — precise half-open semantics
    reader_in.store(true);
    lock.Unlock(r);
  });
  t.join();
  EXPECT_TRUE(reader_in.load());
  lock.Unlock(w);
}

// Hammers the Figure-1 race: a reader whose range starts before existing readers and a
// writer that fits in a gap further down the list insert at different positions and can
// only be serialized by the validation step.
TEST(ListRwRangeLockTest, Figure1RaceHammer) {
  constexpr int kIters = 3000;
  constexpr uint64_t kUniverse = 64;
  ListRwRangeLock lock;
  testing::RangeOracle oracle(kUniverse);
  std::atomic<bool> stop{false};

  // Background readers recreate the [1,10) [20,25) [40,45) population continuously.
  std::vector<std::thread> background;
  for (uint64_t base : {uint64_t{1}, uint64_t{20}, uint64_t{40}}) {
    background.emplace_back([&, base] {
      const Range r{base, base + 5};
      while (!stop.load()) {
        auto h = lock.LockRead(r);
        oracle.EnterRead(r);
        oracle.ExitRead(r);
        lock.Unlock(h);
      }
    });
  }

  std::thread reader([&] {
    const Range r{15, 45};  // spans the writer's target
    for (int i = 0; i < kIters; ++i) {
      auto h = lock.LockRead(r);
      oracle.EnterRead(r);
      oracle.ExitRead(r);
      lock.Unlock(h);
    }
  });
  std::thread writer([&] {
    const Range r{30, 35};
    for (int i = 0; i < kIters; ++i) {
      auto h = lock.LockWrite(r);
      oracle.EnterWrite(r);
      oracle.ExitWrite(r);
      lock.Unlock(h);
    }
  });
  reader.join();
  writer.join();
  stop.store(true);
  for (auto& th : background) {
    th.join();
  }
  EXPECT_FALSE(oracle.Violated());
  EXPECT_TRUE(oracle.Quiescent());
  EXPECT_EQ(lock.DebugHeldCount(), 0);
  EXPECT_TRUE(lock.DebugInvariantHolds());
}

// gtest prints a parameter without a PrintTo as its raw bytes, and that text is part
// of the listed test name; the would-be padding is spelled out as zeroed members so the
// names are stable across builds (see StressParam in list_range_lock_test.cpp).
struct RwStressParam {
  int threads = 0;
  unsigned char reserved0[4] = {};
  double write_fraction = 0.0;
  bool fast_path = false;
  bool fair = false;
  unsigned char reserved1[6] = {};
};
static_assert(sizeof(RwStressParam) == 24, "every byte of the parameter is a member");

class ListRwStressTest : public ::testing::TestWithParam<RwStressParam> {};

TEST_P(ListRwStressTest, MixedWorkloadExclusion) {
  const RwStressParam param = GetParam();
  constexpr uint64_t kUniverse = 128;
  constexpr int kIters = 3000;
  testing::RangeOracle oracle(kUniverse);

  auto body = [&](auto& lock, int tid) {
    Xoshiro256 rng(0xc0ffee00 + tid);
    for (int i = 0; i < kIters; ++i) {
      uint64_t a = rng.NextBelow(kUniverse);
      uint64_t b = rng.NextBelow(kUniverse);
      if (a > b) {
        std::swap(a, b);
      }
      const Range r{a, b + 1};
      if (rng.NextChance(param.write_fraction)) {
        auto h = lock.LockWrite(r);
        oracle.EnterWrite(r);
        oracle.ExitWrite(r);
        lock.Unlock(h);
      } else {
        auto h = lock.LockRead(r);
        oracle.EnterRead(r);
        oracle.ExitRead(r);
        lock.Unlock(h);
      }
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
    FairListRwRangeLock lock(FairListRwRangeLock::Options{
        .inner = {.enable_fast_path = param.fast_path}, .patience = 4});
    run(lock);
  } else {
    ListRwRangeLock lock(ListRwRangeLock::Options{.enable_fast_path = param.fast_path});
    run(lock);
    EXPECT_EQ(lock.DebugHeldCount(), 0);
    EXPECT_TRUE(lock.DebugInvariantHolds());
  }
  EXPECT_FALSE(oracle.Violated());
  EXPECT_TRUE(oracle.Quiescent());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ListRwStressTest,
    ::testing::Values(
        RwStressParam{.threads = 4, .write_fraction = 0.0},
        RwStressParam{.threads = 4, .write_fraction = 0.2},
        RwStressParam{.threads = 4, .write_fraction = 0.5},
        RwStressParam{.threads = 8, .write_fraction = 0.2},
        RwStressParam{.threads = 8, .write_fraction = 1.0},
        RwStressParam{.threads = 4, .write_fraction = 0.2, .fast_path = true},
        RwStressParam{.threads = 8, .write_fraction = 0.5, .fast_path = true},
        RwStressParam{.threads = 4, .write_fraction = 0.2, .fair = true},
        RwStressParam{.threads = 8, .write_fraction = 0.5, .fast_path = true, .fair = true}),
    [](const ::testing::TestParamInfo<RwStressParam>& info) {
      return "t" + std::to_string(info.param.threads) + "_w" +
             std::to_string(static_cast<int>(info.param.write_fraction * 100)) +
             (info.param.fast_path ? "_fp" : "") + (info.param.fair ? "_fair" : "");
    });

// Writers under a constant reader stream must still complete (validation restarts are
// bounded in practice; the fairness layer guarantees it outright).
TEST(ListRwRangeLockTest, WriterCompletesUnderReaderStream) {
  ListRwRangeLock lock;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto h = lock.LockRead({0, 100});
        lock.Unlock(h);
      }
    });
  }
  std::atomic<int> writes_done{0};
  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) {
      auto h = lock.LockWrite({40, 60});
      writes_done.fetch_add(1);
      lock.Unlock(h);
    }
  });
  writer.join();
  stop.store(true);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(writes_done.load(), 200);
}

// Drives the Figure-1 race until a timed reader expires *inside* r_validate and
// self-deletes its already-enqueued node — the one abort path a single thread cannot
// reach (any pre-insertion conflict aborts before the node enters the list). A held
// seed reader at [2,3) forces the racing reader [0,10) and writer [5,15) to insert at
// different list positions, so neither sees the other before its validation pass. The
// invariant checks (and ASan/TSan in the sanitizer configs) then verify the self-delete
// left the list structurally sound with nothing leaked.
TEST(ListRwRangeLockTest, TimedReaderAbortsInsideValidation) {
  ListRwRangeLock lock;
  auto seed = lock.LockRead({2, 3});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto h = lock.LockWrite({5, 15});
      lock.Unlock(h);
    }
  });
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  uint64_t reader_successes = 0;
  while (lock.DebugRValidateAborts() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    ListRwRangeLock::Handle h = nullptr;
    if (lock.LockReadFor({0, 10}, 3us, &h)) {
      ++reader_successes;
      lock.Unlock(h);
    }
  }
  stop.store(true);
  writer.join();
  const uint64_t aborts = lock.DebugRValidateAborts();
  lock.Unlock(seed);
  // Whatever mix of aborts and successes the race produced, the list must be sound:
  // both ranges reacquirable, invariant intact, only residue reclaimable.
  auto w = lock.LockWrite(Range::Full());
  lock.Unlock(w);
  EXPECT_TRUE(lock.DebugInvariantHolds());
  if (aborts == 0) {
    GTEST_SKIP() << "race window never hit (reader successes: " << reader_successes
                 << "); structural checks still passed";
  }
}

}  // namespace
}  // namespace srl
