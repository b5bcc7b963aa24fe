// Tests for the VmLock adapters: semantics per kind and wait-stats instrumentation.
#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "src/vm/vm_lock.h"
#include "tests/common/test_clock.h"

namespace srl::vm {
namespace {

using namespace std::chrono_literals;
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

}  // namespace
}  // namespace srl::vm
