// Parking-lot conformance battery for the concurrency-restricting admission gate
// (src/sync/admission.h), the spinner that wires it into lock wait loops, and a unit
// test for the cached core count it is built on.
//
// The races pinned here are the ones the gate's Dekker protocol exists for:
//   * release-vs-park: an Exit concurrent with a Park must never strand the parker, and
//     every park is matched by exactly one cull (ReleaseVsParkRaceHammer — completion
//     is the liveness assertion);
//   * cull order: culls serve the oldest parked waiter first;
//   * cull re-admission: a culled waiter owns a live slot and its own Exit hands the
//     slot onward.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/sync/admission.h"
#include "src/sync/deadline.h"
#include "src/sync/topology.h"

namespace srl {
namespace {

// --- CpuCount ---

TEST(TopologyTest, RealProbeIsSane) {
  EXPECT_EQ(CpuCount(), std::max(1u, std::thread::hardware_concurrency()));
}

// --- AdmissionGate ---

TEST(AdmissionGateTest, CapDerivesFromTopologyByDefault) {
  AdmissionGate gate;
  EXPECT_EQ(gate.Cap(), CpuCount());
  AdmissionGate explicit_gate(3);
  EXPECT_EQ(explicit_gate.Cap(), 3u);
}

TEST(AdmissionGateTest, EnterBelowCapNeverParks) {
  AdmissionGate gate(4);
  for (int i = 0; i < 4; ++i) {
    gate.Enter();
  }
  EXPECT_EQ(gate.Active(), 4u);
  EXPECT_EQ(gate.Parks(), 0u);
  for (int i = 0; i < 4; ++i) {
    gate.Exit();
  }
  EXPECT_EQ(gate.Active(), 0u);
}

TEST(AdmissionGateTest, CulledWaiterReadmitsAfterOwnerExits) {
  AdmissionGate gate(1);
  gate.Enter();  // owner
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    gate.Enter();
    admitted.store(true, std::memory_order_release);
    gate.Exit();
  });
  // Wait until the waiter is actually parked, then release the slot.
  while (!gate.HasParked()) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(admitted.load(std::memory_order_acquire));
  gate.Exit();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(gate.Culls(), 1u);
  EXPECT_EQ(gate.Active(), 0u);
}

// Culls must serve the OLDEST parked waiter first. This is a liveness property, not
// style: gated range-lock waiters queue nodes that block later arrivals (FIFO
// admission), and a LIFO cull lets the two newest parkers ping-pong through the
// rotation slot forever while the oldest — the one the whole conflict chain depends
// on — starves at the stack bottom (a real deadlock this test pins the fix for).
TEST(AdmissionGateTest, CullsServeOldestParkedWaiterFirst) {
  AdmissionGate gate(1);
  gate.Enter();  // owner saturates the cap
  std::atomic<int> order{0};
  std::atomic<int> woken_first{-1};
  std::atomic<int> woken_second{-1};
  auto waiter_fn = [&](int id) {
    gate.Enter();
    if (order.fetch_add(1, std::memory_order_acq_rel) == 0) {
      woken_first.store(id, std::memory_order_relaxed);
    } else {
      woken_second.store(id, std::memory_order_relaxed);
    }
    gate.Exit();  // hands the slot on, culling the next waiter
  };
  std::thread t1(waiter_fn, 1);
  while (gate.Parks() < 1) {
    std::this_thread::yield();
  }
  std::thread t2(waiter_fn, 2);  // parks strictly after t1
  while (gate.Parks() < 2) {
    std::this_thread::yield();
  }
  gate.Exit();  // cull #1 → must wake t1; t1's exit culls t2
  t1.join();
  t2.join();
  EXPECT_EQ(woken_first.load(), 1);
  EXPECT_EQ(woken_second.load(), 2);
  EXPECT_EQ(gate.Culls(), 2u);
}

// The Dekker pairing under fire: with cap 1 and several threads hammering Enter/Exit,
// every park must be matched by exactly one cull — a single lost wakeup deadlocks the
// test (ctest's timeout is the failure detector).
TEST(AdmissionGateTest, ReleaseVsParkRaceHammer) {
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  AdmissionGate gate(1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        gate.Enter();
        gate.Exit();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(gate.Active(), 0u);
  EXPECT_FALSE(gate.HasParked());
  EXPECT_EQ(gate.Culls(), gate.Parks());
}

// The kill switch bench/abl_oversub --gates=off flips: a spinner built while it is off
// never touches the gate, so even a saturated cap-1 gate cannot park it.
TEST(AdmissionGateTest, GlobalKillSwitchMakesSpinnerInert) {
  AdmissionGate gate(1);
  gate.Enter();  // saturate: entry would park
  AdmissionGate::SetGloballyEnabled(false);
  {
    AdmissionSpinner spinner(&gate, Deadline::Infinite());
    AdmissionGate::SetGloballyEnabled(true);  // read once, at construction
    spinner.Pause();  // must not block or take a slot
    EXPECT_EQ(gate.Active(), 1u);
  }
  EXPECT_EQ(gate.Active(), 1u);
  EXPECT_EQ(gate.Parks(), 0u);
  gate.Exit();
}

// --- AdmissionSpinner ---

TEST(AdmissionSpinnerTest, InfiniteDeadlineHoldsOneSlotAcrossPauses) {
  AdmissionGate gate(2);
  AdmissionSpinner spinner(&gate, Deadline::Infinite());
  EXPECT_EQ(gate.Active(), 0u) << "the slot is lazy: taken on first Pause";
  spinner.Pause();
  EXPECT_EQ(gate.Active(), 1u);
  spinner.Pause();
  EXPECT_EQ(gate.Active(), 1u) << "no waiters parked: the slot is kept, not churned";
  spinner.Release();
  EXPECT_EQ(gate.Active(), 0u);
}

TEST(AdmissionSpinnerTest, TimedDeadlineIsInert) {
  AdmissionGate gate(1);
  gate.Enter();  // saturate: entry would park
  AdmissionSpinner spinner(&gate, Deadline::After(std::chrono::seconds(5)));
  spinner.Pause();  // must degenerate to a plain yield, not park
  EXPECT_EQ(gate.Active(), 1u);
  EXPECT_EQ(gate.Parks(), 0u);
  gate.Exit();
}

TEST(AdmissionSpinnerTest, PauseRotatesSlotToParkedWaiter) {
  AdmissionGate gate(1);
  AdmissionSpinner spinner(&gate, Deadline::Infinite());
  spinner.Pause();  // take the only slot
  ASSERT_EQ(gate.Active(), 1u);
  std::thread waiter([&] {
    gate.Enter();
    gate.Exit();  // hand the slot back (culling the spinner if it re-parked)
  });
  while (!gate.HasParked()) {
    std::this_thread::yield();
  }
  // Rotation is periodic, not per-pause: after at most kRotatePeriod pauses with the
  // waiter parked, Pause exits (culling the waiter) and re-enters.
  for (int i = 0; i < 1024 && gate.Culls() == 0; ++i) {
    spinner.Pause();
  }
  waiter.join();
  EXPECT_GE(gate.Culls(), 1u);
  spinner.Release();
  EXPECT_EQ(gate.Active(), 0u);
  EXPECT_FALSE(gate.HasParked());
}

TEST(AdmissionSpinnerTest, DestructorReleasesHeldSlot) {
  AdmissionGate gate(1);
  {
    AdmissionSpinner spinner(&gate, Deadline::Infinite());
    spinner.Pause();
    EXPECT_EQ(gate.Active(), 1u);
  }
  EXPECT_EQ(gate.Active(), 0u);
}

}  // namespace
}  // namespace srl
