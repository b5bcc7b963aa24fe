// Parking-lot conformance battery for the concurrency-restricting admission gate
// (src/sync/admission.h) and a unit test for the cached core count it is built on.
//
// The races pinned here are the ones the gate's Dekker protocol exists for:
//   * release-vs-park: an Exit concurrent with a Park must never strand the parker
//     (ReleaseVsParkRaceHammer — completion IS the assertion);
//   * timed waiter: a parked waiter with a deadline unparks at the deadline and the
//     abandoned node is reaped, not leaked;
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
    EXPECT_TRUE(gate.Enter(Deadline::Infinite()));
  }
  EXPECT_EQ(gate.Active(), 4u);
  EXPECT_EQ(gate.Parks(), 0u);
  for (int i = 0; i < 4; ++i) {
    gate.Exit();
  }
  EXPECT_EQ(gate.Active(), 0u);
}

TEST(AdmissionGateTest, ImmediateDeadlineAdmitsOverCap) {
  // The trylock bypass rule: a trylock caller is never turned into a waiter, even
  // with the gate saturated — it is admitted over the (soft) cap.
  AdmissionGate gate(1);
  ASSERT_TRUE(gate.Enter(Deadline::Infinite()));
  EXPECT_TRUE(gate.Enter(Deadline::Immediate()));
  EXPECT_EQ(gate.Active(), 2u);
  EXPECT_EQ(gate.Parks(), 0u);
  gate.Exit();
  gate.Exit();
}

TEST(AdmissionGateTest, TimedWaiterUnparksAtDeadline) {
  AdmissionGate gate(1);
  ASSERT_TRUE(gate.Enter(Deadline::Infinite()));  // saturate
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(gate.Enter(Deadline::After(std::chrono::milliseconds(30))));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, std::chrono::milliseconds(25));
  // Whether the waiter actually PARKED depends on scheduling: on a loaded box the
  // spin-then-park patience phase alone can consume the whole deadline (its yields
  // cede the CPU for arbitrarily long), and a patience-phase expiry returns false
  // without ever touching a stack. Either way the accounting must balance: a park
  // that expired is a timeout, a parkless expiry is neither.
  EXPECT_LE(gate.Parks(), 1u);
  EXPECT_EQ(gate.Timeouts(), gate.Parks());
  EXPECT_EQ(gate.Culls(), 0u);
  gate.Exit();
  // If the waiter parked, its abandoned node is still on the stack; the destructor
  // must reap it (ASan would flag the leak if it did not).
}

TEST(AdmissionGateTest, CulledWaiterReadmitsAfterOwnerExits) {
  AdmissionGate gate(1);
  ASSERT_TRUE(gate.Enter(Deadline::Infinite()));  // owner
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    EXPECT_TRUE(gate.Enter(Deadline::Infinite()));
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
  ASSERT_TRUE(gate.Enter(Deadline::Infinite()));  // owner saturates the cap
  std::atomic<int> order{0};
  std::atomic<int> woken_first{-1};
  std::atomic<int> woken_second{-1};
  auto waiter_fn = [&](int id) {
    ASSERT_TRUE(gate.Enter(Deadline::Infinite()));
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

// The Dekker pairing under fire: with cap 1 and several threads hammering
// Enter(infinite)/Exit, every park must be matched by a cull — a single lost wakeup
// deadlocks the test (ctest's timeout is the failure detector).
TEST(AdmissionGateTest, ReleaseVsParkRaceHammer) {
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  AdmissionGate gate(1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        ASSERT_TRUE(gate.Enter(Deadline::Infinite()));
        gate.Exit();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(gate.Active(), 0u);
  EXPECT_FALSE(gate.HasParked());
  EXPECT_EQ(gate.Culls(), gate.Parks() - gate.Timeouts());
}

// Timed parks racing infinite parks and exits: expired waiters must abandon cleanly
// (their nodes reaped by later cullers or the destructor) without eating a cull that
// an infinite waiter needed.
TEST(AdmissionGateTest, TimedAndInfiniteWaitersMixedHammer) {
  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  AdmissionGate gate(1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        if (t % 2 == 0) {
          ASSERT_TRUE(gate.Enter(Deadline::Infinite()));
          gate.Exit();
        } else if (gate.Enter(Deadline::After(std::chrono::microseconds(50)))) {
          gate.Exit();
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(gate.Active(), 0u);
  EXPECT_FALSE(gate.HasParked());
}

TEST(AdmissionGateTest, GlobalKillSwitchBypassesTicket) {
  AdmissionGate gate(1);
  ASSERT_TRUE(gate.Enter(Deadline::Infinite()));  // saturate
  AdmissionGate::SetGloballyEnabled(false);
  {
    AdmissionGate::Ticket ticket(&gate);  // must not block or touch the gate
    EXPECT_EQ(gate.Active(), 1u);
  }
  AdmissionGate::SetGloballyEnabled(true);
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
  ASSERT_TRUE(gate.Enter(Deadline::Infinite()));  // saturate: entry would park
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
    ASSERT_TRUE(gate.Enter(Deadline::Infinite()));
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
