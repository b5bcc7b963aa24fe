// Randomized oracle fuzz battery over every lock adapter (CTest label: stress).
//
// Two complementary fuzzers:
//   * MixedModeVsOracle — several threads drive a seeded mix of blocking, try and timed
//     acquisitions; every successful acquisition enters the RangeOracle, so any
//     exclusion violation (a trylock "succeeding" into a held conflicting range, an
//     aborted waiter leaving a phantom hold, ...) latches and fails the test.
//   * SingleThreadTryExactness — with one thread the try outcome is deterministic for
//     precise locks: success iff the requested range conflicts with nothing held. The
//     fuzzer keeps a bag of held ranges and checks every try outcome against the
//     model's answer exactly.
//
// All randomness flows from the kSeeds table through per-thread Xoshiro256 streams, and
// every assertion carries the seed, so a failure reproduces by rerunning the binary.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/lnode.h"
#include "src/epoch/node_pool.h"
#include "src/harness/lock_adapters.h"
#include "src/harness/prng.h"
#include "src/sync/pause.h"
#include "tests/common/range_oracle.h"

namespace srl {
namespace {

using namespace std::chrono_literals;

constexpr uint64_t kSeeds[] = {0x5eed0001, 0x5eed0002};

template <typename Adapter>
class LockFuzzTest : public ::testing::Test {};

using AllLocks =
    ::testing::Types<ListExAdapter, ListExFastPathAdapter, ListLockFreeAdapter,
                     SkiplistIndexedAdapter, ListRwAdapter, ListRwFastPathAdapter,
                     FairListExAdapter, FairListRwAdapter, TreeExAdapter, TreeRwAdapter,
                     SegmentRwAdapter, RwSemAdapter>;

class LockNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    std::string name = T::Name();
    for (char& c : name) {
      if (c == '-') {
        c = '_';
      }
    }
    return name;
  }
};

TYPED_TEST_SUITE(LockFuzzTest, AllLocks, LockNames);

TYPED_TEST(LockFuzzTest, MixedModeVsOracle) {
  constexpr uint64_t kUniverse = 64;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 800;
  for (const uint64_t seed : kSeeds) {
    TypeParam adapter;
    testing::RangeOracle oracle(kUniverse);
    std::atomic<uint64_t> try_successes{0};
    std::atomic<uint64_t> try_failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Xoshiro256 rng(seed ^ (0x9e3779b9u * static_cast<uint64_t>(t + 1)));
        for (int i = 0; i < kOpsPerThread; ++i) {
          uint64_t a = rng.NextBelow(kUniverse);
          uint64_t b = rng.NextBelow(kUniverse);
          if (a > b) {
            std::swap(a, b);
          }
          const Range r{a, b + 1};
          const bool write = rng.NextChance(0.4);
          const uint64_t mode = rng.NextBelow(10);
          typename TypeParam::Handle h{};
          bool held = false;
          if (mode < 4) {  // blocking
            h = write ? adapter.AcquireWrite(r) : adapter.AcquireRead(r);
            held = true;
          } else if (mode < 7) {  // try
            held = write ? adapter.TryAcquireWrite(r, &h)
                         : adapter.TryAcquireRead(r, &h);
            (held ? try_successes : try_failures).fetch_add(1,
                                                            std::memory_order_relaxed);
          } else {  // timed, 0–100us
            const auto timeout =
                std::chrono::microseconds(rng.NextBelow(100));
            held = write ? adapter.AcquireWriteFor(r, timeout, &h)
                         : adapter.AcquireReadFor(r, timeout, &h);
          }
          if (held) {
            if (write || !TypeParam::kSharedReaders) {
              oracle.EnterWrite(r);
              oracle.ExitWrite(r);
            } else {
              oracle.EnterRead(r);
              oracle.ExitRead(r);
            }
            adapter.Release(h);
          }
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    EXPECT_FALSE(oracle.Violated()) << "seed=0x" << std::hex << seed;
    EXPECT_TRUE(oracle.Quiescent()) << "seed=0x" << std::hex << seed;
    // Sanity: the try mix must actually exercise both outcomes being possible; a lock
    // whose trylock always fails (or a fuzzer that never tries) tests nothing.
    EXPECT_GT(try_successes.load(), 0u) << "seed=0x" << std::hex << seed;
  }
}

TYPED_TEST(LockFuzzTest, SingleThreadTryExactness) {
  if (!TypeParam::kPrecise) {
    GTEST_SKIP() << "coarse-grained locks may fail try acquisitions spuriously";
  }
  constexpr uint64_t kUniverse = 64;
  constexpr int kOps = 4000;
  struct Held {
    Range r;
    bool write;
    typename TypeParam::Handle h;
  };
  for (const uint64_t seed : kSeeds) {
    TypeParam adapter;
    std::vector<Held> held;
    Xoshiro256 rng(seed * 0xc0ffee + 1);
    int expected_failures = 0;
    for (int i = 0; i < kOps; ++i) {
      if (!held.empty() && (held.size() >= 8 || rng.NextChance(0.4))) {
        const std::size_t idx = rng.NextBelow(held.size());
        adapter.Release(held[idx].h);
        held[idx] = held.back();
        held.pop_back();
        continue;
      }
      uint64_t a = rng.NextBelow(kUniverse);
      const Range r{a, a + 1 + rng.NextBelow(12)};
      const bool write = rng.NextChance(0.5);
      // Model: conflict iff overlapping a held range and at least one side writes
      // (for exclusive-only locks every acquisition writes).
      bool conflict = false;
      for (const Held& x : held) {
        const bool overlap = x.r.start < r.end && r.start < x.r.end;
        const bool both_read =
            TypeParam::kSharedReaders && !write && !x.write;
        if (overlap && !both_read) {
          conflict = true;
          break;
        }
      }
      typename TypeParam::Handle h{};
      bool got;
      if (rng.NextChance(0.25)) {  // sprinkle timed acquisitions in
        const auto timeout = conflict ? 300us : 50ms;
        got = write ? adapter.AcquireWriteFor(r, timeout, &h)
                    : adapter.AcquireReadFor(r, timeout, &h);
      } else {
        got = write ? adapter.TryAcquireWrite(r, &h)
                    : adapter.TryAcquireRead(r, &h);
      }
      ASSERT_EQ(got, !conflict)
          << "seed=0x" << std::hex << seed << std::dec << " op=" << i << " range=["
          << r.start << "," << r.end << ") write=" << write;
      if (got) {
        held.push_back({r, write, h});
      } else {
        ++expected_failures;
      }
    }
    for (const Held& x : held) {
      adapter.Release(x.h);
    }
    EXPECT_GT(expected_failures, 0) << "seed=0x" << std::hex << seed;

    // Node-leak / double-free epilogue: run a bounded abort-and-succeed storm through
    // the same exactness model and require exact NodePool conservation around it. A
    // dropped node (an aborted acquisition that never returns its node) shows up as
    // pool_total < baseline; a double return (e.g. Recycling a self-deleted node that
    // a traversal later Retires again) as pool_total > baseline. Bounded op counts keep
    // the thread's inventory churn far below NodePool's Replenish/Trim thresholds, and
    // single-threaded refills always splice (no parking), so equality is exact and
    // deterministic.
    if (TypeParam::kUsesNodePool) {
      auto pool_total = [] {
        auto& pool = NodePool<LNode>::Local();
        return pool.ActiveSize() + pool.ReclaimedSize();
      };
      // Always-held disjoint anchor: keeps the fast path out of play so every
      // acquisition below goes through the list and the sweep residue is constant.
      // 64 units = all 16 buckets of the bucketed lock-free adapter (4-unit windows).
      auto anchor = adapter.AcquireWrite({1000, 1064});
      // Covers every range the storm uses; unlinks all marked residue, leaving a
      // constant number of freshly marked sweep nodes behind.
      auto sweep = [&] {
        auto h = adapter.AcquireWrite({0, 100});
        adapter.Release(h);
      };
      sweep();
      const std::size_t baseline = pool_total();
      auto held_h = adapter.AcquireWrite({0, 10});
      for (int i = 0; i < 32; ++i) {
        typename TypeParam::Handle t{};
        // Model: {5,15} overlaps the held {0,10} — every acquisition mode must fail
        // and hold nothing.
        EXPECT_FALSE(adapter.TryAcquireWrite({5, 15}, &t));
        EXPECT_FALSE(adapter.TryAcquireRead({5, 15}, &t));
        EXPECT_FALSE(adapter.AcquireWriteFor({5, 15}, 300us, &t));
        EXPECT_FALSE(adapter.AcquireReadFor({5, 15}, 300us, &t));
        // Model: {30,40} conflicts with nothing — every mode must succeed; the release
        // exercises the marked-node unlink/Retire path between failures.
        ASSERT_TRUE(adapter.TryAcquireWrite({30, 40}, &t));
        adapter.Release(t);
        ASSERT_TRUE(adapter.AcquireWriteFor({30, 40}, 50ms, &t));
        adapter.Release(t);
      }
      adapter.Release(held_h);
      sweep();
      EXPECT_EQ(pool_total(), baseline) << "seed=0x" << std::hex << seed;
      adapter.Release(anchor);
    }
  }
}

// Targets the timed-reader self-delete under a lost race with a concurrent writer
// validate (the RW lock's kValidationFailed path): the reader's node is already in the
// list when it gives up, so ownership transfers to the list and exactly one future
// traversal — often the racing writer's own validate — must Retire it, possibly into
// the *other* thread's pool. The assertion is cross-thread pool conservation: after the
// worker stops and a final sweep collects all marked residue, the two threads' pool
// ledgers (see NodePool::Allocated) must sum to their baselines. The ledger counts
// parked batches and the pool's own mallocs and trims, so it is exact on every run
// however the pools resize. A leak (self-deleted node never reclaimed) or a double
// return (self-delete path also Recycling) breaks the sum in opposite directions.
//
// Geometry (Figure 1's concurrent-insertion shape): the main thread holds reader anchor
// X = {2,4}; its timed reader {0,20} sorts BEFORE X (reader-reader, by start) while the
// worker's writer {10,15} sorts AFTER X — two different insertion points, so both CASes
// can succeed concurrently and the conflict is only caught in validation, where the
// reader's short deadline forces the self-delete. Exclusive adapters degrade gracefully
// (the timed op conflicts with the thread's own anchor and aborts pre-insertion), still
// checking try/timed conservation.
TYPED_TEST(LockFuzzTest, TimedReaderLostRaceConservesPoolNodes) {
  if (!TypeParam::kUsesNodePool) {
    GTEST_SKIP() << "lock does not allocate from NodePool<LNode>";
  }
  constexpr int kWorkerOps = 64;
  TypeParam adapter;
  auto ledger = [] {
    auto& pool = NodePool<LNode>::Local();
    return static_cast<int64_t>(pool.ActiveSize() + pool.ReclaimedSize() +
                                pool.ParkedSize() + pool.Freed()) -
           static_cast<int64_t>(pool.Allocated());
  };

  auto far_anchor = adapter.AcquireWrite({1000, 1064});  // all buckets: no fast path
  std::atomic<int> phase{0};
  std::atomic<int64_t> worker_baseline{0};
  std::atomic<int64_t> worker_final{0};
  std::thread worker([&] {
    worker_baseline.store(ledger());
    phase.store(1);
    while (phase.load() < 2) {
      CpuRelax();
    }
    for (int i = 0; i < kWorkerOps; ++i) {
      auto h = adapter.AcquireWrite({10, 15});
      for (int s = 0; s < 256; ++s) {
        CpuRelax();  // widen the insert-vs-validate race window
      }
      adapter.Release(h);
    }
    phase.store(3);
    while (phase.load() < 4) {
      CpuRelax();
    }
    worker_final.store(ledger());
  });
  while (phase.load() < 1) {
    CpuRelax();
  }
  auto sweep = [&] {
    auto h = adapter.AcquireWrite({0, 100});
    adapter.Release(h);
  };
  sweep();
  const int64_t baseline_sum = ledger() + worker_baseline.load();
  auto x_anchor = adapter.AcquireRead({2, 4});
  phase.store(2);
  while (phase.load() < 3) {
    typename TypeParam::Handle h{};
    if (adapter.AcquireReadFor({0, 20}, std::chrono::microseconds(30), &h)) {
      adapter.Release(h);
    }
  }
  adapter.Release(x_anchor);
  sweep();  // collects every marked node, the worker's and the aborted readers' alike
  const int64_t my_final = ledger();
  phase.store(4);
  worker.join();
  EXPECT_EQ(my_final + worker_final.load(), baseline_sum);
  adapter.Release(far_anchor);
}

}  // namespace
}  // namespace srl
