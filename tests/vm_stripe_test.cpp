// Stripe-boundary semantics for the sharded address space: routing, the home-stripe
// policy, overflow-to-neighbour allocation, the no-straddle invariant at window edges,
// cross-stripe classification to the full-range path, the per-stripe counter isolation
// claim (churn in stripe A causes no speculative-fault retries in stripe B), and exact
// counts from per-thread counter slots that threads share, each fault counted once.
#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/prng.h"
#include "src/sync/topology.h"
#include "src/vm/address_space.h"
#include "tests/common/test_clock.h"

namespace srl::vm {
namespace {

constexpr uint64_t kPage = AddressSpace::kPageSize;
constexpr uint64_t kSpan = AddressSpace::kStripeSpan;

TEST(VmStripeTest, StripeCountClampsAndRoundsToPowerOfTwo) {
  EXPECT_EQ(AddressSpace(VmVariant::kListScoped, 4).Stripes(), 4u);
  EXPECT_EQ(AddressSpace(VmVariant::kListScoped, 3).Stripes(), 4u);
  EXPECT_EQ(AddressSpace(VmVariant::kListScoped, 200).Stripes(), 64u);
  EXPECT_EQ(AddressSpace(VmVariant::kListScoped, 1).Stripes(), 1u);
  // Non-scoped variants default to one stripe (full-range structural ops serialize
  // everything anyway) but accept explicit striping.
  EXPECT_EQ(AddressSpace(VmVariant::kStock).Stripes(), 1u);
  EXPECT_EQ(AddressSpace(VmVariant::kTreeFull, 8).Stripes(), 8u);
}

TEST(VmStripeTest, MmapInStripeCarvesFromThatWindow) {
  AddressSpace as(VmVariant::kListScoped, 8);
  ASSERT_EQ(as.Stripes(), 8u);
  for (unsigned i = 0; i < 8; ++i) {
    const uint64_t addr = as.MmapInStripe(i, 4 * kPage, kProtRead | kProtWrite);
    ASSERT_NE(addr, 0u);
    EXPECT_EQ(as.StripeOf(addr), i);
    EXPECT_GE(addr, AddressSpace::kMmapBase + i * kSpan);
    EXPECT_LT(addr + 4 * kPage, AddressSpace::kMmapBase + (i + 1) * kSpan);
    EXPECT_TRUE(as.PageFault(addr, true));
  }
  EXPECT_EQ(as.MmapInStripe(8, kPage, kProtRead), 0u) << "stripe index out of range";
  EXPECT_TRUE(as.CheckInvariants());
}

// Pins the home-stripe policy, registration-order round robin, on every host: which
// CPUs the threads run on must not matter.
TEST(VmStripeTest, HomeStripePolicySpreadsThreads) {
  AddressSpace as(VmVariant::kListScoped, 8);
  // 8 fresh threads draw consecutive registration tokens, so their home stripes must
  // be pairwise distinct — the "scoped mmaps from different threads share no state"
  // property reduces to this.
  std::vector<unsigned> homes(8, ~0u);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const uint64_t addr = as.Mmap(2 * kPage, kProtRead);
      ASSERT_NE(addr, 0u);
      homes[static_cast<std::size_t>(t)] = as.StripeOf(addr);
      EXPECT_EQ(as.HomeStripe(), as.StripeOf(addr));
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(std::set<unsigned>(homes.begin(), homes.end()).size(), 8u)
      << "threads hashed onto colliding home stripes";
  EXPECT_TRUE(as.CheckInvariants());
}

TEST(VmStripeTest, SingleCoreFallbackIsStablePerThread) {
  AddressSpace as(VmVariant::kListScoped, 4);
  // Each fresh thread's home stripe is stable across calls (the registration token is
  // drawn once per thread), and sequentially spawned threads walk the stripes round
  // robin modulo the stripe count.
  std::vector<unsigned> homes;
  for (int t = 0; t < 6; ++t) {
    std::thread([&] {
      const unsigned h1 = as.HomeStripe();
      const unsigned h2 = as.HomeStripe();
      EXPECT_EQ(h1, h2) << "home stripe not stable within a thread";
      homes.push_back(h1);
    }).join();
  }
  // Consecutive threads land on consecutive stripes mod 4 (whatever token the first
  // one drew): distinctness over any 4-thread window follows.
  for (std::size_t i = 1; i < homes.size(); ++i) {
    EXPECT_EQ(homes[i], (homes[i - 1] + 1) % 4)
        << "home stripes are not registration-order round-robin";
  }
}

TEST(VmStripeTest, ExhaustedWindowOverflowsToNeighbour) {
  AddressSpace as(VmVariant::kListScoped, 4);
  // Nearly fill stripe 0's window, then ask it for more than the remainder: the
  // allocation must overflow to stripe 1 — wholly inside stripe 1's window, never
  // straddling the edge.
  const uint64_t big = as.MmapInStripe(0, kSpan - 4 * kPage, kProtRead);
  ASSERT_NE(big, 0u);
  EXPECT_EQ(as.StripeOf(big), 0u);
  const uint64_t spill = as.MmapInStripe(0, 16 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(spill, 0u);
  EXPECT_EQ(as.StripeOf(spill), 1u) << "exhausted window did not overflow to neighbour";
  EXPECT_EQ(as.StripeOf(spill + 16 * kPage - 1), 1u);
  EXPECT_EQ(as.Stats().stripe(1).mmap_overflow.load(), 1u);
  EXPECT_TRUE(as.PageFault(spill, true));
  // Exhaust every window (stripe 1 already carries the spill, so ask for a little
  // less than a full span): the allocator must fail cleanly rather than straddle.
  for (unsigned i = 1; i < 4; ++i) {
    ASSERT_NE(as.MmapInStripe(i, kSpan - 64 * kPage, kProtRead), 0u);
  }
  EXPECT_EQ(as.Mmap(kSpan, kProtRead), 0u) << "no window can fit a full span now";
  EXPECT_TRUE(as.CheckInvariants());
}

// An exact-fit carve ends flush at the window edge and the overflow allocation starts
// at the next window's base: two adjacent same-protection VMAs across a stripe edge.
// The merge sweep must refuse to absorb across the edge (a straddling VMA would be
// invisible to the other stripe's lookups), at identical user-visible semantics.
TEST(VmStripeTest, AdjacentVmasAcrossStripeEdgeNeverMerge) {
  AddressSpace as(VmVariant::kListScoped, 2);
  const uint32_t prot = kProtRead | kProtWrite;
  const uint64_t a = as.MmapInStripe(0, kSpan, prot);  // exact fit: [base, base+span)
  ASSERT_NE(a, 0u);
  ASSERT_EQ(a, AddressSpace::kMmapBase);
  const uint64_t b = as.MmapInStripe(0, 8 * kPage, prot);  // overflows to stripe 1
  ASSERT_EQ(b, a + kSpan) << "overflow allocation must start at the next window base";
  ASSERT_EQ(as.StripeOf(b), 1u);

  // Same-protection mprotect across the shared edge: coverage holds, the operation
  // classifies cross-stripe (full path), and the merge sweep sees two mergeable
  // neighbours — which must stay two VMAs.
  ASSERT_TRUE(as.Mprotect(b - 2 * kPage, 4 * kPage, prot));
  EXPECT_GT(as.Stats().cross_stripe_fallback.load(), 0u);
  const auto vmas = as.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 2u) << "merge sweep absorbed across a stripe edge";
  EXPECT_EQ(vmas[0], (VmaInfo{a, a + kSpan, prot}));
  EXPECT_EQ(vmas[1], (VmaInfo{b, b + 8 * kPage, prot}));
  // Lookups on both sides of the edge must keep resolving (a straddler would break
  // stripe 1's).
  EXPECT_TRUE(as.PageFault(b - kPage, true));
  EXPECT_TRUE(as.PageFault(b, true));
  EXPECT_TRUE(as.CheckInvariants());
}

TEST(VmStripeTest, CrossStripeMunmapFallsBackAndUnmapsBothSides) {
  AddressSpace as(VmVariant::kListScoped, 2);
  const uint32_t prot = kProtRead | kProtWrite;
  const uint64_t a = as.MmapInStripe(0, kSpan, prot);
  ASSERT_NE(a, 0u);
  const uint64_t b = as.MmapInStripe(0, 8 * kPage, prot);  // stripe 1, adjacent
  ASSERT_EQ(b, a + kSpan);
  ASSERT_TRUE(as.PageFault(b - kPage, true));
  ASSERT_TRUE(as.PageFault(b, true));

  const uint64_t before = as.Stats().cross_stripe_fallback.load();
  ASSERT_TRUE(as.Munmap(b - 2 * kPage, 4 * kPage));
  EXPECT_GT(as.Stats().cross_stripe_fallback.load(), before);
  const auto vmas = as.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 2u);
  EXPECT_EQ(vmas[0], (VmaInfo{a, b - 2 * kPage, prot}));
  EXPECT_EQ(vmas[1], (VmaInfo{b + 2 * kPage, b + 8 * kPage, prot}));
  as.DrainSweeps();  // the deferred sweep is the post-munmap drain edge
  EXPECT_EQ(as.PresentPagesInRange(b - 2 * kPage, 4 * kPage), 0u)
      << "cross-stripe munmap left pages behind";
  EXPECT_FALSE(as.PageFault(b, false)) << "unmapped head half still faults in";
  EXPECT_TRUE(as.CheckInvariants());
}

// Deterministic failing cross-stripe Mprotect (error-path audit of the lock-free-list
// PR): an mprotect spanning a stripe edge classifies kCrossStripe and takes the
// full-range path — full write acquisition plus the affected stripes' mutation locks in
// ascending order — and then fails coverage against a hole. The fallback counter must
// tick exactly once per call (no double count on the way out), the early return must
// leave no VMA or protection changed, and the address space must keep functioning
// (locks released correctly on the error path).
TEST(VmStripeTest, FailingCrossStripeMprotectCountsOnceAndChangesNothing) {
  AddressSpace as(VmVariant::kListScoped, 2);
  const uint32_t prot = kProtRead | kProtWrite;
  const uint64_t a = as.MmapInStripe(0, kSpan, prot);  // exact fit: ends at the edge
  ASSERT_NE(a, 0u);
  const uint64_t b = as.MmapInStripe(0, 8 * kPage, prot);  // overflows to stripe 1
  ASSERT_EQ(b, a + kSpan);
  ASSERT_EQ(as.StripeOf(b), 1u);
  // Punch a hole wholly inside stripe 1 (scoped, no fallback).
  ASSERT_TRUE(as.Munmap(b + 2 * kPage, 2 * kPage));
  ASSERT_EQ(as.Stats().cross_stripe_fallback.load(), 0u);

  const auto before_vmas = as.SnapshotVmas();
  // Spans the edge AND the hole: classifies cross-stripe, then coverage fails (ENOMEM).
  for (int attempt = 0; attempt < 2; ++attempt) {
    const uint64_t before = as.Stats().cross_stripe_fallback.load();
    EXPECT_FALSE(as.Mprotect(b - 2 * kPage, 6 * kPage, kProtRead));
    EXPECT_EQ(as.Stats().cross_stripe_fallback.load(), before + 1)
        << "cross_stripe_fallback must tick exactly once per failing call";
    EXPECT_EQ(as.SnapshotVmas(), before_vmas)
        << "failed cross-stripe mprotect mutated the address space";
  }

  // The error path must have released everything: a covered cross-stripe mprotect over
  // the same edge still succeeds (and also counts exactly once).
  const uint64_t before = as.Stats().cross_stripe_fallback.load();
  ASSERT_TRUE(as.Mprotect(b - 2 * kPage, 4 * kPage, kProtRead));
  EXPECT_EQ(as.Stats().cross_stripe_fallback.load(), before + 1);
  const auto vmas = as.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 4u);
  EXPECT_EQ(vmas[0], (VmaInfo{a, b - 2 * kPage, prot}));
  // Same protection on both sides of the edge, but the merge sweep must not absorb
  // across it — two read-only VMAs abutting at the stripe boundary.
  EXPECT_EQ(vmas[1], (VmaInfo{b - 2 * kPage, b, kProtRead}));
  EXPECT_EQ(vmas[2], (VmaInfo{b, b + 2 * kPage, kProtRead}));
  EXPECT_EQ(vmas[3], (VmaInfo{b + 4 * kPage, b + 8 * kPage, prot}));
  EXPECT_TRUE(as.PageFault(b - kPage, false));
  EXPECT_FALSE(as.PageFault(b - kPage, true)) << "read-only after the protect";
  EXPECT_TRUE(as.CheckInvariants());
}

// A snapshot is sorted and disjoint, and exactly two VMAs, both with `prot`, cover the
// pages on either side of `edge`.
bool SnapshotHoldsEdge(const std::vector<VmaInfo>& vmas, uint64_t edge, uint32_t prot) {
  int pieces = 0;
  for (std::size_t k = 0; k < vmas.size(); ++k) {
    if (vmas[k].start >= vmas[k].end || (k > 0 && vmas[k - 1].end > vmas[k].start)) {
      return false;
    }
    if (vmas[k].start < edge + kPage && vmas[k].end > edge - kPage) {
      if (vmas[k].prot != prot) {
        return false;
      }
      ++pieces;
    }
  }
  return pieces == 2;
}

// The cross-stripe fallback against scoped churn in both of its stripes. A covered
// mprotect over the stripe edge classifies cross-stripe and takes the full-range path
// (LockFullWrite, then both stripes' mutation locks), while one thread per stripe runs
// scoped mprotect/fault/munmap cycles beside it. Every fault verdict must match the
// protection its own thread set. The edge thread's snapshots walk both trees under
// LockFullWrite alone, so they find the edge VMAs intact only if LockFullWrite takes
// every stripe's list and so excludes both churners. The exact-fit carve that puts a
// VMA against the edge exhausts stripe 0's window, so stripe 0's churner works through
// slots mapped before that carve; stripe 1's maps its own.
TEST(VmStripeTest, CrossStripeFallbackRacesScopedChurnInBothStripes) {
  AddressSpace as(VmVariant::kListScoped, 2);
  const uint32_t rw = kProtRead | kProtWrite;
  constexpr uint64_t kSlotPages = 4;
  constexpr int kSlots = 1024;
  std::vector<uint64_t> slots;
  for (int i = 0; i < kSlots; ++i) {
    slots.push_back(as.MmapInStripe(0, kSlotPages * kPage, rw));
    ASSERT_EQ(as.StripeOf(slots.back()), 0u);
  }
  // Exact fit of the rest of stripe 0 (the cursor sits one guard page past the last
  // slot), then the overflow carve at stripe 1's base: two VMAs abutting the edge.
  const uint64_t edge = AddressSpace::kMmapBase + kSpan;
  const uint64_t rest = slots.back() + (kSlotPages + 1) * kPage;
  ASSERT_EQ(as.MmapInStripe(0, edge - rest, rw), rest);
  ASSERT_EQ(as.MmapInStripe(0, 8 * kPage, rw), edge);
  ASSERT_EQ(as.StripeOf(edge), 1u);

  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};
  std::atomic<uint64_t> edge_ops{0};
  // One scoped cycle on a fresh RW slot x: split off a read-only page, check every
  // verdict against it, unmap the slot.
  const auto cycle = [&](uint64_t x) {
    const bool good = as.PageFault(x, true) && as.Mprotect(x + kPage, kPage, kProtRead) &&
                      !as.PageFault(x + kPage, true) && as.PageFault(x + kPage, false) &&
                      as.PageFault(x, true) && as.Munmap(x, kSlotPages * kPage) &&
                      !as.PageFault(x, false);
    if (!good) {
      ok.store(false);
    }
    return good;
  };
  constexpr uint64_t kMinEdgeOps = 64;
  std::thread churn0([&] {
    for (std::size_t i = 0; i < slots.size() && !stop.load(); ++i) {
      if (!cycle(slots[i])) {
        return;
      }
    }
  });
  std::thread churn1([&] {
    int cycles = 0;
    while (ok.load() && !stop.load() &&
           (cycles < kSlots || edge_ops.load() < kMinEdgeOps)) {
      const uint64_t x = as.MmapInStripe(1, kSlotPages * kPage, rw);
      if (x == 0 || as.StripeOf(x) != 1 || !cycle(x)) {
        ok.store(false);
        return;
      }
      ++cycles;
    }
  });
  const uint64_t fallbacks_before = as.Stats().cross_stripe_fallback.load();
  std::thread edger([&] {
    for (uint64_t i = 0; !stop.load(); ++i) {
      const uint32_t prot = (i % 2 == 0) ? kProtRead : rw;
      const bool writable = prot == rw;
      if (!as.Mprotect(edge - 2 * kPage, 4 * kPage, prot) ||
          as.PageFault(edge - kPage, true) != writable ||
          as.PageFault(edge, true) != writable || !as.PageFault(edge + kPage, false)) {
        ok.store(false);
        return;
      }
      if (i % 8 == 0 && !SnapshotHoldsEdge(as.SnapshotVmas(), edge, prot)) {
        ok.store(false);
        return;
      }
      edge_ops.fetch_add(1);
    }
  });
  churn0.join();
  churn1.join();
  EXPECT_TRUE(srl::testing::EventuallyTrue(
      [&] { return edge_ops.load() >= kMinEdgeOps || !ok.load(); }));
  stop.store(true);
  edger.join();
  ASSERT_TRUE(ok.load()) << "a verdict or snapshot disagreed with its own thread's ops";
  EXPECT_GE(as.Stats().cross_stripe_fallback.load() - fallbacks_before, kMinEdgeOps);
  EXPECT_TRUE(as.CheckInvariants());
}

// The acceptance claim of the sharding refactor, as a deterministic concurrent test:
// structural churn confined to stripe 0 must cause zero speculative-fault retries for
// faults confined to stripe 1 — their seqcounts share nothing. (Under the PR 4 global
// seqcount, every munmap invalidated every in-flight speculative fault.)
TEST(VmStripeTest, ChurnInOneStripeNeverRetriesFaultsInAnother) {
  for (const VmVariant variant : {VmVariant::kTreeScoped, VmVariant::kListScoped}) {
    AddressSpace as(variant, 4);
    constexpr uint64_t kPages = 64;
    const uint64_t base = as.MmapInStripe(1, kPages * kPage, kProtRead | kProtWrite);
    ASSERT_NE(base, 0u);

    std::atomic<bool> stop{false};
    std::atomic<bool> churn_ok{true};
    std::atomic<uint64_t> churn_cycles{0};
    std::thread churner([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t scratch = as.MmapInStripe(0, 4 * kPage, kProtRead | kProtWrite);
        if (scratch == 0 || as.StripeOf(scratch) != 0 ||
            !as.Munmap(scratch, 4 * kPage)) {
          churn_ok.store(false);
          return;
        }
        churn_cycles.fetch_add(1, std::memory_order_relaxed);
      }
    });

    // Fault until both sides have provably overlapped: plenty of faults AND plenty of
    // churn cycles (on one core the churner may not be scheduled until we yield).
    Xoshiro256 rng(0x57a11);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    uint64_t faults = 0;
    while ((faults < 20000 || churn_cycles.load(std::memory_order_relaxed) < 64) &&
           churn_ok.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < deadline) {
      const uint64_t addr = base + rng.NextBelow(kPages) * kPage;
      ASSERT_TRUE(as.PageFault(addr, rng.NextChance(0.5)));
      if (++faults % 512 == 0) {
        std::this_thread::yield();  // hand the core to the churner
      }
    }
    stop.store(true);
    churner.join();
    ASSERT_TRUE(churn_ok.load());
    ASSERT_GE(churn_cycles.load(), 64u) << "churner starved; the race never happened";

    const VmStats& st = as.Stats();
    EXPECT_GT(st.stripe(1).fault_spec_ok.load(), 0u)
        << VmVariantName(variant) << ": faults never took the speculative path";
    EXPECT_EQ(st.stripe(1).fault_spec_retry.load(), 0u)
        << VmVariantName(variant)
        << ": stripe-0 churn invalidated stripe-1 faults — seqcounts not isolated";
    EXPECT_GT(st.stripe(0).scoped_structural.load(), 0u);
    EXPECT_EQ(st.stripe(0).fault_spec_ok.load(), 0u);
    EXPECT_TRUE(as.CheckInvariants());
  }
}

// Scoped structural ops pinned to distinct stripes account to their own stripe's
// counters and never degrade to the full-range path.
TEST(VmStripeTest, ScopedOpsAccountToTheirStripe) {
  AddressSpace as(VmVariant::kListScoped, 4);
  for (unsigned i = 0; i < 4; ++i) {
    const uint64_t addr = as.MmapInStripe(i, 8 * kPage, kProtNone);
    ASSERT_NE(addr, 0u);
    ASSERT_TRUE(as.Mprotect(addr, 4 * kPage, kProtRead));  // structural split, in-stripe
    ASSERT_TRUE(as.Munmap(addr + 6 * kPage, kPage));       // in-stripe munmap
  }
  const VmStats& st = as.Stats();
  for (unsigned i = 0; i < 4; ++i) {
    // mmap + split + munmap, each stripe-scoped and attributed to stripe i.
    EXPECT_GE(st.stripe(i).scoped_structural.load(), 3u) << "stripe " << i;
  }
  EXPECT_EQ(st.scoped_fallback.load(), 0u);
  EXPECT_EQ(st.cross_stripe_fallback.load(), 0u);
  EXPECT_GT(as.Lock().RangedWriteAcquisitions(), 0u);
  EXPECT_EQ(as.Lock().FullWriteAcquisitions(), 0u)
      << "an in-stripe op degraded to the full-range path";
  EXPECT_TRUE(as.CheckInvariants());
}

// Every VM counter is a per-thread-slot, per-stripe slice that Stats() folds. With more
// threads than counter slots, threads share slots, and the counts must stay exact: every
// flat total equals the sum of its per-stripe slices and the count the operations imply,
// each stripe gets exactly its own operations, the lock's write counters match, and a
// second fold with no operation in between changes nothing. A fold that skips one slot
// block loses a thread's counts and fails here.
TEST(VmStripeTest, CountersStayExactWhenThreadSlotsCollide) {
  const unsigned slots = CounterSlots();
  if (slots > 256) {
    GTEST_SKIP() << slots << " counter slots: sharing them would take too many threads";
  }
  AddressSpace as(VmVariant::kListScoped, 4);
  // Stripes 0-2 take the churn; stripe 3 holds only the shared mapping, so its faults
  // never see a structural change and always resolve speculatively.
  constexpr unsigned kChurnStripes = 3;
  constexpr unsigned kSharedStripe = 3;
  constexpr uint64_t kCycles = 32;
  constexpr uint64_t kSharedPages = 8;
  const unsigned threads = slots + 4;
  const uint64_t shared =
      as.MmapInStripe(kSharedStripe, kSharedPages * kPage, kProtRead | kProtWrite);
  ASSERT_NE(shared, 0u);

  std::atomic<bool> ok{true};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const unsigned stripe = t % kChurnStripes;
      for (uint64_t k = 0; k < kCycles; ++k) {
        const uint64_t a = as.MmapInStripe(stripe, 4 * kPage, kProtRead | kProtWrite);
        const bool cycle_ok = a != 0 && as.PageFault(a, true) &&
                              as.Mprotect(a, 2 * kPage, kProtRead) &&  // split
                              as.Munmap(a, 4 * kPage) &&
                              as.PageFault(shared + (k % kSharedPages) * kPage, false);
        if (!cycle_ok) {
          ok.store(false);
        }
      }
    });
  }
  for (auto& th : pool) {
    th.join();
  }
  ASSERT_TRUE(ok.load());
  as.DrainSweeps();  // sweeps every queued range; takes no range lock

  const VmStats& st = as.Stats();
  for (const auto counter : kVmCounters) {
    uint64_t sum = 0;
    for (unsigned i = 0; i < 4; ++i) {
      sum += (st.stripe(i).*counter).load();
    }
    EXPECT_EQ((st.*counter).load(), sum) << "a flat total is not its stripes' sum";
  }

  const uint64_t all = uint64_t{threads} * kCycles;
  for (unsigned i = 0; i < kChurnStripes; ++i) {
    const VmStripeStats& s = st.stripe(i);
    const uint64_t cycles = kCycles * ((threads + kChurnStripes - 1 - i) / kChurnStripes);
    EXPECT_EQ(s.mmaps.load(), cycles) << "stripe " << i;
    EXPECT_EQ(s.munmaps.load(), cycles) << "stripe " << i;
    EXPECT_EQ(s.mprotects.load(), cycles) << "stripe " << i;
    EXPECT_EQ(s.faults.load(), cycles) << "stripe " << i;
    EXPECT_EQ(s.major_faults.load(), cycles) << "stripe " << i;
    // Same-stripe churn may push a fault off the speculative path, but every fault
    // resolves exactly once: speculatively, or through one locked attempt.
    EXPECT_EQ(s.fault_spec_ok.load() + s.fault_spec_fallback.load(), cycles);
    EXPECT_EQ(s.fault_try_ok.load() + s.fault_try_fallback.load(),
              s.fault_spec_fallback.load());
    EXPECT_EQ(s.spec_fallback.load(), cycles) << "every split takes the structural path";
    EXPECT_EQ(s.scoped_structural.load(), 3 * cycles) << "stripe " << i;
    EXPECT_EQ(s.sweeps_queued.load(), cycles) << "stripe " << i;
    EXPECT_EQ(s.sweeps_queued_pages.load(), 4 * cycles) << "stripe " << i;
    EXPECT_EQ(s.sweeps_swept_pages.load(), cycles) << "one faulted page per mapping";
    EXPECT_GE(s.sweeps_flushes.load(), 1u) << "stripe " << i;
  }
  const VmStripeStats& sh = st.stripe(kSharedStripe);
  EXPECT_EQ(sh.mmaps.load(), 1u);
  EXPECT_EQ(sh.faults.load(), all);
  EXPECT_EQ(sh.fault_spec_ok.load(), all) << "no churn in the shared stripe";
  EXPECT_EQ(sh.fault_spec_retry.load(), 0u);
  EXPECT_EQ(sh.major_faults.load(), kSharedPages);
  EXPECT_EQ(sh.scoped_structural.load(), 1u);
  EXPECT_EQ(sh.munmaps.load() + sh.mprotects.load() + sh.sweeps_queued.load(), 0u);

  EXPECT_EQ(st.mmaps.load(), all + 1);
  EXPECT_EQ(st.Faults(), 2 * all);
  EXPECT_EQ(st.FaultSpecOk(), 2 * all - st.fault_spec_fallback.load());
  EXPECT_EQ(st.MajorFaults(), all + kSharedPages);
  EXPECT_EQ(st.sweeps_swept_pages.load(), all);
  for (const auto zero : {&VmStripeStats::fault_errors, &VmStripeStats::spec_success,
                          &VmStripeStats::scoped_fallback,
                          &VmStripeStats::cross_stripe_fallback,
                          &VmStripeStats::mmap_overflow,
                          &VmStripeStats::sweeps_coalesced}) {
    EXPECT_EQ((st.*zero).load(), 0u);
  }

  // Ranged writes: one per mmap, munmap and structural mprotect, plus the write of
  // every speculative mprotect attempt (each split retries or falls back once).
  EXPECT_EQ(as.Lock().RangedWriteAcquisitions(), 4 * all + 1 + st.spec_retries.load());
  EXPECT_EQ(as.Lock().FullWriteAcquisitions(), 0u);

  std::vector<uint64_t> first;
  for (const auto counter : kVmCounters) {
    first.push_back((st.*counter).load());
    for (unsigned i = 0; i < 4; ++i) {
      first.push_back((st.stripe(i).*counter).load());
    }
  }
  const VmStats& again = as.Stats();
  std::size_t n = 0;
  for (const auto counter : kVmCounters) {
    EXPECT_EQ((again.*counter).load(), first[n++]) << "a second fold moved a total";
    for (unsigned i = 0; i < 4; ++i) {
      EXPECT_EQ((again.stripe(i).*counter).load(), first[n++]) << "stripe " << i;
    }
  }
  EXPECT_TRUE(as.CheckInvariants());
}

// A fault counts only the outcome that ends it (kFaultOutcomes) and `faults` is derived
// from those, so drive one fault down each path and check every count, flat and per
// stripe: a path that counted twice, or an outcome the fold left out, shows here.
TEST(VmStripeTest, EveryFaultIsCountedExactlyOnce) {
  struct Want {
    uint64_t faults, spec_ok, try_ok, try_fallback, spec_fallback, errors;
  };
  auto expect = [](const VmStripeStats& s, Want w, const char* where) {
    EXPECT_EQ(s.faults.load(), w.faults) << where;
    EXPECT_EQ(s.fault_spec_ok.load(), w.spec_ok) << where;
    EXPECT_EQ(s.fault_try_ok.load(), w.try_ok) << where;
    EXPECT_EQ(s.fault_try_fallback.load(), w.try_fallback) << where;
    EXPECT_EQ(s.fault_spec_fallback.load(), w.spec_fallback) << where;
    EXPECT_EQ(s.fault_errors.load(), w.errors) << where;
    EXPECT_EQ(s.fault_spec_retry.load(), 0u) << where;
  };

  // Scoped space: stripe 0 takes a speculative success and a speculative refusal,
  // stripe 1 a gap that only the locked path may adjudicate.
  AddressSpace as(VmVariant::kListScoped, 2);
  const uint64_t rw = as.MmapInStripe(0, kPage, kProtRead | kProtWrite);
  const uint64_t ro = as.MmapInStripe(0, kPage, kProtRead);
  const uint64_t lo = as.MmapInStripe(1, kPage, kProtRead);
  const uint64_t hi = as.MmapInStripe(1, kPage, kProtRead);
  ASSERT_TRUE(rw != 0 && ro != 0 && lo != 0);
  ASSERT_EQ(hi, lo + 2 * kPage) << "consecutive carves leave one guard page between";
  EXPECT_TRUE(as.PageFault(rw, true));
  EXPECT_FALSE(as.PageFault(ro, true)) << "a write to a read-only page";
  EXPECT_FALSE(as.PageFault(lo + kPage, false)) << "the guard page is a gap";
  const VmStats& st = as.Stats();
  expect(st.stripe(0), {2, 2, 0, 0, 0, 1}, "scoped, stripe 0");
  expect(st.stripe(1), {1, 0, 1, 0, 1, 1}, "scoped, stripe 1");
  expect(st, {3, 2, 1, 0, 1, 2}, "scoped, flat");
  EXPECT_EQ(st.Faults(), 3u);

  // list-refined faults on the locked path. A write lock held on the page makes a
  // second thread's trylock fail; the fault counts that outcome, then blocks.
  AddressSpace rs(VmVariant::kListRefined);
  const uint64_t page = rs.Mmap(kPage, kProtRead | kProtWrite);
  ASSERT_NE(page, 0u);
  EXPECT_TRUE(rs.PageFault(page, true));
  void* h = rs.Lock().LockWrite({page, page + kPage});
  std::atomic<bool> done{false};
  std::atomic<bool> ok{false};
  std::thread faulter([&] {
    ok.store(rs.PageFault(page, false));
    done.store(true);
  });
  EXPECT_TRUE(testing::EventuallyTrue(
      [&] { return rs.Stats().fault_try_fallback.load() == 1; }));
  EXPECT_FALSE(done.load()) << "a fault got past a held write lock on its page";
  rs.Lock().UnlockWrite(h);
  faulter.join();
  EXPECT_TRUE(ok.load());
  const VmStats& rst = rs.Stats();
  expect(rst.stripe(0), {2, 0, 1, 1, 0, 0}, "refined, stripe 0");
  expect(rst, {2, 0, 1, 1, 0, 0}, "refined, flat");
}

}  // namespace
}  // namespace srl::vm
