// Deterministic battery for the deferred page-sweep subsystem (SweepQueue + the
// AddressSpace flusher): range coalescing across enqueues, the DrainSweeps visibility
// edge, the madvise/fault repopulation contract (a winning re-fault cancels the
// pending erase), the inclusive/exclusive page-range contract at stripe-shard edges,
// and a flusher-vs-fault hammer on a repeatedly trimmed window. The concurrent
// fault-vs-unmap ordering claims live in vm_fault_unmap_race_test; this file pins the
// sweep machinery itself, mostly single-threaded so every expectation is exact.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/epoch/sweep_queue.h"
#include "src/vm/address_space.h"
#include "src/vm/page_table.h"

namespace srl::vm {
namespace {

constexpr uint64_t kPage = AddressSpace::kPageSize;

// --- SweepQueue unit tests ------------------------------------------------------

TEST(VmSweepQueueTest, EnqueueCoalescesOverlappingAndAbuttingRanges) {
  SweepQueue q;
  EXPECT_EQ(q.Enqueue(10, 10), 0u) << "empty range must be a no-op";
  EXPECT_EQ(q.PendingPages(), 0u);

  EXPECT_EQ(q.Enqueue(0, 4), 0u);
  EXPECT_EQ(q.Enqueue(8, 12), 0u);
  EXPECT_EQ(q.PendingPages(), 8u);
  EXPECT_EQ(q.PendingRanges(), 2u);

  // [4, 8) abuts both neighbours: one merged range, no page double-counted.
  EXPECT_EQ(q.Enqueue(4, 8), 2u);
  EXPECT_EQ(q.PendingPages(), 12u);
  EXPECT_EQ(q.PendingRanges(), 1u);

  // Re-enqueueing a covered sub-range absorbs the existing range without growth.
  EXPECT_EQ(q.Enqueue(2, 6), 1u);
  EXPECT_EQ(q.PendingPages(), 12u);

  const auto ranges = q.Claim();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 0u);
  EXPECT_EQ(ranges[0].last, 12u);
  EXPECT_EQ(q.PendingPages(), 0u);
  EXPECT_EQ(q.PendingRanges(), 0u);
}

TEST(VmSweepQueueTest, ExpectedBoundsMergeSaturatingAndNeverAcrossAbuttingRanges) {
  SweepQueue q;
  // Two bounded regions that merely abut stay separate: merging them would let one
  // region's bounded probe run into its neighbour's dead tail before finding the
  // neighbour's installs.
  EXPECT_EQ(q.Enqueue(0, 8, 3), 0u);
  EXPECT_EQ(q.Enqueue(8, 16, 2), 0u);
  EXPECT_EQ(q.PendingRanges(), 2u);
  EXPECT_EQ(q.PendingPages(), 16u);

  // An OVERLAPPING bounded enqueue merges and sums the bounds (still an upper bound).
  EXPECT_EQ(q.Enqueue(4, 10, 1), 2u);
  auto ranges = q.Claim();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 0u);
  EXPECT_EQ(ranges[0].last, 16u);
  EXPECT_EQ(ranges[0].expected, 6u);

  // Unbounded abutting ranges (the DONTNEED trim-burst case) still coalesce, and any
  // unbounded contribution saturates the merged bound.
  EXPECT_EQ(q.Enqueue(0, 4), 0u);
  EXPECT_EQ(q.Enqueue(4, 8), 1u);
  EXPECT_EQ(q.Enqueue(6, 12, 5), 1u);
  ranges = q.Claim();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].expected, SweepQueue::kUnbounded);
  EXPECT_EQ(SweepQueue::SatAdd(SweepQueue::kUnbounded, 1), SweepQueue::kUnbounded);
}

TEST(VmSweepQueueTest, DeferredUndoRaisesTheCoveringBoundAndSplitsKeepIt) {
  SweepQueue q;
  EXPECT_FALSE(q.DeferUndoToPending(3)) << "nothing pending";
  q.Enqueue(0, 8, 2);
  EXPECT_FALSE(q.DeferUndoToPending(8)) << "one past the end is not covered";
  // A loser handing its undo to the flusher raises the bound: its install happened
  // after the munmap summed the hints, so the probe must not stop short of it.
  EXPECT_TRUE(q.DeferUndoToPending(5));
  // An interior cancel splits the range; both halves keep the full (raised) bound.
  EXPECT_TRUE(q.CancelPending(4));
  const auto ranges = q.Claim();
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].expected, 3u);
  EXPECT_EQ(ranges[1].expected, 3u);
}

TEST(VmSweepQueueTest, CancelPendingPunchesHolesAtEveryPosition) {
  SweepQueue q;
  EXPECT_FALSE(q.CancelPending(3)) << "nothing pending";

  q.Enqueue(0, 8);
  EXPECT_FALSE(q.CancelPending(8)) << "one past the end is not covered";
  EXPECT_TRUE(q.CoversPending(0));
  EXPECT_TRUE(q.CancelPending(0)) << "head page";
  EXPECT_FALSE(q.CoversPending(0));
  EXPECT_TRUE(q.CancelPending(7)) << "tail page";
  EXPECT_TRUE(q.CancelPending(3)) << "interior page splits the range";
  EXPECT_FALSE(q.CancelPending(3)) << "already cancelled";
  EXPECT_EQ(q.PendingPages(), 5u);

  const auto ranges = q.Claim();
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].first, 1u);
  EXPECT_EQ(ranges[0].last, 3u);
  EXPECT_EQ(ranges[1].first, 4u);
  EXPECT_EQ(ranges[1].last, 7u);
}

TEST(VmSweepQueueTest, CancelPendingErasesAnExhaustedRange) {
  SweepQueue q;
  q.Enqueue(5, 6);
  EXPECT_TRUE(q.CancelPending(5));
  EXPECT_EQ(q.PendingPages(), 0u);
  EXPECT_EQ(q.PendingRanges(), 0u);
  EXPECT_TRUE(q.Claim().empty());
}

TEST(VmSweepQueueTest, FlushThresholdIsTunableAndFloorsAtOne) {
  SweepQueue q;
  EXPECT_EQ(q.FlushThreshold(), SweepQueue::kDefaultFlushThresholdPages);
  q.SetFlushThreshold(0);  // 0 would flush empty queues forever; floored to 1
  EXPECT_EQ(q.FlushThreshold(), 1u);
  EXPECT_FALSE(q.NeedsFlush());
  q.Enqueue(0, 1);
  EXPECT_TRUE(q.NeedsFlush());
  q.SetFlushThreshold(4);
  EXPECT_FALSE(q.NeedsFlush());
  q.Enqueue(10, 13);
  EXPECT_TRUE(q.NeedsFlush());
}

// --- PageTable boundary contract (the inclusive/exclusive audit's pin) ----------

// Every PageTable range is [first_page, last_page) with an EXCLUSIVE end. The case
// that would expose an off-by-one is a range ending exactly on a stripe-shard edge:
// the group walk must include the edge's left neighbour and exclude the edge itself.
TEST(VmSweepQueueTest, RemoveRangeStopsAtStripeShardEdge) {
  PageTable pt;
  const uint64_t shift = VmaIndex::kStripeShift - 12;  // stripe shift in page units
  const uint64_t base = AddressSpace::kMmapBase / kPage;
  pt.ConfigureStripes(shift, base, 4);

  const uint64_t edge = base + (uint64_t{1} << shift);  // first page of window 1
  ASSERT_TRUE(pt.Install(edge - 1));
  ASSERT_TRUE(pt.Install(edge));

  // Narrow (page-by-page) path: end exactly on the edge.
  pt.RemoveRange(edge - 4, edge);
  EXPECT_FALSE(pt.Present(edge - 1));
  EXPECT_TRUE(pt.Present(edge)) << "exclusive end erased the next window's first page";
  EXPECT_EQ(pt.CountRange(edge - 4, edge), 0u);
  EXPECT_EQ(pt.CountRange(edge, edge + 1), 1u);

  // Wide (shard-group walk) path: the whole first window, same exclusive edge.
  ASSERT_TRUE(pt.Install(edge - 1));
  pt.RemoveRange(base, edge);
  EXPECT_FALSE(pt.Present(edge - 1));
  EXPECT_TRUE(pt.Present(edge)) << "shard-group walk crossed the window edge";
}

// The `max_present` bound caps the probe on both RemoveRange paths: once that many
// pages have been erased no more can exist, so the scan stops. A bound SMALLER than
// the true count (never produced by the hint plumbing, but the contract must hold)
// erases exactly the bound and leaves the rest.
TEST(VmSweepQueueTest, RemoveRangeStopsAfterTheMaxPresentBound) {
  PageTable pt;
  // Narrow (page-by-page) path: 3 installs clustered at the front of 1000 pages.
  for (uint64_t p = 100; p < 103; ++p) {
    ASSERT_TRUE(pt.Install(p));
  }
  EXPECT_EQ(pt.RemoveRange(100, 1100, 3), 3u);
  EXPECT_EQ(pt.CountRange(100, 1100), 0u);
  EXPECT_EQ(pt.RemoveRange(100, 1100, 0), 0u) << "zero bound must be a no-op";

  // Bound below the true count: exactly `max_present` erased.
  for (uint64_t p = 200; p < 205; ++p) {
    ASSERT_TRUE(pt.Install(p));
  }
  EXPECT_EQ(pt.RemoveRange(200, 205, 3), 3u);
  EXPECT_EQ(pt.CountRange(200, 205), 2u);

  // Wide (shard-group walk) path: > 4096 pages, sparse installs.
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(pt.Install(10000 + p * 512));
  }
  EXPECT_EQ(pt.RemoveRange(10000, 20000, 8), 8u);
  EXPECT_EQ(pt.CountRange(10000, 20000), 0u);
}

TEST(VmSweepQueueTest, RemoveRangeReportsWhereTheProbeStopped) {
  PageTable pt;
  uint64_t resume = 0;
  // Full walk (budget not exhausted): resume is the exclusive end.
  ASSERT_TRUE(pt.Install(5));
  EXPECT_EQ(pt.RemoveRange(0, 16, 4, &resume), 1u);
  EXPECT_EQ(resume, 16u);
  // Early budget stop: everything below resume has provably been probed.
  ASSERT_TRUE(pt.Install(2));
  ASSERT_TRUE(pt.Install(12));
  EXPECT_EQ(pt.RemoveRange(0, 16, 1, &resume), 1u);
  EXPECT_EQ(resume, 3u) << "narrow probe erases in ascending order and stops exactly";
  EXPECT_EQ(pt.CountRange(0, 16), 1u) << "page 12 must survive the bounded probe";
  pt.Remove(12);
  // The wide path visits shards out of page order: an early stop there must report
  // first_page, leaving the whole range suspect.
  ASSERT_TRUE(pt.Install(30000));
  EXPECT_EQ(pt.RemoveRange(20000, 40000, 1, &resume), 1u);
  EXPECT_EQ(resume, 20000u);
}

TEST(VmSweepQueueTest, RobbedBoundedProbeLeavesATombstoneAndRaiseReArmsItsTail) {
  // The budget-theft scenario the claimed-range lifecycle exists for. A munmap whose
  // hint read raced a losing fault enqueues [0, 16) with expected = 1 (it counted the
  // real install at page 12, not the loser's transient one at page 2). The bounded
  // probe then spends its only budget unit erasing the loser's page and stops — the
  // real dead page survives past the stop point, and the robbed loser (its
  // ticket-exact RemoveExact finds its page already gone) must still find a
  // compensation target, or page 12 leaks forever.
  SweepQueue q;
  PageTable pt;
  ASSERT_TRUE(pt.Install(2));   // the loser's transient install (not in the bound)
  ASSERT_TRUE(pt.Install(12));  // the real dead page the bound counted
  q.Enqueue(0, 16, 1);

  // Flusher: claim, probe, and report the early budget stop.
  auto ranges = q.Claim();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_TRUE(q.CoversPending(12)) << "claimed-in-flight ranges must stay covered";
  uint64_t resume = 0;
  EXPECT_EQ(pt.RemoveRange(ranges[0].first, ranges[0].last, ranges[0].expected,
                           &resume),
            1u);
  EXPECT_EQ(resume, 3u);
  EXPECT_EQ(pt.CountRange(0, 16), 1u) << "page 12 stranded past the stop point";
  q.FinishClaimed(ranges[0].first, ranges[0].last, resume, /*may_survive=*/true,
                  /*batch=*/1);
  EXPECT_EQ(q.ClaimedEntries(), 1u) << "budget-exhausted probe leaves a tombstone";
  EXPECT_TRUE(q.CoversPending(12))
      << "the tombstone keeps the stranded page covered for the invariant checker";

  // The robbed loser raises the tombstone: its unprobed tail [3, 16) re-arms with one
  // budget unit, and the next flush recovers the stranded page.
  EXPECT_TRUE(q.RaiseClaimed(2));
  EXPECT_EQ(q.PendingRanges(), 1u);
  ranges = q.Claim();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 3u);
  EXPECT_EQ(ranges[0].last, 16u);
  EXPECT_EQ(ranges[0].expected, 1u);
  EXPECT_EQ(pt.RemoveRange(ranges[0].first, ranges[0].last, ranges[0].expected,
                           &resume),
            1u);
  EXPECT_EQ(pt.CountRange(0, 16), 0u) << "compensation re-probe recovers page 12";
  q.FinishClaimed(ranges[0].first, ranges[0].last, resume,
                  resume < ranges[0].last, /*batch=*/2);

  // Grace elapsed (no fault in flight can still owe a raise): tombstones purge and
  // the cover envelope resets.
  q.PurgeFinishedUpTo(2);
  EXPECT_EQ(q.ClaimedEntries(), 0u);
  EXPECT_FALSE(q.CoversPending(12));
  EXPECT_FALSE(q.MayCover(8)) << "bounds reset once nothing pending or claimed";
}

TEST(VmSweepQueueTest, RaiseWhileTheProbeIsInFlightLandsInFinishClaimed) {
  SweepQueue q;
  q.Enqueue(0, 16, 1);
  const auto ranges = q.Claim();
  ASSERT_EQ(ranges.size(), 1u);
  // Two thieves race the in-flight probe: their raises accumulate on the claimed
  // entry and FinishClaimed re-enqueues the unprobed tail with both budget units.
  EXPECT_TRUE(q.RaiseClaimed(5));
  EXPECT_TRUE(q.RaiseClaimed(7));
  EXPECT_EQ(q.PendingRanges(), 0u) << "raises on an in-flight claim defer to finish";
  q.FinishClaimed(0, 16, /*resume=*/4, /*may_survive=*/true, /*batch=*/1);
  const auto repend = q.Claim();
  ASSERT_EQ(repend.size(), 1u);
  EXPECT_EQ(repend[0].first, 4u);
  EXPECT_EQ(repend[0].last, 16u);
  EXPECT_EQ(repend[0].expected, 2u);
  q.FinishClaimed(4, 16, 16, false, 2);
  // A raise that misses (every claimed entry settled and purged) reports false: the
  // erasing probe ran to completion, so there is nothing to compensate.
  q.PurgeFinishedUpTo(2);
  EXPECT_FALSE(q.RaiseClaimed(5));
}

// --- AddressSpace flusher battery -----------------------------------------------

struct SweepParam {
  VmVariant variant;
  unsigned stripes;
};

std::string SweepTestName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = VmVariantName(info.param.variant);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  if (info.param.stripes > 1) {
    name += "_s" + std::to_string(info.param.stripes);
  }
  return name;
}

class VmSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(VmSweepTest, DontNeedTrimsCoalesceIntoOneFlush) {
  AddressSpace as(GetParam().variant, GetParam().stripes);
  const uint64_t base = as.Mmap(8 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(base, 0u);
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(as.PageFault(base + p * kPage, true));
  }

  // Three abutting trims; the default threshold is far away, so all stay pending.
  ASSERT_TRUE(as.MadviseDontNeed(base, 2 * kPage));
  ASSERT_TRUE(as.MadviseDontNeed(base + 2 * kPage, 2 * kPage));
  ASSERT_TRUE(as.MadviseDontNeed(base + 4 * kPage, 4 * kPage));
  EXPECT_EQ(as.Stats().sweeps_queued.load(), 3u);
  EXPECT_EQ(as.Stats().sweeps_coalesced.load(), 2u) << "abutting trims must merge";
  EXPECT_EQ(as.PendingSweepPages(), 8u);
  EXPECT_EQ(as.PresentPagesInRange(base, 8 * kPage), 8u)
      << "the erase is deferred: pages stay installed until a flush";

  as.DrainSweeps();
  EXPECT_EQ(as.PendingSweepPages(), 0u);
  EXPECT_EQ(as.PresentPagesInRange(base, 8 * kPage), 0u);
  EXPECT_EQ(as.Stats().sweeps_swept_pages.load(), 8u)
      << "coalescing must not double-sweep merged pages";
  EXPECT_TRUE(as.CheckInvariants());
}

// Satellite mechanism pin: the dying VMA's present_hint travels with the queued range
// as an upper bound, so sweeping a sparsely-faulted region costs its installs, not its
// size — and a never-faulted region skips the sweep entirely.
TEST_P(VmSweepTest, SparseRegionSweepIsBoundedByThePresentHint) {
  AddressSpace as(GetParam().variant, GetParam().stripes);
  const uint64_t base = as.Mmap(256 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(base, 0u);
  // Fault only the front quarter — the arena shape the bound exists for.
  for (uint64_t p = 0; p < 64; ++p) {
    ASSERT_TRUE(as.PageFault(base + p * kPage, true));
  }
  ASSERT_TRUE(as.Munmap(base, 256 * kPage));
  EXPECT_EQ(as.PendingSweepPages(), 256u) << "the whole dead span is enqueued";
  as.DrainSweeps();
  EXPECT_EQ(as.PresentPagesInRange(base, 256 * kPage), 0u);
  EXPECT_EQ(as.Stats().sweeps_swept_pages.load(), 64u)
      << "swept pages counts ACTUAL erases: the hint bound (64) stops the probe";
  EXPECT_TRUE(as.CheckInvariants());

  // A region that never faulted a page skips the sweep machinery outright.
  const uint64_t cold = as.Mmap(16 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(cold, 0u);
  const uint64_t skipped_before = as.Stats().sweeps_skipped_empty.load();
  ASSERT_TRUE(as.Munmap(cold, 16 * kPage));
  EXPECT_EQ(as.Stats().sweeps_skipped_empty.load(), skipped_before + 1);
  EXPECT_EQ(as.PendingSweepPages(), 0u);
  EXPECT_TRUE(as.CheckInvariants());
}

TEST_P(VmSweepTest, DrainSweepsIsTheVisibilityEdgeForMunmap) {
  AddressSpace as(GetParam().variant, GetParam().stripes);
  const uint64_t base = as.Mmap(4 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(base, 0u);
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(as.PageFault(base + p * kPage, true));
  }

  ASSERT_TRUE(as.Munmap(base, 4 * kPage));
  // The unlink is synchronous — faults die immediately — but the page sweep is not.
  EXPECT_FALSE(as.PageFault(base, false));
  EXPECT_EQ(as.PendingSweepPages(), 4u);
  EXPECT_EQ(as.PresentPagesInRange(base, 4 * kPage), 4u);

  as.DrainSweeps();
  EXPECT_EQ(as.PendingSweepPages(), 0u);
  EXPECT_EQ(as.PresentPagesInRange(base, 4 * kPage), 0u);
  EXPECT_GE(as.Stats().sweeps_flushes.load(), 1u);
  EXPECT_TRUE(as.CheckInvariants());
}

TEST_P(VmSweepTest, WinningRefaultCancelsThePendingTrim) {
  AddressSpace as(GetParam().variant, GetParam().stripes);
  const uint64_t base = as.Mmap(4 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(base, 0u);
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(as.PageFault(base + p * kPage, true));
  }
  ASSERT_TRUE(as.MadviseDontNeed(base, 4 * kPage));
  EXPECT_EQ(as.PendingSweepPages(), 4u);

  // Re-fault page 1 while its erase is still pending: Linux's contract is that a
  // fault completing after the madvise call repopulates the page durably, so the
  // pending sweep must lose exactly that page and nothing else.
  ASSERT_TRUE(as.PageFault(base + kPage, true));
  EXPECT_EQ(as.PendingSweepPages(), 3u);

  as.DrainSweeps();
  EXPECT_EQ(as.PresentPagesInRange(base, kPage), 0u);
  EXPECT_EQ(as.PresentPagesInRange(base + kPage, kPage), 1u)
      << "the deferred trim erased a page re-faulted after the madvise call";
  EXPECT_EQ(as.PresentPagesInRange(base + 2 * kPage, 2 * kPage), 0u);
  EXPECT_TRUE(as.CheckInvariants());
}

TEST_P(VmSweepTest, FlusherVsFaultHammerOnTrimmedWindow) {
  AddressSpace as(GetParam().variant, GetParam().stripes);
  // Threshold 1: every trim flushes inline, so the flusher's RemoveRange runs
  // concurrently with the faulting thread's installs all the time.
  as.SetSweepFlushThreshold(1);
  const uint64_t base = as.Mmap(8 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(base, 0u);

  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};
  std::thread faulter([&] {
    uint64_t p = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (!as.PageFault(base + p * kPage, true)) {
        ok.store(false);  // the mapping never goes away: a fault must never fail
        return;
      }
      p = (p + 1) % 8;
    }
  });
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(as.MadviseDontNeed(base, 8 * kPage));
  }
  stop.store(true, std::memory_order_release);
  faulter.join();
  EXPECT_TRUE(ok.load());
  EXPECT_TRUE(as.CheckInvariants());

  // Quiesced, every page re-faults to a stable present state.
  as.DrainSweeps();
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(as.PageFault(base + p * kPage, true));
  }
  EXPECT_EQ(as.PresentPagesInRange(base, 8 * kPage), 8u);
  EXPECT_TRUE(as.CheckInvariants());
}

TEST_P(VmSweepTest, MunmapEndingExactlyOnStripeEdgeSparesTheNextWindow) {
  if (GetParam().stripes < 2) {
    GTEST_SKIP() << "needs at least two stripe windows";
  }
  AddressSpace as(GetParam().variant, GetParam().stripes);
  const uint64_t a = as.MmapInStripe(0, 4 * kPage, kProtRead | kProtWrite);
  const uint64_t b = as.MmapInStripe(1, 4 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(as.PageFault(a + p * kPage, true));
    ASSERT_TRUE(as.PageFault(b + p * kPage, true));
  }

  // Unmap from `a` to EXACTLY the end of stripe 0's window: the enqueued sweep's
  // exclusive end sits on the window edge, the canonical off-by-one trap. Stripe 1's
  // first mapping starts at most a page past the edge, so an inclusive-end sweep
  // would eat its first page.
  const uint64_t edge = VmaIndex::WindowEnd(0);
  ASSERT_TRUE(as.Munmap(a, edge - a));
  as.DrainSweeps();
  EXPECT_EQ(as.PresentPagesInRange(a, 4 * kPage), 0u);
  EXPECT_EQ(as.PresentPagesInRange(b, 4 * kPage), 4u)
      << "a sweep ending on the stripe edge leaked into the next window";
  EXPECT_TRUE(as.CheckInvariants());
}

TEST_P(VmSweepTest, CrossStripeMunmapSplitsTheSweepAtTheWindowEdge) {
  if (GetParam().stripes < 2) {
    GTEST_SKIP() << "needs at least two stripe windows";
  }
  AddressSpace as(GetParam().variant, GetParam().stripes);
  const uint64_t a = as.MmapInStripe(0, 4 * kPage, kProtRead | kProtWrite);
  const uint64_t b = as.MmapInStripe(1, 4 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(as.PageFault(a + p * kPage, true));
    ASSERT_TRUE(as.PageFault(b + p * kPage, true));
  }

  // One munmap spanning the edge: unmaps all of `a`, clips `b`'s first page. The
  // dead range must split into one piece per stripe queue (queue assignment is a
  // locality property, but the split is also what keeps each flush stripe-confined).
  const uint64_t queued_before = as.Stats().sweeps_queued.load();
  ASSERT_TRUE(as.Munmap(a, b + kPage - a));
  EXPECT_EQ(as.Stats().sweeps_queued.load() - queued_before, 2u)
      << "a cross-stripe dead range must enqueue one piece per stripe window";

  as.DrainSweeps();
  EXPECT_EQ(as.PresentPagesInRange(a, 4 * kPage), 0u);
  EXPECT_EQ(as.PresentPagesInRange(b, kPage), 0u) << "clipped head page survived";
  EXPECT_EQ(as.PresentPagesInRange(b + kPage, 3 * kPage), 3u)
      << "the sweep overran the clip point";
  EXPECT_TRUE(as.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VmSweepTest,
    ::testing::Values(SweepParam{VmVariant::kStock, 1},
                      SweepParam{VmVariant::kTreeFull, 1},
                      SweepParam{VmVariant::kListRefined, 1},
                      SweepParam{VmVariant::kTreeScoped, 1},
                      SweepParam{VmVariant::kListScoped, 1},
                      SweepParam{VmVariant::kListLfScoped, 1},
                      // Multi-stripe spaces: sweeps must stay window-confined.
                      SweepParam{VmVariant::kTreeScoped, 4},
                      SweepParam{VmVariant::kListScoped, 4},
                      SweepParam{VmVariant::kListLfScoped, 4}),
    SweepTestName);

}  // namespace
}  // namespace srl::vm
