// Deterministic battery for the deferred page-sweep subsystem (SweepQueue, the
// PageTable leaf walk it drives, and the AddressSpace flusher): range coalescing across
// enqueues, a range walk across leaf and stripe-window edges, install tickets across
// leaf recycling, the DrainSweeps visibility edge, the madvise/fault repopulation
// contract (a winning re-fault cancels the pending erase), the inclusive/exclusive
// page-range contract at stripe-shard edges, and a flusher-vs-fault hammer on a
// repeatedly trimmed window. The concurrent fault-vs-unmap ordering claims live in
// vm_fault_unmap_race_test; this file pins the sweep machinery itself, mostly
// single-threaded so every expectation is exact.
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/epoch/sweep_queue.h"
#include "src/vm/address_space.h"
#include "src/vm/page_table.h"
#include "tests/common/test_clock.h"

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

  // A range of one leaf: end exactly on the edge.
  pt.RemoveRange(edge - 4, edge);
  EXPECT_FALSE(pt.Present(edge - 1));
  EXPECT_TRUE(pt.Present(edge)) << "exclusive end erased the next window's first page";
  EXPECT_EQ(pt.CountRange(edge - 4, edge), 0u);
  EXPECT_EQ(pt.CountRange(edge, edge + 1), 1u);

  // A range wider than the resident leaves (the shard-map scan): the whole first
  // window, same exclusive edge.
  ASSERT_TRUE(pt.Install(edge - 1));
  pt.RemoveRange(base, edge);
  EXPECT_FALSE(pt.Present(edge - 1));
  EXPECT_TRUE(pt.Present(edge)) << "shard-group walk crossed the window edge";
}

// The leaf walk must visit every leaf its range overlaps and clip the first and last
// ones exactly. Five consecutive leaves on a stripe-window edge each hold their first
// and last page; ranges that start and end mid-leaf, exactly on leaf edges and on the
// window edge must leave exactly the pages outside them. A walk that skips the range's
// last leaf (or mis-clips an edge) leaves a dead page or erases a live one.
TEST(VmSweepQueueTest, RangeWalkThatSkipsALeafIsCaught) {
  constexpr uint64_t kLeaf = PageTable::kLeafPages;
  const uint64_t shift = VmaIndex::kStripeShift - 12;
  const uint64_t base = AddressSpace::kMmapBase / kPage;
  const uint64_t edge = base + (uint64_t{1} << shift);  // first page of window 1
  const uint64_t l0 = edge - 2 * kLeaf;                 // leaves l0 .. l0 + 5*kLeaf
  std::vector<uint64_t> pages;
  for (uint64_t l = 0; l < 5; ++l) {
    pages.push_back(l0 + l * kLeaf);
    pages.push_back(l0 + l * kLeaf + kLeaf - 1);
  }
  struct Case {
    uint64_t first;
    uint64_t last;
    const char* what;
  };
  const Case cases[] = {
      {l0 + 1, l0 + 3 * kLeaf - 1, "mid-leaf to mid-leaf"},
      {l0, l0 + 3 * kLeaf, "leaf edge to leaf edge"},
      {l0 + kLeaf - 1, l0 + 2 * kLeaf + 1, "last page of one leaf to first of the next"},
      {l0 + 1, edge, "mid-leaf to the window edge"},
      {edge, l0 + 5 * kLeaf - 1, "window edge to mid-leaf"},
      {edge - 1, edge + 1, "across the window edge"},
      {l0, l0 + 5 * kLeaf, "every leaf"},
      // Ranges spanning far more leaves than are resident scan the shard maps instead.
      {l0 + kLeaf + 1, edge + 200 * kLeaf, "mid-leaf to far past the last leaf"},
      {l0 - 200 * kLeaf, l0 + 4 * kLeaf, "far before the first leaf to a leaf edge"},
  };
  for (const Case& c : cases) {
    PageTable pt;
    pt.ConfigureStripes(shift, base, 4);
    for (const uint64_t p : pages) {
      ASSERT_TRUE(pt.Install(p));
    }
    std::size_t inside = 0;
    for (const uint64_t p : pages) {
      inside += p >= c.first && p < c.last ? 1 : 0;
    }
    EXPECT_EQ(pt.RemoveRange(c.first, c.last), inside) << c.what;
    EXPECT_EQ(pt.CountRange(c.first, c.last), 0u) << c.what;
    for (const uint64_t p : pages) {
      EXPECT_EQ(pt.Present(p), p < c.first || p >= c.last) << c.what << ", page " << p;
    }
    EXPECT_EQ(pt.Count(), pages.size() - inside) << c.what;
  }
}

// Install tickets come from the shard, not the leaf: once a leaf empties and is
// freed, the page's next install into a fresh leaf gets a new ticket, so a stale
// loser's RemoveExact on the old one cannot erase the winner's page. Tickets that
// restarted with each leaf would hand out the same ticket twice.
TEST(VmSweepQueueTest, InstallTicketsSurviveLeafRecycling) {
  PageTable pt;
  constexpr uint64_t kPageIndex = 5 * PageTable::kLeafPages + 7;
  uint64_t t1 = 0;
  ASSERT_TRUE(pt.Install(kPageIndex, &t1));
  ASSERT_NE(t1, 0u);
  EXPECT_EQ(pt.RemoveRange(kPageIndex - 7, kPageIndex - 7 + PageTable::kLeafPages), 1u)
      << "the sweep empties (and frees) the leaf";
  EXPECT_EQ(pt.Count(), 0u);
  uint64_t t2 = 0;
  ASSERT_TRUE(pt.Install(kPageIndex, &t2)) << "a re-install after the sweep is major";
  EXPECT_NE(t2, t1) << "a recycled leaf reissued the swept install's ticket";
  EXPECT_FALSE(pt.RemoveExact(kPageIndex, t1))
      << "a stale loser erased the winner's page";
  EXPECT_TRUE(pt.Present(kPageIndex));
  EXPECT_TRUE(pt.RemoveExact(kPageIndex, t2));
  EXPECT_FALSE(pt.Present(kPageIndex));
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
  std::atomic<uint64_t> faults{0};
  std::thread faulter([&] {
    uint64_t p = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (!as.PageFault(base + p * kPage, true)) {
        ok.store(false);  // the mapping never goes away: a fault must never fail
        return;
      }
      faults.fetch_add(1, std::memory_order_relaxed);
      p = (p + 1) % 8;
    }
  });
  // A hammer whose trims finish before the faulter starts races nothing. Trim only once
  // the faulter has completed a fault, and keep trimming until it has completed
  // kOverlapFaults more while the trims ran, so the flusher's leaf walks and frees
  // really meet its installs. The deadline only bounds a broken build.
  constexpr int kMinTrims = 2000;
  constexpr uint64_t kOverlapFaults = 20000;
  EXPECT_TRUE(testing::EventuallyTrue([&] { return faults.load() > 0 || !ok.load(); }));
  const uint64_t before = faults.load();
  const auto deadline = std::chrono::steady_clock::now() + testing::kEventuallyDeadline;
  bool trimmed = true;
  for (int i = 0; trimmed && ok.load() &&
                  (i < kMinTrims || faults.load() - before < kOverlapFaults) &&
                  std::chrono::steady_clock::now() < deadline;
       ++i) {
    trimmed = as.MadviseDontNeed(base, 8 * kPage);
  }
  const uint64_t overlap = faults.load() - before;
  stop.store(true, std::memory_order_release);
  faulter.join();
  EXPECT_TRUE(trimmed);
  EXPECT_TRUE(ok.load());
  EXPECT_GE(overlap, kOverlapFaults) << "the faults and the trims barely overlapped";
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

// A DONTNEED spanning a stripe edge enqueues one piece per covered stripe, and each
// piece's stripe must get its flush check: with threshold 1 no piece may stay queued.
TEST_P(VmSweepTest, CrossStripeMadviseFlushesEveryCoveredStripe) {
  if (GetParam().stripes < 2) {
    GTEST_SKIP() << "needs at least two stripe windows";
  }
  AddressSpace as(GetParam().variant, GetParam().stripes);
  as.SetSweepFlushThreshold(1);
  const uint64_t a = as.MmapInStripe(0, 4 * kPage, kProtRead | kProtWrite);
  const uint64_t b = as.MmapInStripe(1, 4 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(as.PageFault(a + p * kPage, true));
    ASSERT_TRUE(as.PageFault(b + p * kPage, true));
  }
  ASSERT_TRUE(as.MadviseDontNeed(a, b + 4 * kPage - a));
  EXPECT_EQ(as.PendingSweepPages(), 0u) << "a covered stripe's piece was never flushed";
  EXPECT_EQ(as.PresentPagesInRange(a, 4 * kPage), 0u);
  EXPECT_EQ(as.PresentPagesInRange(b, 4 * kPage), 0u)
      << "the madvise's stripe-1 pages survived its own flush";
  EXPECT_TRUE(as.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VmSweepTest,
    ::testing::Values(SweepParam{VmVariant::kStock, 1},
                      SweepParam{VmVariant::kTreeFull, 1},
                      SweepParam{VmVariant::kListRefined, 1},
                      SweepParam{VmVariant::kTreeScoped, 1},
                      SweepParam{VmVariant::kListScoped, 1},
                      // Multi-stripe spaces: sweeps must stay window-confined.
                      SweepParam{VmVariant::kTreeScoped, 4},
                      SweepParam{VmVariant::kListScoped, 4}),
    SweepTestName);

}  // namespace
}  // namespace srl::vm
