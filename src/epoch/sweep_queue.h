// Deferred page-sweep queue — the TLB-batching analogue for the simulated VM.
//
// A munmap (or MADV_DONTNEED) that must drop pages does not sweep the page table under
// its range acquisition: it enqueues the dead page range here and returns.
// An epoch-tick flusher (AddressSpace::MaybeFlushSweeps / DrainSweeps) later claims the
// accumulated ranges and sweeps the page table outside any range lock, so the length of
// a structural op's critical section stops growing with the size of the region it
// unmaps — the collapse shape the paper's motivation warns about on saturated locks.
//
// Like SharedRetireList, a SweepQueue is owned by one VMA-index stripe and protected by
// its own small spin lock; producers are the stripe's structural writers plus
// MADV_DONTNEED callers, consumers are whichever threads hit the flush threshold at an
// operation boundary. Unlike the retire list it holds plain page-index ranges, not
// pointers, so flushing needs no grace period of its own — the ordering that keeps the
// drain sound is the stripe seqcount fence (see README "Deferred page sweeps"):
//
//   * every enqueue happens after the structural seqcount bump that detached the range
//     (or, for DONTNEED, after the caller's read acquisition began), so a speculative
//     fault that validated successfully installed its page before the bump — and hence
//     before any flush of this range, which therefore erases it;
//   * a fault whose validation failed undoes its own install, EXCEPT when a still-
//     pending sweep covers the page: pending-at-check means the flusher's claim (and
//     thus its erase) is ordered after the check, and the check after the install, so
//     the sweep is guaranteed to drop the page — the undo may hand it off.
//
// Ranges are kept sorted, disjoint and non-adjacent: enqueueing coalesces overlapping
// and abutting dead ranges across calls, so a burst of page-at-a-time trims flushes as
// one wide RemoveRange instead of thousands of narrow ones.
//
// Claimed ranges stay queryable until they are provably settled. A bounded probe that
// stops at its expected budget can be robbed: a losing speculative fault's transient
// install (not counted in the dying VMAs' hints) soaks up a budget unit meant for a
// real dead page, which then survives beyond the probe's stop point with nothing left
// covering it — a permanent leak. So Claim() marks ranges in flight instead of
// forgetting them, FinishClaimed() retains any budget-exhausted range as a *tombstone*
// recording where its probe stopped, and the robbed loser (its ticket-exact RemoveExact
// found the page already gone) calls RaiseClaimed(), which re-enqueues the tombstone's
// unprobed tail with one unit of budget per theft. Tombstones whose grace period has
// passed (every fault in flight at finish time has exited, so every possible thief has
// already raised) are dropped by PurgeFinishedUpTo() — the owner tracks grace with an
// epoch GraceTicket and feeds the batch cutoff back here.
#ifndef SRL_EPOCH_SWEEP_QUEUE_H_
#define SRL_EPOCH_SWEEP_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "src/sync/spin_lock.h"

namespace srl {

class SweepQueue {
 public:
  // Page-index range [first, last) — exclusive end, matching PageTable::RemoveRange.
  // `expected` is an upper bound on the pages actually present in the range (from the
  // dying VMAs' present_hint sums): the flusher's probe loop stops once it has erased
  // that many, so sweeping a sparsely-faulted region costs its installs, not its size.
  // kUnbounded means "no usable bound" (DONTNEED trims, saturated hints).
  struct Range {
    uint64_t first;
    uint64_t last;
    uint64_t expected;
  };

  static constexpr uint64_t kUnbounded = UINT64_MAX;

  // Pending pages before MaybeFlushSweeps claims the queue. Tunable (SetFlushThreshold)
  // because the right value is load-dependent: the original constants in this layer
  // were picked on one core (see ROADMAP), so benches sweep it instead of trusting it.
  static constexpr uint64_t kDefaultFlushThresholdPages = 1024;

  SweepQueue() = default;
  SweepQueue(const SweepQueue&) = delete;
  SweepQueue& operator=(const SweepQueue&) = delete;

  // Merges [first, last) into the pending set. Overlapping ranges always coalesce;
  // merely ABUTTING ranges coalesce only when neither side carries a finite expected
  // bound. Two abutting bounded munmap regions stay separate on purpose: each region's
  // installs cluster inside it, so the flusher's bounded probe stops at that region's
  // last install — merging would let one region's probe run on into its neighbour's
  // dead tail before finding the neighbour's installs. The dense trim-burst case the
  // coalescing exists for (page-at-a-time DONTNEEDs) enqueues unbounded and still
  // collapses into one wide range. Returns the number of previously separate ranges
  // absorbed into the new one (0 = the range landed disjoint).
  std::size_t Enqueue(uint64_t first, uint64_t last, uint64_t expected = kUnbounded) {
    std::lock_guard<SpinLock> g(lock_);
    return EnqueueLocked(first, last, expected);
  }

 private:
  std::size_t EnqueueLocked(uint64_t first, uint64_t last, uint64_t expected) {
    if (first >= last) {
      return 0;
    }
    // First range that could interact: the last one starting at or before `last`.
    // Scan back from the insertion point for overlap/adjacency with predecessors.
    auto lo = std::lower_bound(
        ranges_.begin(), ranges_.end(), first,
        [](const Range& r, uint64_t v) { return r.last < v; });
    // lo is the first range with r.last >= first (candidate for merging on the left).
    auto hi = lo;
    uint64_t merged_first = first;
    uint64_t merged_last = last;
    uint64_t merged_expected = expected;
    uint64_t absorbed_pages = 0;
    std::size_t absorbed = 0;
    while (hi != ranges_.end() && hi->first <= last) {
      const bool abutting_only = hi->first == last || hi->last == first;
      if (abutting_only &&
          (expected != kUnbounded || hi->expected != kUnbounded)) {
        if (hi->first == last) {
          break;  // right neighbour merely abuts a bounded range: keep separate
        }
        ++hi;     // left neighbour merely abuts: skip it, keep scanning
        continue;
      }
      merged_first = std::min(merged_first, hi->first);
      merged_last = std::max(merged_last, hi->last);
      merged_expected = SatAdd(merged_expected, hi->expected);
      absorbed_pages += hi->last - hi->first;
      ++absorbed;
      ++hi;
    }
    if (absorbed == 0) {
      // May land between the skipped abutting neighbours: insert before `hi`.
      ranges_.insert(hi, Range{first, last, expected});
    } else {
      // Absorbed ranges are contiguous ending at hi: rebuild in place at hi-1 and
      // erase the rest (a skipped left-abutting neighbour may sit before them).
      auto dst = hi - 1;
      dst->first = merged_first;
      dst->last = merged_last;
      dst->expected = merged_expected;
      ranges_.erase(dst - (absorbed - 1), dst);
    }
    if (merged_first < bounds_lo_.load(std::memory_order_relaxed)) {
      bounds_lo_.store(merged_first, std::memory_order_relaxed);
    }
    if (merged_last > bounds_hi_.load(std::memory_order_relaxed)) {
      bounds_hi_.store(merged_last, std::memory_order_relaxed);
    }
    pending_pages_.fetch_add(merged_last - merged_first - absorbed_pages,
                             std::memory_order_relaxed);
    return absorbed;
  }

 public:
  // Lock-free pre-check: false means no pending or claimed range can cover `page`
  // from the caller's vantage point, so the cover/cancel queries below may skip the
  // lock. The bounds only widen while ranges are pending or claimed (they reset only
  // once both sets are empty), and every Enqueue publishes its widened bounds before
  // returning — so any DONTNEED that returned before the caller started observes
  // bounds that include its range. A *racing* enqueue may be missed, which is an
  // allowed outcome of that race (equivalent to the fault ordering ahead of the
  // madvise); the losing-fault undo tolerates a miss too, since RemoveExact on its
  // own ticket is always safe.
  bool MayCover(uint64_t page) const {
    return page >= bounds_lo_.load(std::memory_order_relaxed) &&
           page < bounds_hi_.load(std::memory_order_relaxed);
  }

  // True if a still-pending (unclaimed) range covers `page`, or a claimed one does —
  // in flight (its probe may yet erase the page) or a tombstone (the page may be a
  // survivor awaiting its compensation re-probe). Either way the page is dead-but-not-
  // yet-swept, which the drain-barrier contract allows; the invariant checker uses
  // this as its orphan-page tolerance.
  bool CoversPending(uint64_t page) const {
    if (!MayCover(page)) {
      return false;
    }
    std::lock_guard<SpinLock> g(lock_);
    auto it = std::upper_bound(
        ranges_.begin(), ranges_.end(), page,
        [](uint64_t v, const Range& r) { return v < r.first; });
    if (it != ranges_.begin() && page < (it - 1)->last) {
      return true;
    }
    for (const Claimed& c : claimed_) {
      if (c.first <= page && page < c.last) {
        return true;
      }
    }
    return false;
  }

  // Punches `page` out of any still-pending range (splitting it if interior). A fault
  // that finds or installs a present page calls this so a sweep enqueued by an earlier
  // MADV_DONTNEED cannot erase a page the address space re-validated as present after
  // the call — the deferred analogue of Linux's madvise/fault repopulation contract.
  // Returns true if a pending range covered the page. An already-claimed sweep is out
  // of reach (the inherent madvise-vs-concurrent-fault race); single-threaded
  // DONTNEED → re-fault → drain sequences are exact.
  bool CancelPending(uint64_t page) {
    if (!MayCover(page)) {
      return false;
    }
    std::lock_guard<SpinLock> g(lock_);
    auto it = std::upper_bound(
        ranges_.begin(), ranges_.end(), page,
        [](uint64_t v, const Range& r) { return v < r.first; });
    if (it == ranges_.begin() || page >= (it - 1)->last) {
      return false;
    }
    --it;
    if (it->first == page) {
      if (++it->first == it->last) {
        ranges_.erase(it);
      }
    } else if (it->last == page + 1) {
      --it->last;
    } else {
      // Interior split: both halves keep the full expected bound — it stays an upper
      // bound for each (which half held the cancelled page's neighbours is unknown).
      const uint64_t tail_last = it->last;
      it->last = page;
      ranges_.insert(it + 1, Range{page + 1, tail_last, it->expected});
    }
    pending_pages_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  // Losing-fault undo hand-off (see the header ordering argument): if a still-pending
  // range covers `page`, the flusher's later claim is ordered after the caller's
  // install and is guaranteed to erase it — and the range's expected bound is raised
  // by one, so the bounded probe cannot stop before reaching that extra install.
  // Returns false when nothing pending covers the page: the caller undoes its own
  // install itself (RemoveExact on its own ticket, which is always safe).
  bool DeferUndoToPending(uint64_t page) {
    if (!MayCover(page)) {
      return false;
    }
    std::lock_guard<SpinLock> g(lock_);
    auto it = std::upper_bound(
        ranges_.begin(), ranges_.end(), page,
        [](uint64_t v, const Range& r) { return v < r.first; });
    if (it == ranges_.begin() || page >= (it - 1)->last) {
      return false;
    }
    --it;
    it->expected = SatAdd(it->expected, 1);
    return true;
  }

  // Claims everything pending: the caller owns the returned ranges, must sweep them,
  // and must report each probe's outcome back via FinishClaimed. Claimed ranges stay
  // queryable (CoversPending / RaiseClaimed) until finished-and-purged, so a robbed
  // loser always finds a compensation target. Called holding no locks or ranges.
  std::vector<Range> Claim() {
    std::vector<Range> out;
    std::lock_guard<SpinLock> g(lock_);
    out.swap(ranges_);
    for (const Range& r : out) {
      claimed_.push_back(Claimed{r.first, r.last, /*resume=*/r.first, /*extra=*/0,
                                 /*batch=*/0, /*in_flight=*/true});
    }
    pending_pages_.store(0, std::memory_order_relaxed);
    return out;
  }

  // Reports the probe outcome for a range returned by Claim. `resume` is where the
  // probe stopped (== last when it walked the whole range; survivors can only live in
  // [resume, last)); `may_survive` is true when the probe exhausted a finite budget
  // before reaching `last` — the only case a stolen budget unit can leave a dead page
  // behind. Raises that arrived while the probe ran (RaiseClaimed on the in-flight
  // entry) are re-enqueued as a pending bounded range over the unprobed tail, one
  // budget unit each. A may_survive range is retained as a tombstone stamped with
  // `batch` so later thieves still find it; anything else is settled and dropped.
  void FinishClaimed(uint64_t first, uint64_t last, uint64_t resume, bool may_survive,
                     uint64_t batch) {
    std::lock_guard<SpinLock> g(lock_);
    for (auto it = claimed_.begin(); it != claimed_.end(); ++it) {
      if (!it->in_flight || it->first != first || it->last != last) {
        continue;
      }
      const uint64_t raised = it->extra;
      if (raised != 0) {
        EnqueueLocked(resume, last, raised);
      }
      if (may_survive) {
        it->resume = resume;
        it->extra = 0;
        it->batch = batch;
        it->in_flight = false;
      } else {
        claimed_.erase(it);
        MaybeResetBoundsLocked();
      }
      return;
    }
  }

  // Theft compensation (losing-fault undo whose ticket-exact RemoveExact found the
  // page already erased): some claimed probe swept the caller's transient install. If
  // that probe was budget-bounded, the unit it spent on the install was meant for a
  // real dead page now possibly stranded past the probe's stop point. Raises every
  // claimed entry covering `page`: an in-flight probe accumulates the raise for its
  // FinishClaimed, a tombstone re-enqueues its unprobed tail immediately. Raising an
  // entry whose probe in fact completed only loosens an upper bound (the re-probe
  // finds nothing), so over-matching on overlap is safe. Returns false when no
  // claimed entry covers the page — only possible when the erasing probe ran to
  // completion (unbounded or under budget), which leaves no survivors: a miss needs
  // no compensation.
  bool RaiseClaimed(uint64_t page) {
    if (!MayCover(page)) {
      return false;
    }
    std::lock_guard<SpinLock> g(lock_);
    bool any = false;
    for (Claimed& c : claimed_) {
      if (c.first > page || page >= c.last) {
        continue;
      }
      any = true;
      if (c.in_flight) {
        c.extra = SatAdd(c.extra, 1);
      } else {
        EnqueueLocked(c.resume, c.last, 1);
      }
    }
    return any;
  }

  // Drops settled tombstones with batch <= `batch_hi`. Only safe once every fault in
  // flight when those batches finished has exited (an epoch barrier or an elapsed
  // GraceTicket): after that, every thief the batch could have robbed has already
  // raised, so the tombstone guards nothing.
  void PurgeFinishedUpTo(uint64_t batch_hi) {
    std::lock_guard<SpinLock> g(lock_);
    for (auto it = claimed_.begin(); it != claimed_.end();) {
      if (!it->in_flight && it->batch <= batch_hi) {
        it = claimed_.erase(it);
      } else {
        ++it;
      }
    }
    MaybeResetBoundsLocked();
  }

  // Highest batch stamp among settled tombstones (0 when none): the purge cutoff a
  // flusher snapshots before arming its grace ticket.
  uint64_t NewestFinishedBatch() const {
    std::lock_guard<SpinLock> g(lock_);
    uint64_t hi = 0;
    for (const Claimed& c : claimed_) {
      if (!c.in_flight && c.batch > hi) {
        hi = c.batch;
      }
    }
    return hi;
  }

  std::size_t ClaimedEntries() const {
    std::lock_guard<SpinLock> g(lock_);
    return claimed_.size();
  }

  // Racy fast-path gate for MaybeFlushSweeps: one relaxed load, no lock.
  uint64_t PendingPages() const {
    return pending_pages_.load(std::memory_order_relaxed);
  }
  bool NeedsFlush() const {
    return PendingPages() >= flush_threshold_pages_.load(std::memory_order_relaxed);
  }
  void SetFlushThreshold(uint64_t pages) {
    flush_threshold_pages_.store(pages == 0 ? 1 : pages, std::memory_order_relaxed);
  }
  uint64_t FlushThreshold() const {
    return flush_threshold_pages_.load(std::memory_order_relaxed);
  }

  std::size_t PendingRanges() const {
    std::lock_guard<SpinLock> g(lock_);
    return ranges_.size();
  }

  // a + b, saturating at kUnbounded (so any unbounded contribution stays unbounded).
  static uint64_t SatAdd(uint64_t a, uint64_t b) {
    return a > kUnbounded - b ? kUnbounded : a + b;
  }

 private:
  // A range handed out by Claim: in flight while its probe runs, then either settled
  // away or retained as a tombstone ([resume, last) unprobed) until purged.
  struct Claimed {
    uint64_t first;
    uint64_t last;
    uint64_t resume;
    uint64_t extra;
    uint64_t batch;
    bool in_flight;
  };

  // Bounds may reset only once nothing pending or claimed could be covered by them.
  void MaybeResetBoundsLocked() {
    if (ranges_.empty() && claimed_.empty()) {
      bounds_lo_.store(UINT64_MAX, std::memory_order_relaxed);
      bounds_hi_.store(0, std::memory_order_relaxed);
    }
  }

  mutable SpinLock lock_;
  // Sorted by `first`; pairwise disjoint and non-abutting (Enqueue coalesces).
  std::vector<Range> ranges_;
  // Unsorted, small: ranges between Claim and settlement (see Claimed).
  std::vector<Claimed> claimed_;
  // Conservative [lo, hi) page-index envelope of everything pending or claimed; see
  // MayCover. CancelPending leaves them stale-wide on purpose — they tighten only
  // when both sets drain empty.
  std::atomic<uint64_t> bounds_lo_{UINT64_MAX};
  std::atomic<uint64_t> bounds_hi_{0};
  std::atomic<uint64_t> pending_pages_{0};
  std::atomic<uint64_t> flush_threshold_pages_{kDefaultFlushThresholdPages};
};

}  // namespace srl

#endif  // SRL_EPOCH_SWEEP_QUEUE_H_
