// Deferred page-sweep queue — the TLB-batching analogue for the simulated VM.
//
// A munmap (or MADV_DONTNEED) that must drop pages does not sweep the page table under
// its range acquisition: it enqueues the dead page range here and returns.
// An epoch-tick flusher (AddressSpace::MaybeFlushSweeps / DrainSweeps) later claims the
// accumulated ranges and sweeps the page table outside any range lock, so the length of
// a structural op's critical section stops growing with the size of the region it
// unmaps — the collapse shape the paper's motivation warns about on saturated locks.
//
// Like the stripe's RetireList, a SweepQueue is owned by one VMA-index stripe and
// protected by its own small spin lock; producers are the stripe's structural writers
// plus MADV_DONTNEED callers, consumers are whichever threads hit the flush threshold
// at an operation boundary. Unlike the retire list it holds plain page-index ranges, not
// pointers, so flushing needs no grace period of its own — the ordering that keeps the
// drain sound is the stripe seqcount fence (see README "Deferred page sweeps"): every
// enqueue happens after the structural seqcount bump that detached the range (or, for
// DONTNEED, after the caller's read acquisition began), so a speculative fault that
// validated successfully installed its page before the bump — and hence before any
// flush of this range, whose full walk of the range's page-table leaves erases it. A
// fault whose validation failed undoes its own install by ticket (RemoveExact).
//
// Ranges are kept sorted, disjoint and non-adjacent: enqueueing coalesces overlapping
// and abutting dead ranges across calls, so a burst of page-at-a-time trims flushes as
// one RemoveRange instead of thousands of narrow ones. A claimed range stays queryable
// (CoversPending) only while its walk runs: Claim() records it in flight and
// FinishClaimed() forgets it once the walk is done.
#ifndef SRL_EPOCH_SWEEP_QUEUE_H_
#define SRL_EPOCH_SWEEP_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/sync/spin_lock.h"

namespace srl {

class SweepQueue {
 public:
  // Page-index range [first, last) — exclusive end, matching PageTable::RemoveRange.
  struct Range {
    uint64_t first;
    uint64_t last;
  };

  // Pending pages before MaybeFlushSweeps claims the queue. Tunable (SetFlushThreshold)
  // because the right value is load-dependent: the original constants in this layer
  // were picked on one core (see ROADMAP), so benches sweep it instead of trusting it.
  static constexpr uint64_t kDefaultFlushThresholdPages = 1024;

  SweepQueue() = default;
  SweepQueue(const SweepQueue&) = delete;
  SweepQueue& operator=(const SweepQueue&) = delete;

  // Merges [first, last) into the pending set, coalescing with every overlapping or
  // abutting range. Returns the number of previously separate ranges absorbed into
  // the new one (0 = the range landed disjoint).
  std::size_t Enqueue(uint64_t first, uint64_t last) {
    if (first >= last) {
      return 0;
    }
    std::lock_guard<SpinLock> g(lock_);
    // The first range that could merge on the left: r.last >= first.
    auto lo = std::lower_bound(ranges_.begin(), ranges_.end(), first,
                               [](const Range& r, uint64_t v) { return r.last < v; });
    auto hi = lo;
    uint64_t merged_first = first;
    uint64_t merged_last = last;
    uint64_t absorbed_pages = 0;
    while (hi != ranges_.end() && hi->first <= last) {
      merged_first = std::min(merged_first, hi->first);
      merged_last = std::max(merged_last, hi->last);
      absorbed_pages += hi->last - hi->first;
      ++hi;
    }
    const std::size_t absorbed = static_cast<std::size_t>(hi - lo);
    if (absorbed == 0) {
      ranges_.insert(lo, Range{first, last});
    } else {
      *lo = Range{merged_first, merged_last};
      ranges_.erase(lo + 1, hi);
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

  // Lock-free pre-check: false means no pending or claimed range can cover `page`
  // from the caller's vantage point, so the cover/cancel queries below may skip the
  // lock. The bounds only widen while ranges are pending or claimed (they reset only
  // once both sets are empty), and every Enqueue publishes its widened bounds before
  // returning — so any DONTNEED that returned before the caller started observes
  // bounds that include its range. A *racing* enqueue may be missed, which is an
  // allowed outcome of that race (equivalent to the fault ordering ahead of the
  // madvise).
  bool MayCover(uint64_t page) const {
    return page >= bounds_lo_.load(std::memory_order_relaxed) &&
           page < bounds_hi_.load(std::memory_order_relaxed);
  }

  // True if a still-pending range covers `page`, or a claimed one whose walk is still
  // running. Either way the page is dead-but-not-yet-swept, which the drain-barrier
  // contract allows; the invariant checker uses this as its orphan-page tolerance.
  bool CoversPending(uint64_t page) const {
    if (!MayCover(page)) {
      return false;
    }
    std::lock_guard<SpinLock> g(lock_);
    auto it = std::upper_bound(ranges_.begin(), ranges_.end(), page,
                               [](uint64_t v, const Range& r) { return v < r.first; });
    if (it != ranges_.begin() && page < (it - 1)->last) {
      return true;
    }
    return std::any_of(claimed_.begin(), claimed_.end(), [&](const Range& r) {
      return r.first <= page && page < r.last;
    });
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
    auto it = std::upper_bound(ranges_.begin(), ranges_.end(), page,
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
      const uint64_t tail_last = it->last;
      it->last = page;
      ranges_.insert(it + 1, Range{page + 1, tail_last});
    }
    pending_pages_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  // Claims everything pending: the caller owns the returned ranges, must walk each one
  // and then report it with FinishClaimed. Until then it stays covered (CoversPending).
  // Called holding no locks or ranges.
  std::vector<Range> Claim() {
    std::vector<Range> out;
    std::lock_guard<SpinLock> g(lock_);
    out.swap(ranges_);
    claimed_.insert(claimed_.end(), out.begin(), out.end());
    pending_pages_.store(0, std::memory_order_relaxed);
    return out;
  }

  // The walk of a claimed range is done: it stops covering its pages.
  void FinishClaimed(const Range& r) {
    std::lock_guard<SpinLock> g(lock_);
    const auto it = std::find_if(claimed_.begin(), claimed_.end(), [&](const Range& c) {
      return c.first == r.first && c.last == r.last;
    });
    if (it != claimed_.end()) {
      claimed_.erase(it);
    }
    if (ranges_.empty() && claimed_.empty()) {
      // Nothing left that the bounds must cover: tighten them for MayCover.
      bounds_lo_.store(UINT64_MAX, std::memory_order_relaxed);
      bounds_hi_.store(0, std::memory_order_relaxed);
    }
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

 private:
  mutable SpinLock lock_;
  // Sorted by `first`; pairwise disjoint and non-abutting (Enqueue coalesces).
  std::vector<Range> ranges_;
  // Unsorted, small: ranges between Claim and FinishClaimed.
  std::vector<Range> claimed_;
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
