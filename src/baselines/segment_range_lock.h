// Segment-based range lock in the style of pNOVA (Kim et al., APSys'19) following the
// design of Quinson & Vernier [33] — the paper's "pnova-rw" baseline (§2, §7.1).
//
// The whole addressable range is statically divided into a preset number of segments,
// each guarded by a reader-writer spin lock. Acquiring [start, end) acquires every
// covered segment's lock, in ascending order (which makes waits strictly "upward" and
// hence deadlock-free); releasing unlocks in descending order. Acquiring the full range
// therefore takes every segment lock — the expensive case the paper highlights.
//
// The granularity trade-off (too few segments → false contention; too many → expensive
// wide acquisitions) is exactly what `bench/abl_segments` quantifies.
#ifndef SRL_BASELINES_SEGMENT_RANGE_LOCK_H_
#define SRL_BASELINES_SEGMENT_RANGE_LOCK_H_

#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>

#include "src/core/range.h"
#include "src/core/range_lock.h"
#include "src/sync/cacheline.h"
#include "src/sync/deadline.h"
#include "src/sync/rw_spin_lock.h"

namespace srl {

class SegmentRangeLock {
 public:
  // Describes an acquisition; returned by Lock, consumed by Unlock.
  struct Handle {
    uint32_t first_seg = 0;
    uint32_t last_seg = 0;  // inclusive
    bool reader = false;
  };
  static constexpr bool kSharedReaders = true;

  // Covers addresses [0, universe_end) with `num_segments` equal segments. Addresses at
  // or beyond universe_end (e.g. Range::Full()'s tail) clamp to the last segment.
  SegmentRangeLock(uint64_t universe_end, uint32_t num_segments)
      : seg_size_((universe_end + num_segments - 1) / num_segments),
        num_segments_(num_segments),
        segments_(std::make_unique<CacheAligned<RwSpinLock>[]>(num_segments)) {
    assert(num_segments > 0 && universe_end >= num_segments);
  }

  SegmentRangeLock(const SegmentRangeLock&) = delete;
  SegmentRangeLock& operator=(const SegmentRangeLock&) = delete;

  Handle Lock(const Range& r, LockMode mode = LockMode::kWrite) {
    // lock_*_until(Infinite) never gives up, so the blocking acquisition is the
    // deadline walk with an inexhaustible deadline — one copy of the segment loop.
    Handle h;
    AcquireDeadline(r, mode == LockMode::kRead, Deadline::Infinite(), &h);
    return h;
  }

  // Non-blocking acquisition: try_locks each covered segment in ascending order; if any
  // segment is unavailable, the already-acquired prefix is released (in descending
  // order) and the whole acquisition fails. Because segments are coarser than ranges, a
  // failure does not prove a conflicting *range* is held — only a conflicting segment —
  // so disjoint ranges sharing a segment can fail against each other (the lock is not
  // precise; see kPrecise in the test presets, src/harness/lock_adapters.h).
  bool TryLock(const Range& r, Handle* out, LockMode mode = LockMode::kWrite) {
    return AcquireDeadline(r, mode == LockMode::kRead, Deadline::Immediate(), out);
  }

  // Timed acquisition: polls each segment until it is taken or the deadline expires;
  // expiry releases the prefix and fails. The deadline covers the whole range, not each
  // segment.
  bool LockFor(const Range& r, std::chrono::nanoseconds timeout, Handle* out,
               LockMode mode = LockMode::kWrite) {
    return AcquireDeadline(r, mode == LockMode::kRead, Deadline::After(timeout), out);
  }

  void Unlock(const Handle& h) {
    for (uint32_t i = h.last_seg + 1; i-- > h.first_seg;) {
      if (h.reader) {
        segments_[i].value.unlock_shared();
      } else {
        segments_[i].value.unlock();
      }
    }
  }

  uint32_t NumSegments() const { return num_segments_; }

 private:
  bool AcquireDeadline(const Range& r, bool reader, const Deadline& deadline,
                       Handle* out) {
    assert(r.Valid());
    Handle h;
    h.first_seg = SegmentOf(r.start);
    h.last_seg = SegmentOf(r.end - 1);
    h.reader = reader;
    for (uint32_t i = h.first_seg; i <= h.last_seg; ++i) {
      // The *_until forms keep RwSpinLock's admission policy (readers defer to queued
      // writers; a waiting writer registers), so timed acquisitions neither starve nor
      // get starved by the blocking ones — only the deadline differs.
      RwSpinLock& seg = segments_[i].value;
      if (reader ? seg.lock_shared_until(deadline) : seg.lock_until(deadline)) {
        continue;
      }
      // Unwind the prefix [first_seg, i) and fail.
      for (uint32_t j = i; j-- > h.first_seg;) {
        if (reader) {
          segments_[j].value.unlock_shared();
        } else {
          segments_[j].value.unlock();
        }
      }
      return false;
    }
    *out = h;
    return true;
  }

  uint32_t SegmentOf(uint64_t addr) const {
    const uint64_t seg = addr / seg_size_;
    return seg >= num_segments_ ? num_segments_ - 1 : static_cast<uint32_t>(seg);
  }

  uint64_t seg_size_;
  uint32_t num_segments_;
  std::unique_ptr<CacheAligned<RwSpinLock>[]> segments_;
};

static_assert(RangeLock<SegmentRangeLock>);

}  // namespace srl

#endif  // SRL_BASELINES_SEGMENT_RANGE_LOCK_H_
