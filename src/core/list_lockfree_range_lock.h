// Lock-free bucketed range lock: CAS insertion + mark-bit deletion, no lock anywhere.
//
// This is the paper's exclusive list-based range lock (§4.1, Listing 1) with the
// remaining serialization point removed: instead of one shared list, the address space
// is cut into fixed-size windows (1 << Options::window_shift units each) and every
// window hashes to one of Options::buckets sorted lock lists. Disjoint ranges in
// different windows touch disjoint heads, so they contend on nothing at all — no head
// pointer, no cache line. Each bucket is one RangeList (range_list.h), which holds
// Listing 1, the conflict watch loop and the fast path's re-arm rule; release never
// takes a lock or traverses (the property this lock is named for).
//
// Multi-bucket acquisitions (a range whose windows hash to several buckets) insert one
// node per covered bucket in ascending bucket-index order and chain them through
// LNode::sibling. Ascending order makes the scheme deadlock-free: a thread blocked in
// bucket b already holds only buckets < b, so every wait chain strictly increases in
// bucket index and cannot cycle. Mutual exclusion holds because two overlapping ranges
// share at least one point, hence at least one window, hence at least one bucket where
// both insert overlapping nodes into the same sorted list — Listing 1's compare()==0
// conflict fires there. Ranges covering >= `buckets` windows short-circuit to *all*
// buckets; inserting into a superset of the covered buckets is conservative (it can
// only add conflicts, never hide one), and it bounds acquisition cost at `buckets`
// nodes regardless of range length.
//
// The §4.5 fast path runs per bucket, unconditionally — unlike the single-list lock,
// where one shared head makes it an optional whole-lock gamble — and re-arms once a
// bucket drains (rearm=true). Per-bucket heads make the fast path free rather than a
// contention hazard: the fast CAS touches the same cache line the slow insertion CAS
// would touch anyway, and on disjoint workloads each thread's bucket head is
// effectively private.
#ifndef SRL_CORE_LIST_LOCKFREE_RANGE_LOCK_H_
#define SRL_CORE_LIST_LOCKFREE_RANGE_LOCK_H_

#include <bit>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>

#include "src/core/lnode.h"
#include "src/core/range.h"
#include "src/core/range_list.h"
#include "src/core/range_lock.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/node_pool.h"
#include "src/sync/admission.h"
#include "src/sync/cacheline.h"
#include "src/sync/deadline.h"

namespace srl {

class ListLockFreeRangeLock {
 public:
  struct Options {
    // Number of hash-bucketed list heads. Clamped to a power of two in [1, 64] — 64 so
    // the covered-bucket set fits one uint64_t mask, power of two so the bucket hash is
    // a multiply-shift. 16 suits the unit-test universes; kv-cached's store uses 64.
    std::size_t buckets = 16;
    // log2 of the window size: addresses in the same window always share a bucket.
    // Pick it so a typical acquisition covers ~1 window; too small and short ranges
    // straddle windows (multi-node acquisitions), too large and distinct hot ranges
    // share windows (false bucket conflicts).
    int window_shift = 4;
  };

  // Head of the acquisition's sibling chain (one node per covered bucket, ascending
  // bucket order). Opaque to callers; consumed by Unlock.
  using Handle = LNode*;
  static constexpr bool kSharedReaders = false;

  ListLockFreeRangeLock() : ListLockFreeRangeLock(Options{}) {}
  explicit ListLockFreeRangeLock(Options options)
      : bucket_count_(ClampBuckets(options.buckets)),
        bucket_shift_(static_cast<int>(std::countr_zero(bucket_count_))),
        window_shift_(options.window_shift < 0    ? 0
                      : options.window_shift > 63 ? 63
                                                  : options.window_shift),
        all_mask_(bucket_count_ == 64 ? ~uint64_t{0}
                                      : (uint64_t{1} << bucket_count_) - 1),
        lists_(new CacheAligned<RangeList>[bucket_count_]) {}

  ListLockFreeRangeLock(const ListLockFreeRangeLock&) = delete;
  ListLockFreeRangeLock& operator=(const ListLockFreeRangeLock&) = delete;

  // Blocks until [range.start, range.end) is held exclusively. The returned handle must
  // be passed to Unlock() by the same logical owner (any thread may release it). The
  // lock is exclusive, so every mode takes the range as a write.
  Handle Lock(const Range& range, LockMode = LockMode::kWrite) {
    Handle h = nullptr;
    AcquireImpl(range, Deadline::Infinite(), &h);
    return h;
  }

  // Non-blocking acquisition: fails the moment the range would have to wait for an
  // overlapping holder in any covered bucket. Lost insertion CASes are retried — they
  // signal contention on a list's structure, not a held conflicting range — so a
  // TryLock of a range that conflicts with nothing held always succeeds.
  bool TryLock(const Range& range, Handle* out, LockMode = LockMode::kWrite) {
    return AcquireImpl(range, Deadline::Immediate(), out);
  }

  // Timed acquisition: blocks like Lock() but gives up (returns false, no range held)
  // once `timeout` has elapsed. Nodes already inserted into earlier buckets are marked
  // released on the way out, so an abandoned acquisition leaves only inert marked
  // residue for other traversals to collect.
  bool LockFor(const Range& range, std::chrono::nanoseconds timeout, Handle* out,
               LockMode = LockMode::kWrite) {
    return AcquireImpl(range, Deadline::After(timeout), out);
  }

  // Releases an acquired range. Wait-free and lock-free in the strongest sense: per
  // covered bucket, one fast-path CAS attempt (no loop) and at most one fetch_add —
  // no lock acquisition, no traversal, no retry.
  void Unlock(Handle handle) { ReleaseChain(handle); }

  std::size_t bucket_count() const { return bucket_count_; }
  int window_shift() const { return window_shift_; }

  // --- Test-only introspection (callers must guarantee quiescence) ---

  // Number of unmarked (held) nodes across all buckets. An acquisition covering k
  // buckets contributes k, so this counts nodes, not acquisitions.
  int DebugHeldCount() const {
    int n = 0;
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      n += lists_[b]->HeldCount();
    }
    return n;
  }

  // Checks Invariant 1 per bucket: consecutive held ranges satisfy r1.end <= r2.start.
  bool DebugInvariantHolds() const {
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      if (!lists_[b]->InvariantHolds()) {
        return false;
      }
    }
    return true;
  }

 private:
  static std::size_t ClampBuckets(std::size_t buckets) {
    if (buckets < 1) {
      return 1;
    }
    if (buckets > 64) {
      return 64;
    }
    return std::bit_ceil(buckets);
  }

  // Window index -> bucket index. Fibonacci multiplicative hashing rather than
  // `w & (buckets - 1)`: under identity hashing, windows a multiple of `buckets` apart
  // share a head, so ranges laid out at a power-of-two stride of `buckets` windows or
  // more (per-thread regions, large aligned allocations) would all collide on one
  // bucket. The multiply diffuses a window index's high bits into the selected bucket.
  std::size_t BucketOf(uint64_t window) const {
    if (bucket_count_ == 1) {
      return 0;
    }
    return static_cast<std::size_t>((window * uint64_t{0x9E3779B97F4A7C15}) >>
                                    (64 - bucket_shift_));
  }

  // Bit b set == the range has a node in bucket b. Ranges spanning >= bucket_count_
  // windows short-circuit to all buckets instead of walking a potentially huge window
  // span. That is a conservative superset — extra buckets can only add conflicts, never
  // hide one, since overlap detection only needs *some* shared bucket to hold both
  // ranges' nodes, and every precisely-covered bucket is in the superset.
  uint64_t CoveredMask(const Range& range) const {
    const uint64_t first = range.start >> window_shift_;
    const uint64_t last = (range.end - 1) >> window_shift_;
    if (last - first >= bucket_count_ - 1) {
      return all_mask_;
    }
    uint64_t mask = 0;
    for (uint64_t w = first; w <= last; ++w) {
      mask |= uint64_t{1} << BucketOf(w);
    }
    return mask;
  }

  // Releases every node of a sibling chain, in chain (= ascending bucket) order. The
  // chain's buckets are recomputed from the range (every node carries it), iterated in
  // lockstep with the chain: a partial chain from a timed/try failure is exactly the
  // first k bits of the mask. Each node gets its bucket's §4.5 release (eager recycle
  // if the head still holds it marked, else the mark). The sibling pointer is read
  // BEFORE that: the instant a node is marked, a concurrent traversal may unlink it,
  // retire it, and hand it to a new acquisition — ReleaseChain runs outside any epoch
  // critical section, so the node must not be touched after its own release.
  void ReleaseChain(LNode* node) {
    if (node == nullptr) {
      return;
    }
    uint64_t m = CoveredMask(Range{node->start, node->end});
    while (node != nullptr) {
      assert(m != 0 && "sibling chain longer than its covered-bucket mask");
      const std::size_t b = static_cast<std::size_t>(std::countr_zero(m));
      m &= m - 1;
      LNode* next = node->sibling;
      lists_[b]->Release(node, /*fast=*/true);
      node = next;
    }
  }

  bool AcquireImpl(const Range& range, const Deadline& deadline, Handle* out) {
    assert(range.Valid() && "range locks require start < end");
    const uint64_t mask = CoveredMask(range);
    // Concurrency restriction across the whole (possibly multi-bucket) acquisition.
    // The spinner's rotation on Pause() is load-bearing for deadlock freedom here: a
    // parked thread may hold nodes in buckets < b that active spinners in those
    // buckets wait on, and their own Pause() calls are what cycle it back into the
    // active set (see admission.h). Timed and immediate deadlines make it inert.
    AdmissionSpinner gate_spinner(&gate_, deadline);
    // The epoch critical section is entered lazily, only once some bucket takes the
    // slow path: fast-path buckets never dereference another thread's node, so an
    // acquisition whose every covered bucket is empty pays no epoch fence at all. A
    // slow-path insertion into an empty bucket re-arms (rearm=true), so the bucket's
    // next acquirer is back on this epoch-free path.
    FailureBudget unbounded;
    EpochDomain::ThreadRec* rec = nullptr;
    LNode* chain_head = nullptr;
    LNode* chain_tail = nullptr;
    for (uint64_t m = mask; m != 0; m &= m - 1) {
      RangeList& list = lists_[std::countr_zero(m)].value;
      LNode* node = RangeList::NewNode(range, /*reader=*/false);
      bool inserted = list.TryFastAcquire(node);
      if (!inserted) {
        if (rec == nullptr) {
          rec = CurrentThreadRec(EpochDomain::Global());
          EpochDomain::Enter(rec);
        }
        inserted = list.Insert<CompareExclusive>(node, /*rearm=*/true, unbounded, rec,
                                                 deadline, gate_spinner);
      }
      if (!inserted) {
        NodePool<LNode>::Local().Recycle(node);  // never entered a list
        EpochDomain::Exit(rec);                  // failure implies the slow path ran
        // Timed/try partial failure: the prefix inserted into buckets < b is released
        // exactly as a normal unlock would release it — fast nodes recycle, the rest
        // leave marked residue.
        ReleaseChain(chain_head);
        return false;
      }
      if (chain_tail != nullptr) {
        chain_tail->sibling = node;
      } else {
        chain_head = node;
      }
      chain_tail = node;
    }
    if (rec != nullptr) {
      EpochDomain::Exit(rec);
    }
    *out = chain_head;
    return true;
  }

  const std::size_t bucket_count_;
  const int bucket_shift_;   // log2(bucket_count_)
  const int window_shift_;
  const uint64_t all_mask_;  // low bucket_count_ bits set
  // One cache line per bucket head: disjoint buckets must not false-share.
  const std::unique_ptr<CacheAligned<RangeList>[]> lists_;
  // Caps active contenders on the slow path (see AcquireImpl).
  AdmissionGate gate_;
};

static_assert(RangeLock<ListLockFreeRangeLock>);

}  // namespace srl

#endif  // SRL_CORE_LIST_LOCKFREE_RANGE_LOCK_H_
