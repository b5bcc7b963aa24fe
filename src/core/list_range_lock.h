// Exclusive list-based range lock — the paper's core contribution (§4.1, Listing 1).
//
// The lock is one RangeList (range_list.h), which holds the algorithm: acquisition is a
// CAS insert into a sorted list, release is a mark-bit fetch_add, later traversals help
// unlink, and a waiter watches the conflicting node.
//
// Differences from the pseudo-code (README sections named in parentheses):
//   * the wait-for-overlap loop watches the conflicting node for a bounded number of
//     spins and then briefly leaves its epoch critical section and restarts from the
//     head, parking surplus waiters at an admission gate ("Admission control";
//     WatchForRelease in range_list.h);
//   * the fast path (§4.5) is integrated behind Options::enable_fast_path, and re-arms
//     once the list drains ("The bucketed lock-free list lock", re-arm rule);
//   * TryLock/LockFor abort before insertion ("Non-blocking and timed acquisition");
//   * LockBounded() exposes the failure counting that the fairness layer (§4.3,
//     fair_list_range_lock.h) needs.
#ifndef SRL_CORE_LIST_RANGE_LOCK_H_
#define SRL_CORE_LIST_RANGE_LOCK_H_

#include <cassert>
#include <chrono>

#include "src/core/lnode.h"
#include "src/core/range.h"
#include "src/core/range_list.h"
#include "src/core/range_lock.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/node_pool.h"
#include "src/sync/admission.h"
#include "src/sync/deadline.h"

namespace srl {

class ListRangeLock {
 public:
  struct Options {
    // §4.5: constant-step acquire/release when the list is empty.
    bool enable_fast_path = false;
  };

  // Opaque handle to an acquired range; returned by Lock, consumed by Unlock.
  using Handle = LNode*;
  static constexpr bool kSharedReaders = false;

  ListRangeLock() = default;
  explicit ListRangeLock(Options options) : options_(options) {}
  ListRangeLock(const ListRangeLock&) = delete;
  ListRangeLock& operator=(const ListRangeLock&) = delete;

  // Blocks until [range.start, range.end) is held exclusively. The returned handle must
  // be passed to Unlock() by the same logical owner (any thread may release it). The
  // lock is exclusive, so every mode takes the range as a write.
  Handle Lock(const Range& range, LockMode = LockMode::kWrite) {
    Handle h = nullptr;
    AcquireImpl(range, /*max_failures=*/-1, Deadline::Infinite(), &h);
    return h;
  }

  // Non-blocking acquisition (down_write_trylock semantics): fails the moment the range
  // would have to wait for an overlapping holder. Lost insertion CASes are retried —
  // they signal contention on the list structure, not a held conflicting range — so a
  // TryLock of a range that conflicts with nothing held always succeeds.
  bool TryLock(const Range& range, Handle* out, LockMode = LockMode::kWrite) {
    return AcquireImpl(range, /*max_failures=*/-1, Deadline::Immediate(), out);
  }

  // Timed acquisition: blocks like Lock() but gives up (returns false, no range held)
  // once `timeout` has elapsed. The waiter aborts before ever entering the list, so an
  // abandoned acquisition leaves no trace for other threads to clean up.
  bool LockFor(const Range& range, std::chrono::nanoseconds timeout, Handle* out,
               LockMode = LockMode::kWrite) {
    return AcquireImpl(range, /*max_failures=*/-1, Deadline::After(timeout), out);
  }

  // Bounded-patience variant for the fairness layer: gives up (returns false, no range
  // held) once the acquisition suffered more than `max_failures` lock-induced failures
  // (see FailureBudget).
  bool LockBounded(const Range& range, int max_failures, Handle* out,
                   LockMode = LockMode::kWrite) {
    return AcquireImpl(range, max_failures, Deadline::Infinite(), out);
  }

  // Releases an acquired range. Wait-free: one atomic fetch_add (plus a CAS attempt on
  // the fast path; with the fast path off the head is never read).
  void Unlock(Handle node) { list_.Release(node, options_.enable_fast_path); }

  // --- Test-only introspection (callers must guarantee quiescence) ---

  // Number of unmarked (held) nodes currently in the list.
  int DebugHeldCount() const { return list_.HeldCount(); }

  // Checks Invariant 1: consecutive held ranges satisfy r1.end <= r2.start.
  bool DebugInvariantHolds() const { return list_.InvariantHolds(); }

 private:
  bool AcquireImpl(const Range& range, int max_failures, const Deadline& deadline,
                   Handle* out) {
    assert(range.Valid() && "range locks require start < end");
    LNode* node = RangeList::NewNode(range, /*reader=*/false);
    if (options_.enable_fast_path && list_.TryFastAcquire(node)) {
      *out = node;
      return true;
    }
    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    // Caps how many slow-path contenders actively re-traverse at ~#cores once they
    // yield between watch rounds. Timed and immediate deadlines make it inert. The
    // slot, if held, releases when this frame returns.
    AdmissionSpinner gate_spinner(&gate_, deadline);
    FailureBudget budget{max_failures};
    EpochDomain::Enter(rec);
    const bool ok = list_.Insert<CompareExclusive>(node, options_.enable_fast_path, budget,
                                                   rec, deadline, gate_spinner);
    EpochDomain::Exit(rec);
    if (ok) {
      *out = node;
      return true;
    }
    NodePool<LNode>::Local().Recycle(node);  // never entered the list
    return false;
  }

  RangeList list_;
  Options options_;
  // Caps active contenders on the slow path (see AcquireImpl).
  AdmissionGate gate_;
};

static_assert(RangeLock<ListRangeLock>);

}  // namespace srl

#endif  // SRL_CORE_LIST_RANGE_LOCK_H_
