// Reader-writer list-based range lock (paper §4.2, Listings 2 and 3).
//
// Extends the exclusive algorithm: readers with overlapping ranges coexist (ordered by
// start address); any overlap involving a writer conflicts. Because an overlapping reader
// and writer may insert at *different* list positions (Figure 1), insertion alone cannot
// detect every conflict, so each insertion is followed by a validation pass:
//
//   * a reader scans forward from its own node until ranges no longer overlap; if it
//     meets a conflicting writer it waits for that writer to release;
//   * a writer re-scans from the head to its own node; if it meets any conflicting node
//     it deletes itself and the whole acquisition restarts with a fresh node.
//
// The insert-then-scan handshake on both sides is a store-buffering pattern; a seq_cst
// fence after the insertion CAS on each side makes it impossible for both parties to
// miss each other (free on x86, where the CAS is already a full fence).
//
// The insertion itself is range_list.h's Listing-1 loop driven with Listing 2's
// compare(); the validations below walk the same list. AcquireIn runs the whole
// protocol on a caller-supplied RangeList, so a lock that partitions its key space over
// several lists (the VM lock's per-stripe heads, src/vm/vm_lock.cpp) runs this one copy
// of Listings 2 and 3 in each list it covers.
#ifndef SRL_CORE_LIST_RW_RANGE_LOCK_H_
#define SRL_CORE_LIST_RW_RANGE_LOCK_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>

#include "src/core/lnode.h"
#include "src/core/range.h"
#include "src/core/range_list.h"
#include "src/core/range_lock.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/node_pool.h"
#include "src/sync/admission.h"
#include "src/sync/deadline.h"
#include "src/sync/fence.h"

namespace srl {

class ListRwRangeLock {
 public:
  struct Options {
    bool enable_fast_path = false;  // §4.5
  };

  using Handle = LNode*;
  static constexpr bool kSharedReaders = true;

  ListRwRangeLock() = default;
  explicit ListRwRangeLock(Options options) : options_(options) {}
  ListRwRangeLock(const ListRwRangeLock&) = delete;
  ListRwRangeLock& operator=(const ListRwRangeLock&) = delete;

  // Blocks until [range.start, range.end) is held in `mode`: shared for reads,
  // exclusive for writes.
  Handle Lock(const Range& range, LockMode mode = LockMode::kWrite) {
    Handle h = nullptr;
    AcquireImpl(range, mode, /*max_failures=*/-1, Deadline::Infinite(), &h);
    return h;
  }

  // Non-blocking acquisition (down_read_trylock / down_write_trylock semantics): fails
  // the moment the acquisition would have to wait for a conflicting holder, or — for a
  // writer — the moment its validation pass finds a conflicting node. A try acquisition
  // of a range conflicting with nothing held always succeeds; failure under a transient
  // in-flight conflict (e.g. a writer that is about to self-delete) is possible and
  // allowed, exactly as for the kernel's trylocks.
  bool TryLock(const Range& range, Handle* out, LockMode mode = LockMode::kWrite) {
    return AcquireImpl(range, mode, /*max_failures=*/-1, Deadline::Immediate(), out);
  }

  // Timed acquisition: blocks like Lock() but gives up once `timeout` has elapsed. A
  // waiter that aborts before insertion leaves no trace; a reader that aborts *inside*
  // its validation pass is already in the list and self-deletes (marks its own node) —
  // later traversals unlink and reclaim it like any released range.
  bool LockFor(const Range& range, std::chrono::nanoseconds timeout, Handle* out,
               LockMode mode = LockMode::kWrite) {
    return AcquireImpl(range, mode, /*max_failures=*/-1, Deadline::After(timeout), out);
  }

  // Bounded-patience variant for the fairness layer (§4.3). Failed writer validations
  // count as failures, as do lost CASes and forced restarts.
  bool LockBounded(const Range& range, int max_failures, Handle* out,
                   LockMode mode = LockMode::kWrite) {
    return AcquireImpl(range, mode, max_failures, Deadline::Infinite(), out);
  }

  // Releases a range acquired in either mode.
  void Unlock(Handle node) { list_.Release(node, options_.enable_fast_path); }

  // Listing 2's acquisition loop and Listing 3's validation on `list`. A caller that
  // acquires one range in several lists calls this once per list, in one global order,
  // with one `gate_spinner` and `budget` spanning the whole acquisition; a writer that
  // fails validation in one list retries in that list only. On success *out is the
  // node, to be released with list.Release(*out, fast_path). On failure nothing is held
  // in `list`: a node that failed validation is already marked there and the list owns
  // it. `rvalidate_aborts` (may be null) counts timed readers that self-deleted inside
  // RValidate.
  static bool AcquireIn(RangeList& list, const Range& range, LockMode mode,
                        bool fast_path, FailureBudget& budget, const Deadline& deadline,
                        AdmissionSpinner& gate_spinner, Handle* out,
                        std::atomic<uint64_t>* rvalidate_aborts = nullptr) {
    assert(range.Valid() && "range locks require start < end");
    const bool reader = mode == LockMode::kRead;
    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    // Writer validation failure restarts the whole acquisition with a fresh node
    // (Listing 2's do/while): the failed node is already marked inside the list and will
    // be unlinked by other traversals.
    for (;;) {
      LNode* node = RangeList::NewNode(range, reader);
      if (fast_path && list.TryFastAcquire(node)) {
        // The list was empty, so there is nothing to validate against; later arrivals
        // always see this node (it is the head) and defer to it as needed.
        *out = node;
        return true;
      }

      EpochDomain::Enter(rec);
      // rearm=false: a slow-path insertion into the empty list does NOT publish
      // marked-at-head. Reader and writer validation walk the list from the head
      // (WValidate unmarks the head word without a strip CAS), and a failed validation
      // marks the node in place, so the eager-recycle argument would not cover a
      // validating node. The VM lock that Metis runs on is this protocol; it stays on
      // the audited path.
      const bool inserted = list.Insert<CompareRw>(node, /*rearm=*/false, budget, rec,
                                                   deadline, gate_spinner);
      bool acquired = false;
      if (inserted) {
        // Paired with the same fence in the conflicting party's insertion (see the
        // file comment): both sides cannot miss each other's nodes.
        SeqCstFence();
        acquired = reader ? RValidate(node, rec, deadline, gate_spinner)
                          : WValidate(list, node);
      }
      EpochDomain::Exit(rec);
      if (!inserted) {
        NodePool<LNode>::Local().Recycle(node);  // never entered the list
        return false;
      }
      if (acquired) {
        *out = node;
        return true;
      }
      if (reader && rvalidate_aborts != nullptr) {
        rvalidate_aborts->fetch_add(1, std::memory_order_relaxed);
      }
      // Validation failed: the node is already marked in-list; other traversals unlink
      // it. A writer whose patience or deadline is exhausted stops here; a reader only
      // fails validation when its deadline expired mid-validation, so the Expired()
      // check below is what terminates it.
      //
      // Exactly-once pool return: this path must NOT Recycle — the self-deleted node is
      // still reachable from the list, and exactly one future traversal wins the
      // unlink CAS over it and Retires it. A Recycle here would be a double return (the
      // try-exactness fuzz's pool conservation check catches exactly that); conversely
      // the !inserted path above must Recycle, because a node that never entered the
      // list has no unlinker and would otherwise leak. The self-delete itself cannot
      // double-fire either: RValidate/WValidate mark the node at most once, on their
      // single return false path, and only the owner ever marks an unmarked node.
      if (budget.Charge() || deadline.Expired()) {
        return false;
      }
    }
  }

  // --- Test-only introspection (callers must guarantee quiescence) ---

  // Times a timed reader expired inside r_validate and self-deleted its enqueued node.
  // This branch is reachable only through the Figure-1 concurrent-insertion race, so
  // tests use the counter to confirm a raced scenario actually drove it.
  uint64_t DebugRValidateAborts() const {
    return rvalidate_aborts_.load(std::memory_order_relaxed);
  }

  int DebugHeldCount() const { return list_.HeldCount(); }

  // Invariant 2: held ranges sorted by start; a held writer never overlaps a successor.
  bool DebugInvariantHolds() const { return list_.InvariantHolds(); }

 private:
  // Listing 2's compare(): relationship of `cur` (in-list) to `node` (to insert).
  //  -1: keep traversing (cur precedes node, or reader-reader ordered by start).
  //   0: conflict involving a writer — wait for cur's release before inserting.
  //  +1: insertion point found (node goes before cur).
  static int CompareRw(const LNode* cur, const LNode* node) {
    const bool both_readers = cur->reader && node->reader;
    if (node->start >= cur->end) {
      return -1;
    }
    if (both_readers && node->start >= cur->start) {
      return -1;
    }
    if (cur->start >= node->end) {
      return 1;
    }
    if (both_readers && cur->start >= node->start) {
      return 1;
    }
    return 0;
  }

  bool AcquireImpl(const Range& range, LockMode mode, int max_failures,
                   const Deadline& deadline, Handle* out) {
    // Caps active contenders at ~#cores across the whole acquisition, all validation
    // restarts included. Timed and immediate deadlines make it inert.
    AdmissionSpinner gate_spinner(&gate_, deadline);
    FailureBudget budget{max_failures};
    return AcquireIn(list_, range, mode, options_.enable_fast_path, budget, deadline,
                     gate_spinner, out, &rvalidate_aborts_);
  }

  // Listing 3, r_validate: scan forward from our node; wait out any conflicting writer.
  // Under a blocking deadline this always succeeds (readers have priority over writers
  // in this scheme). Under an immediate or expired deadline the reader aborts instead of
  // waiting: it is already enqueued, so it self-deletes — marks its own node exactly
  // like a release would — and returns false; later traversals unlink and reclaim it.
  static bool RValidate(LNode* node, EpochDomain::ThreadRec* rec,
                        const Deadline& deadline, AdmissionSpinner& gate_spinner) {
    for (;;) {
      std::atomic<uintptr_t>* prev = &node->next;
      uintptr_t cur_word = Unmark(prev->load(std::memory_order_acquire));
      bool done = false;
      while (!done) {
        LNode* cur = ToNode(cur_word);
        // Precise half-open overlap test; every node past our position has
        // start >= node->start, so start < node->end is the full overlap condition.
        if (cur == nullptr || cur->start >= node->end) {
          return true;
        }
        const uintptr_t cur_next = cur->next.load(std::memory_order_acquire);
        if (IsMarked(cur_next)) {
          const uintptr_t succ = Unmark(cur_next);
          uintptr_t expected = cur_word;
          if (prev->compare_exchange_strong(expected, succ, std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
            NodePool<LNode>::Local().Retire(cur);
          }
          cur_word = succ;  // continue through the (possibly stale) chain — safe in a CS
          continue;
        }
        if (cur->reader) {
          prev = &cur->next;
          cur_word = Unmark(cur_next);
          continue;
        }
        // Conflicting writer: wait for it to release, then re-examine.
        switch (WatchForRelease(cur->next, rec, deadline, gate_spinner)) {
          case WatchResult::kReleased:
            break;
          case WatchResult::kRestart:
            done = true;  // cycled the epoch CS; restart the scan from our own node
            break;
          case WatchResult::kTimedOut:
            // Timed-reader self-delete under a lost race with a writer's validate: the
            // reader is enqueued but unwilling to wait the writer out, so it releases
            // its own node exactly as an Unlock would. Ownership of the node transfers
            // to the list here — the caller must not touch it again (no Recycle; see
            // the validation-failure comment in AcquireIn), and whichever concurrent
            // traversal — possibly that very writer's WValidate — wins the unlink CAS
            // Retires it exactly once.
            node->next.fetch_add(kMarkBit, std::memory_order_release);
            return false;
        }
      }
    }
  }

  // Listing 3, w_validate: re-scan from the head to our own node. On meeting any
  // conflicting node, self-delete and report failure.
  static bool WValidate(RangeList& list, LNode* node) {
    for (;;) {
      std::atomic<uintptr_t>* prev = &list.head();
      uintptr_t cur_word = Unmark(prev->load(std::memory_order_acquire));
      for (;;) {
        LNode* cur = ToNode(cur_word);
        if (cur == node) {
          return true;
        }
        if (cur == nullptr) {
          // Our node is always reachable from the head within one epoch critical
          // section (frozen next pointers never skip forward past live nodes); hitting
          // the end means a stale chain was followed mid-unlink — rescan.
          break;
        }
        const uintptr_t cur_next = cur->next.load(std::memory_order_acquire);
        if (IsMarked(cur_next)) {
          const uintptr_t succ = Unmark(cur_next);
          uintptr_t expected = cur_word;
          if (prev->compare_exchange_strong(expected, succ, std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
            NodePool<LNode>::Local().Retire(cur);
          }
          cur_word = succ;
          continue;
        }
        if (cur->end <= node->start) {
          prev = &cur->next;
          cur_word = Unmark(cur_next);
          continue;
        }
        // cur overlaps us (cur->start <= node->start < cur->end given list order, or we
        // raced with a same-start insert). Defer: delete ourselves and fail.
        node->next.fetch_add(kMarkBit, std::memory_order_release);
        return false;
      }
    }
  }

  RangeList list_;
  std::atomic<uint64_t> rvalidate_aborts_{0};  // see DebugRValidateAborts
  Options options_;
  // Caps active contenders on the slow path (see AcquireImpl).
  AdmissionGate gate_;
};

static_assert(RangeLock<ListRwRangeLock>);

}  // namespace srl

#endif  // SRL_CORE_LIST_RW_RANGE_LOCK_H_
