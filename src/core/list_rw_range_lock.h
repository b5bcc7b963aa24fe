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
// compare(); the validations below walk the same list.
#ifndef SRL_CORE_LIST_RW_RANGE_LOCK_H_
#define SRL_CORE_LIST_RW_RANGE_LOCK_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>

#include "src/core/lnode.h"
#include "src/core/range.h"
#include "src/core/range_list.h"
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

  ListRwRangeLock() = default;
  explicit ListRwRangeLock(Options options) : options_(options) {}
  ListRwRangeLock(const ListRwRangeLock&) = delete;
  ListRwRangeLock& operator=(const ListRwRangeLock&) = delete;

  // Blocks until [range.start, range.end) is held in shared (read) mode.
  Handle LockRead(const Range& range) {
    Handle h = nullptr;
    AcquireImpl(range, /*reader=*/true, /*max_failures=*/-1, Deadline::Infinite(), &h);
    return h;
  }

  // Blocks until [range.start, range.end) is held in exclusive (write) mode.
  Handle LockWrite(const Range& range) {
    Handle h = nullptr;
    AcquireImpl(range, /*reader=*/false, /*max_failures=*/-1, Deadline::Infinite(), &h);
    return h;
  }

  // Non-blocking acquisitions (down_read_trylock / down_write_trylock semantics): fail
  // the moment the acquisition would have to wait for a conflicting holder, or — for a
  // writer — the moment its validation pass finds a conflicting node. A try acquisition
  // of a range conflicting with nothing held always succeeds; failure under a transient
  // in-flight conflict (e.g. a writer that is about to self-delete) is possible and
  // allowed, exactly as for the kernel's trylocks.
  bool TryLockRead(const Range& range, Handle* out) {
    return AcquireImpl(range, /*reader=*/true, /*max_failures=*/-1,
                       Deadline::Immediate(), out);
  }
  bool TryLockWrite(const Range& range, Handle* out) {
    return AcquireImpl(range, /*reader=*/false, /*max_failures=*/-1,
                       Deadline::Immediate(), out);
  }

  // Timed acquisitions: block like LockRead/LockWrite but give up once `timeout` has
  // elapsed. A waiter that aborts before insertion leaves no trace; a reader that
  // aborts *inside* its validation pass is already in the list and self-deletes (marks
  // its own node) — later traversals unlink and reclaim it like any released range.
  bool LockReadFor(const Range& range, std::chrono::nanoseconds timeout, Handle* out) {
    return AcquireImpl(range, /*reader=*/true, /*max_failures=*/-1,
                       Deadline::After(timeout), out);
  }
  bool LockWriteFor(const Range& range, std::chrono::nanoseconds timeout, Handle* out) {
    return AcquireImpl(range, /*reader=*/false, /*max_failures=*/-1,
                       Deadline::After(timeout), out);
  }

  // Bounded-patience variants for the fairness layer (§4.3). Failed writer validations
  // count as failures, as do lost CASes and forced restarts.
  bool LockReadBounded(const Range& range, int max_failures, Handle* out) {
    return AcquireImpl(range, /*reader=*/true, max_failures, Deadline::Infinite(), out);
  }
  bool LockWriteBounded(const Range& range, int max_failures, Handle* out) {
    return AcquireImpl(range, /*reader=*/false, max_failures, Deadline::Infinite(), out);
  }

  // Releases a range acquired in either mode.
  void Unlock(Handle node) { list_.Release(node, options_.enable_fast_path); }

  class ReadGuard {
   public:
    ReadGuard(ListRwRangeLock& lock, const Range& range)
        : lock_(lock), h_(lock.LockRead(range)) {}
    ~ReadGuard() { lock_.Unlock(h_); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    ListRwRangeLock& lock_;
    Handle h_;
  };

  class WriteGuard {
   public:
    WriteGuard(ListRwRangeLock& lock, const Range& range)
        : lock_(lock), h_(lock.LockWrite(range)) {}
    ~WriteGuard() { lock_.Unlock(h_); }
    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

   private:
    ListRwRangeLock& lock_;
    Handle h_;
  };

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

  bool AcquireImpl(const Range& range, bool reader, int max_failures,
                   const Deadline& deadline, Handle* out) {
    assert(range.Valid() && "range locks require start < end");
    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    // Caps active contenders at ~#cores across the whole acquisition, all validation
    // restarts included. Timed and immediate deadlines make it inert.
    AdmissionSpinner gate_spinner(&gate_, deadline);
    FailureBudget budget{max_failures};
    // Writer validation failure restarts the whole acquisition with a fresh node
    // (Listing 2's do/while): the failed node is already marked inside the list and will
    // be unlinked by other traversals.
    for (;;) {
      LNode* node = RangeList::NewNode(range, reader);
      if (options_.enable_fast_path && list_.TryFastAcquire(node)) {
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
      // validating node. The VM lock that Metis runs on is this class; it stays on
      // the audited protocol.
      const bool inserted = list_.Insert<CompareRw>(node, /*rearm=*/false, budget, rec,
                                                    deadline, gate_spinner);
      bool acquired = false;
      if (inserted) {
        // Paired with the same fence in the conflicting party's insertion (see the
        // file comment): both sides cannot miss each other's nodes.
        SeqCstFence();
        acquired = reader ? RValidate(node, rec, deadline, gate_spinner) : WValidate(node);
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

  // Listing 3, r_validate: scan forward from our node; wait out any conflicting writer.
  // Under a blocking deadline this always succeeds (readers have priority over writers
  // in this scheme). Under an immediate or expired deadline the reader aborts instead of
  // waiting: it is already enqueued, so it self-deletes — marks its own node exactly
  // like a release would — and returns false; later traversals unlink and reclaim it.
  bool RValidate(LNode* node, EpochDomain::ThreadRec* rec, const Deadline& deadline,
                 AdmissionSpinner& gate_spinner) {
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
            // the validation-failure comment in AcquireImpl), and whichever concurrent
            // traversal — possibly that very writer's WValidate — wins the unlink CAS
            // Retires it exactly once.
            node->next.fetch_add(kMarkBit, std::memory_order_release);
            rvalidate_aborts_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
      }
    }
  }

  // Listing 3, w_validate: re-scan from the head to our own node. On meeting any
  // conflicting node, self-delete and report failure.
  bool WValidate(LNode* node) {
    for (;;) {
      std::atomic<uintptr_t>* prev = &list_.head();
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

}  // namespace srl

#endif  // SRL_CORE_LIST_RW_RANGE_LOCK_H_
