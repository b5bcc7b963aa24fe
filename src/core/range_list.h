// The paper's Listing 1 as one sorted lock-free list, and the conflict watch loop.
//
// RangeList is the core every list-based range lock runs on: list-ex
// (list_range_lock.h) is one RangeList, list-lf (list_lockfree_range_lock.h) one per
// bucket, and list-rw (list_rw_range_lock.h) one driven with Listing 2's compare()
// plus its own validation pass. The skiplist lock (skiplist_range_lock.h) shares
// WatchForRelease for its level-0 conflicts.
//
// Acquired ranges live in a singly-linked list sorted by start address. Inserting a
// node with a single CAS *is* acquiring the range: overlapping requests compete for the
// same insertion point, so at most one can be in the list at a time. Releasing marks
// the node's next pointer (one fetch_add — wait-free); marked nodes are physically
// unlinked by later traversals (Harris-style helping) and retired through the epoch
// scheme of src/epoch/.
//
// The §4.5 fast path: an acquisition that finds the list empty installs its node
// marked-at-head with one CAS (TryFastAcquire) and needs no epoch critical section;
// its release CASes the head back to zero and recycles the node with no grace period.
// Eager recycling is sound because converting a fast node into a regular list node
// requires winning a strip CAS against exactly that release — whoever loses learns
// nothing about the node.
//
// Re-arm rule (Insert's `rearm`): a slow-path insertion that finds the list empty
// (insertion point is the head, head is 0) may publish its node marked-at-head, the
// fast-path form, so its release CASes the head back to zero and recycles eagerly.
// Without it a list that went slow once stays slow forever: the plain node's release
// must mark it, the marked residue keeps the head non-zero, and the next acquirer pays
// the slow path again, leaving residue of its own. Soundness is the fast path's own
// argument: the node is unreachable until the insertion CAS succeeds, and afterwards
// every traversal must win the strip CAS before dereferencing it. A lock whose other
// scans read the head without a strip CAS (list-rw's validations) must not re-arm.
#ifndef SRL_CORE_RANGE_LIST_H_
#define SRL_CORE_RANGE_LIST_H_

#include <atomic>
#include <cassert>
#include <cstdint>

#include "src/core/lnode.h"
#include "src/core/range.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/node_pool.h"
#include "src/sync/admission.h"
#include "src/sync/deadline.h"
#include "src/sync/spin_wait.h"

namespace srl {

// Outcome of one watch of a conflicting node.
enum class WatchResult {
  kReleased,  // the conflicting node became marked; proceed
  kRestart,   // cycled the epoch critical section; re-traverse from the head
  kTimedOut,  // the deadline expired (or was immediate) with the conflict still held
};

// Watches a conflicting node's `next` word until its owner releases it (sets the mark)
// or the deadline expires. Runs inside the caller's epoch critical section. An
// immediate deadline never watches at all: the trylock contract is to fail as soon as
// a wait would begin.
//
// The watch is bounded: once SpinWait switches to yielding, the waiter briefly leaves
// its epoch critical section and reports kRestart, so reclamation barriers never stall
// behind an application-length critical section. This matches the kernel variant's
// "threads block for a small period of time ... and recheck the range" (§7.2). The
// yield itself runs outside the critical section through gate_spinner.Pause(), so a
// thread parked at the admission gate never pins reclamation; Pause also rotates the
// admission slot. On an oversubscribed host the holder may be preempted — or parked
// at the gate — and re-traversing in a tight loop would just burn our quantum.
inline WatchResult WatchForRelease(const std::atomic<uintptr_t>& next,
                                   EpochDomain::ThreadRec* rec, const Deadline& deadline,
                                   AdmissionSpinner& gate_spinner) {
  if (deadline.IsImmediate()) {
    return IsMarked(next.load(std::memory_order_acquire)) ? WatchResult::kReleased
                                                          : WatchResult::kTimedOut;
  }
  SpinWait spin;
  for (int i = 0; !spin.Yielding(); ++i) {
    if (IsMarked(next.load(std::memory_order_acquire))) {
      return WatchResult::kReleased;
    }
    if ((i + 1) % Deadline::kSpinsPerClockCheck == 0 && deadline.Expired()) {
      return WatchResult::kTimedOut;
    }
    spin.Spin();
  }
  EpochDomain::Exit(rec);
  gate_spinner.Pause();
  EpochDomain::Enter(rec);
  return deadline.Expired() ? WatchResult::kTimedOut : WatchResult::kRestart;
}

// The fairness layer's patience (§4.3): lock-induced failures — lost insertion CASes
// and forced traversal restarts — an acquisition tolerates before giving up. Waiting
// for an overlapping holder is ordinary blocking, not starvation, and is not charged.
// A negative limit never gives up.
struct FailureBudget {
  int limit = -1;
  int spent = 0;

  // Charges one failure; true once the budget is exhausted.
  bool Charge() { return limit >= 0 && ++spent > limit; }
};

// Listing 1's compare(): relationship of `cur` (in-list) to `node` (to insert).
//  -1: cur entirely precedes node — keep traversing.
//   0: overlap — must wait for cur's release.
//  +1: cur entirely succeeds node — insert before cur.
inline int CompareExclusive(const LNode* cur, const LNode* node) {
  if (cur->start >= node->end) {
    return 1;
  }
  if (node->start >= cur->end) {
    return -1;
  }
  return 0;
}

class RangeList {
 public:
  RangeList() = default;
  RangeList(const RangeList&) = delete;
  RangeList& operator=(const RangeList&) = delete;

  // All ranges must have been released; residual marked nodes (released but never
  // unlinked because no later traversal passed by) are freed here.
  ~RangeList() {
    const uintptr_t word = head_.load(std::memory_order_acquire);
    // A marked head is a live fast-path holder: once released, its head is either
    // CASed back to zero or (if stripped first) left unmarked with a marked node.
    assert(!IsMarked(word) && "range still held on the fast path at destruction");
    LNode* cur = ToNode(word);
    while (cur != nullptr) {
      const uintptr_t next = cur->next.load(std::memory_order_acquire);
      assert(IsMarked(next) && "range still held at destruction");
      LNode* succ = ToNode(next);
      delete cur;
      cur = succ;
    }
  }

  // A node for `range` from the calling thread's pool, in no list yet.
  static LNode* NewNode(const Range& range, bool reader) {
    LNode* node = NodePool<LNode>::Local().Alloc();
    node->start = range.start;
    node->end = range.end;
    node->reader = reader;
    node->sibling = nullptr;
    node->next.store(0, std::memory_order_relaxed);
    return node;
  }

  // §4.5 fast acquire: installs `node` marked-at-head iff the list is empty.
  //
  // Ordering: acq_rel on success. The acquire half pairs with the releasing CAS
  // (head -> 0) of the previous fast-path holder, so its critical section
  // happens-before ours; the release half publishes the node's fields (all written
  // relaxed by NewNode) to the strip CAS that may later convert this node into a
  // regular list node — any thread that observes MarkedWord(node) in the head with an
  // acquire load sees them. Failure order relaxed: a failed fast path learns nothing
  // and goes through Insert.
  bool TryFastAcquire(LNode* node) {
    uintptr_t expected = 0;
    return head_.load(std::memory_order_relaxed) == 0 &&
           head_.compare_exchange_strong(expected, MarkedWord(node),
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed);
  }

  // Releases `node`. Wait-free: with `fast` (the list runs the §4.5 fast path), one
  // CAS attempt that empties the list if the head still holds the node marked, and
  // otherwise one fetch_add of the mark bit. Without `fast` the head is not touched.
  //
  // Ordering: the relaxed probe is only an optimization — the CAS repeats the
  // comparison with full strength. Its release success order pairs with the acquire
  // side of whichever insertion CAS next observes head == 0, ordering this holder's
  // critical-section writes before the next holder's reads; failure needs no ordering
  // because a failed probe just falls through to the marked release, whose release
  // order pairs with the acquire loads of waiters and unlinkers.
  void Release(LNode* node, bool fast) {
    if (fast) {
      uintptr_t expected = MarkedWord(node);
      if (head_.load(std::memory_order_relaxed) == expected &&
          head_.compare_exchange_strong(expected, 0, std::memory_order_release,
                                        std::memory_order_relaxed)) {
        // Eager removal (§4.5): nobody can still reference the node — converting it to
        // a regular node requires winning a CAS against the release we just performed.
        NodePool<LNode>::Local().Recycle(node);
        return;
      }
    }
    node->next.fetch_add(kMarkBit, std::memory_order_release);
  }

  // Listing 1's insertion loop; Compare is Listing 1's compare() (CompareExclusive)
  // or Listing 2's. Runs inside the caller's epoch critical section. Returns false
  // only if `budget` ran out or the deadline expired while a conflicting range was
  // held; the node is then guaranteed not to be in the list (waiters abort *before*
  // insertion, so an abandoned acquisition leaves nothing behind). `rearm` selects the
  // re-arm rule of the header comment.
  template <int (*Compare)(const LNode*, const LNode*)>
  bool Insert(LNode* node, bool rearm, FailureBudget& budget, EpochDomain::ThreadRec* rec,
              const Deadline& deadline, AdmissionSpinner& gate_spinner) {
    for (;;) {
      std::atomic<uintptr_t>* prev = &head_;
      uintptr_t cur_word = prev->load(std::memory_order_acquire);
      for (;;) {
        if (IsMarked(cur_word)) {
          if (prev != &head_) {
            // prev's owner was logically deleted under us: the pointer into the list is
            // lost, restart from the head (Listing 1 line 32).
            if (budget.Charge()) {
              return false;
            }
            break;
          }
          // Marked head == a fast-path holder. Strip the mark to convert its node into a
          // regular list node (§4.5), then continue with the unmarked value. The node is
          // not dereferenced before the strip CAS succeeds — if its owner's releasing
          // CAS wins instead, the node may already be recycled.
          if (head_.compare_exchange_weak(cur_word, Unmark(cur_word),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
            cur_word = Unmark(cur_word);
          }
          continue;
        }
        LNode* cur = ToNode(cur_word);
        if (cur != nullptr) {
          const uintptr_t cur_next = cur->next.load(std::memory_order_acquire);
          if (IsMarked(cur_next)) {
            // cur was released: help unlink it (Listing 1 lines 34–37).
            const uintptr_t succ = Unmark(cur_next);
            if (prev->compare_exchange_strong(cur_word, succ, std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
              NodePool<LNode>::Local().Retire(cur);
              cur_word = succ;
            }
            continue;  // on CAS failure cur_word holds the fresh *prev
          }
          const int rel = Compare(cur, node);
          if (rel < 0) {
            prev = &cur->next;
            cur_word = cur_next;
            continue;
          }
          if (rel == 0) {
            const WatchResult w = WatchForRelease(cur->next, rec, deadline, gate_spinner);
            if (w == WatchResult::kTimedOut) {
              return false;
            }
            if (w == WatchResult::kRestart) {
              break;  // left the epoch CS while waiting; restart from head
            }
            continue;  // cur is now marked; the unlink branch above collects it
          }
          // rel > 0: insert before cur.
        }
        // Publication pairing: the relaxed store of node->next is safe because no other
        // thread can reach `node` until the CAS below publishes it, and the CAS's
        // release half (seq_cst ⊇ release) orders the store — plus
        // node->{start,end,reader} — before any acquire load that observes the node in
        // *prev. Exclusion between writers needs no SeqCstFence pairing: overlapping
        // writers compete for the SAME insertion point, so it is decided by CAS
        // success/failure on one location, not by two threads each having to observe
        // the other's independent store (the store-buffering shape that forces seq_cst
        // in list-rw's insert-then-validate, which follows this CAS with its fence).
        // seq_cst on success costs nothing extra on x86/ARM LL-SC versus acq_rel here.
        node->next.store(cur_word, std::memory_order_relaxed);
        const bool marked = rearm && prev == &head_ && cur_word == 0;
        if (prev->compare_exchange_strong(cur_word,
                                          marked ? MarkedWord(node) : NodeWord(node),
                                          std::memory_order_seq_cst,
                                          std::memory_order_acquire)) {
          return true;
        }
        if (budget.Charge()) {
          return false;
        }
        // Lost the race for this insertion point; cur_word holds the fresh *prev.
      }
    }
  }

  // The head word, for scans that walk the list themselves (list-rw's validations).
  std::atomic<uintptr_t>& head() { return head_; }

  // --- Test-only introspection (callers must guarantee quiescence) ---

  // Number of unmarked (held) nodes; a marked head is a fast-path holder, counted
  // through its node.
  int HeldCount() const {
    int n = 0;
    for (const LNode* cur = ToNode(head_.load(std::memory_order_acquire)); cur != nullptr;
         cur = ToNode(cur->next.load(std::memory_order_acquire))) {
      if (!IsMarked(cur->next.load(std::memory_order_acquire))) {
        ++n;
      }
    }
    return n;
  }

  // Invariant 2 (§4.2): held ranges are sorted by start, and a held writer never
  // overlaps its held successor. With writers only this is Invariant 1: consecutive
  // held ranges satisfy r1.end <= r2.start.
  bool InvariantHolds() const {
    const LNode* prev = nullptr;
    for (const LNode* cur = ToNode(head_.load(std::memory_order_acquire)); cur != nullptr;
         cur = ToNode(cur->next.load(std::memory_order_acquire))) {
      if (IsMarked(cur->next.load(std::memory_order_acquire))) {
        continue;  // released, logically absent
      }
      if (prev != nullptr && (prev->start > cur->start ||
                              ((!prev->reader || !cur->reader) && prev->end > cur->start))) {
        return false;
      }
      prev = cur;
    }
    return true;
  }

 private:
  std::atomic<uintptr_t> head_{0};
};

}  // namespace srl

#endif  // SRL_CORE_RANGE_LIST_H_
