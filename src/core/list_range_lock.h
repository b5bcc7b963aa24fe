// Exclusive list-based range lock — the paper's core contribution (§4.1, Listing 1).
//
// Acquired ranges live in a singly-linked list sorted by start address. Inserting a node
// with a single CAS *is* acquiring the range: overlapping requests compete for the same
// insertion point, so at most one can be in the list at a time. Releasing marks the
// node's next pointer (one fetch_add — wait-free); marked nodes are physically unlinked
// by later traversals (Harris-style helping) and retired through the epoch scheme of
// src/epoch/.
//
// Differences from the pseudo-code, all discussed in DESIGN.md:
//   * the wait-for-overlap loop watches the conflicting node for a bounded number of
//     spins and then briefly leaves its epoch critical section and restarts from the
//     head. This matches the behaviour the paper describes for the kernel variant
//     ("threads block for a small period of time ... and recheck the range", §7.2) and
//     keeps epoch barriers from stalling behind application-length critical sections;
//   * the fast path (§4.5) is integrated behind Options::enable_fast_path, and re-arms
//     once the list drains: a slow-path insertion into the empty list publishes the
//     fast-path form (see InsertNode);
//   * LockBounded() exposes the failure counting that the fairness layer (§4.3) needs.
#ifndef SRL_CORE_LIST_RANGE_LOCK_H_
#define SRL_CORE_LIST_RANGE_LOCK_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <thread>

#include "src/core/lnode.h"
#include "src/core/range.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/node_pool.h"
#include "src/sync/admission.h"
#include "src/sync/deadline.h"
#include "src/sync/pause.h"
#include "src/sync/spin_wait.h"

namespace srl {

class ListRangeLock {
 public:
  struct Options {
    // §4.5: constant-step acquire/release when the list is empty.
    bool enable_fast_path = false;
  };

  // Opaque handle to an acquired range; returned by Lock, consumed by Unlock.
  using Handle = LNode*;

  ListRangeLock() = default;
  explicit ListRangeLock(Options options) : options_(options) {}
  ListRangeLock(const ListRangeLock&) = delete;
  ListRangeLock& operator=(const ListRangeLock&) = delete;

  // All ranges must have been released; residual marked nodes (released but never
  // unlinked because no later traversal passed by) are freed here.
  ~ListRangeLock() {
    uintptr_t word = head_.load(std::memory_order_acquire);
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

  // Blocks until [range.start, range.end) is held exclusively. The returned handle must
  // be passed to Unlock() by the same logical owner (any thread may release it).
  Handle Lock(const Range& range) {
    Handle h = nullptr;
    AcquireImpl(range, /*max_failures=*/-1, Deadline::Infinite(), &h);
    return h;
  }

  // Non-blocking acquisition (down_write_trylock semantics): fails the moment the range
  // would have to wait for an overlapping holder. Lost insertion CASes are retried —
  // they signal contention on the list structure, not a held conflicting range — so a
  // TryLock of a range that conflicts with nothing held always succeeds.
  bool TryLock(const Range& range, Handle* out) {
    return AcquireImpl(range, /*max_failures=*/-1, Deadline::Immediate(), out);
  }

  // Timed acquisition: blocks like Lock() but gives up (returns false, no range held)
  // once `timeout` has elapsed. The waiter aborts before ever entering the list, so an
  // abandoned acquisition leaves no trace for other threads to clean up.
  bool LockFor(const Range& range, std::chrono::nanoseconds timeout, Handle* out) {
    return AcquireImpl(range, /*max_failures=*/-1, Deadline::After(timeout), out);
  }

  // Bounded-patience variant for the fairness layer: gives up (returns false, no range
  // held) once the acquisition suffered more than `max_failures` lock-induced failures
  // (lost insertion CASes or forced traversal restarts). Waiting for an overlapping
  // holder does not count — that is ordinary blocking, not starvation.
  bool LockBounded(const Range& range, int max_failures, Handle* out) {
    return AcquireImpl(range, max_failures, Deadline::Infinite(), out);
  }

  // Releases an acquired range. Wait-free: one atomic fetch_add (plus a CAS attempt on
  // the fast path).
  void Unlock(Handle node) {
    if (options_.enable_fast_path) {
      uintptr_t expected = MarkedWord(node);
      // Ordering: the relaxed probe is only an optimization — the CAS repeats the
      // comparison with full strength. Its release success order pairs with the acquire
      // side of whichever insertion CAS next observes head == 0, ordering this holder's
      // critical-section writes before the next holder's reads; failure needs no
      // ordering because a failed probe just falls through to the marked-release path.
      if (head_.load(std::memory_order_relaxed) == expected &&
          head_.compare_exchange_strong(expected, 0, std::memory_order_release,
                                        std::memory_order_relaxed)) {
        // Eager removal (§4.5): nobody can still reference the node — converting it to a
        // regular node requires winning a CAS against the release we just performed.
        NodePool<LNode>::Local().Recycle(node);
        return;
      }
    }
    node->next.fetch_add(kMarkBit, std::memory_order_release);
  }

  // RAII guard.
  class Guard {
   public:
    Guard(ListRangeLock& lock, const Range& range) : lock_(lock), h_(lock.Lock(range)) {}
    ~Guard() { lock_.Unlock(h_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    ListRangeLock& lock_;
    Handle h_;
  };

  // --- Test-only introspection (callers must guarantee quiescence) ---

  // Number of unmarked (held) nodes currently in the list.
  int DebugHeldCount() const {
    int n = 0;
    uintptr_t word = head_.load(std::memory_order_acquire);
    for (LNode* cur = ToNode(word); cur != nullptr;
         cur = ToNode(cur->next.load(std::memory_order_acquire))) {
      if (!IsMarked(cur->next.load(std::memory_order_acquire))) {
        ++n;
      }
    }
    return n;
  }

  // Checks Invariant 1: consecutive held ranges satisfy r1.end <= r2.start.
  bool DebugInvariantHolds() const {
    uint64_t prev_end = 0;
    bool first = true;
    uintptr_t word = head_.load(std::memory_order_acquire);
    for (LNode* cur = ToNode(word); cur != nullptr;
         cur = ToNode(cur->next.load(std::memory_order_acquire))) {
      if (IsMarked(cur->next.load(std::memory_order_acquire))) {
        continue;  // released, logically absent
      }
      if (!first && cur->start < prev_end) {
        return false;
      }
      prev_end = cur->end;
      first = false;
    }
    return true;
  }

 private:
  // Listing 1's compare(): relationship of `cur` (in-list) to `node` (to insert).
  //  -1: cur entirely precedes node — keep traversing.
  //   0: overlap — must wait for cur's release.
  //  +1: cur entirely succeeds node — insert before cur.
  static int Compare(const LNode* cur, const LNode* node) {
    if (cur->start >= node->end) {
      return 1;
    }
    if (node->start >= cur->end) {
      return -1;
    }
    return 0;
  }

  bool AcquireImpl(const Range& range, int max_failures, const Deadline& deadline,
                   Handle* out) {
    assert(range.Valid() && "range locks require start < end");
    LNode* node = NodePool<LNode>::Local().Alloc();
    node->start = range.start;
    node->end = range.end;
    node->reader = false;
    node->next.store(0, std::memory_order_relaxed);

    if (options_.enable_fast_path) {
      uintptr_t expected = 0;
      // Ordering (audited for the lock-free-list PR): acq_rel on success. The acquire
      // half pairs with the releasing CAS (head -> 0) of the previous fast-path holder,
      // so its critical section happens-before ours; the release half publishes
      // node->{start,end,next} (all written above, `next` relaxed) to the slow-path
      // strip-CAS that may later convert this node into a regular list node — the
      // relaxed stores are sequenced before this CAS, so any thread that observes
      // MarkedWord(node) in head with an acquire load sees them. Failure order relaxed:
      // a failed fast path learns nothing and retries through the list.
      if (head_.load(std::memory_order_relaxed) == 0 &&
          head_.compare_exchange_strong(expected, MarkedWord(node),
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        *out = node;
        return true;
      }
    }

    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    // Concurrency restriction for the slow path: once yielding between watch rounds,
    // the spinner caps how many contenders actively re-traverse at ~#cores and parks
    // the surplus (outside the epoch critical section — Pause runs between
    // Exit/Enter, so a parked thread never pins reclamation). Timed and immediate
    // deadlines make it inert. The slot, if held, releases when this frame returns.
    AdmissionSpinner gate_spinner(&gate_, deadline);
    EpochDomain::Enter(rec);
    const bool ok = InsertNode(node, rec, max_failures, deadline, gate_spinner);
    EpochDomain::Exit(rec);
    if (ok) {
      *out = node;
      return true;
    }
    NodePool<LNode>::Local().Recycle(node);  // never entered the list
    return false;
  }

  // Outcome of one watch of a conflicting node.
  enum class WaitResult {
    kReleased,  // the conflicting node became marked; proceed
    kRestart,   // cycled the epoch critical section; re-traverse from the head
    kTimedOut,  // the deadline expired (or was immediate) with the conflict still held
  };

  // Core of Listing 1. Returns false only if `max_failures` >= 0 was exhausted or the
  // deadline expired while a conflicting range was held (the node is then guaranteed not
  // to be in the list — exclusive waiters abort *before* insertion, so an abandoned
  // acquisition leaves nothing behind).
  bool InsertNode(LNode* node, EpochDomain::ThreadRec* rec, int max_failures,
                  const Deadline& deadline, AdmissionSpinner& gate_spinner) {
    int failures = 0;
    for (;;) {
      std::atomic<uintptr_t>* prev = &head_;
      uintptr_t cur_word = prev->load(std::memory_order_acquire);
      bool at_head = true;
      for (;;) {
        if (IsMarked(cur_word)) {
          if (!at_head) {
            // prev's owner was logically deleted under us: the pointer into the list is
            // lost, restart from the head (Listing 1 line 32).
            if (max_failures >= 0 && ++failures > max_failures) {
              return false;
            }
            break;
          }
          // Marked head == a fast-path holder. Strip the mark to convert its node into a
          // regular list node (§4.5), then continue with the unmarked value.
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
            at_head = false;
            continue;
          }
          if (rel == 0) {
            const WaitResult w = WaitForRelease(cur, rec, deadline, gate_spinner);
            if (w == WaitResult::kTimedOut) {
              return false;
            }
            if (w == WaitResult::kRestart) {
              break;  // left the epoch CS while waiting; restart from head
            }
            continue;  // cur is now marked; the unlink branch above collects it
          }
          // rel > 0: insert before cur.
        }
        // Publication pairing (audited for the lock-free-list PR; no hole found): the
        // relaxed store of node->next is safe because no other thread can reach `node`
        // until the CAS below publishes it, and the CAS's release half (seq_cst ⊇
        // release) orders the store — plus node->{start,end,reader} — before any
        // acquire load that observes NodeWord(node) in *prev. Conflict detection in
        // this exclusive lock needs no SeqCstFence pairing, unlike the RW variant's
        // insert-then-validate: overlapping acquirers compete for the SAME insertion
        // point, so exclusion is decided by CAS success/failure on one location, not by
        // two threads each having to observe the other's independent store (the
        // store-buffering shape that forces seq_cst in list_rw_range_lock.h). seq_cst
        // on success is kept anyway: it makes every insertion also participate in the
        // RW lock's fence protocol for free if a node migrates between analyses, and
        // costs nothing extra on x86/ARM LL-SC versus acq_rel here.
        //
        // With the fast path on, an insertion into the empty list publishes the node
        // marked-at-head (the fast-path form), re-arming §4.5: its release CASes the
        // head back to zero and recycles eagerly, where a plain node would leave marked
        // residue that sends every later acquirer down the slow path. Sound for the
        // fast path's reason: nobody reaches the node before this CAS, and afterwards
        // only through a won strip CAS. With the fast path off nothing changes.
        node->next.store(cur_word, std::memory_order_relaxed);
        const bool rearm = options_.enable_fast_path && prev == &head_ && cur_word == 0;
        if (prev->compare_exchange_strong(cur_word,
                                          rearm ? MarkedWord(node) : NodeWord(node),
                                          std::memory_order_seq_cst,
                                          std::memory_order_acquire)) {
          return true;
        }
        if (max_failures >= 0 && ++failures > max_failures) {
          return false;
        }
        // Lost the race for this insertion point; cur_word holds the fresh *prev.
      }
    }
  }

  // Watches `cur` until its owner releases it or the deadline expires. Once the
  // bounded watch is exhausted, briefly exits the epoch critical section (so
  // reclamation barriers are never blocked behind an application critical section) and
  // reports kRestart, telling the caller to re-traverse. An immediate deadline never
  // watches at all: the trylock contract is to fail as soon as a wait would begin.
  //
  // Audit (wait-loop unification): the watch runs on SpinWait instead of a hand-rolled
  // kWatchSpins CpuRelax loop. SpinWait's switch to yielding is the signal to stop
  // watching — the yield itself must happen OUTSIDE the epoch critical section, so it
  // is delegated to gate_spinner.Pause(), which also rotates the admission slot
  // (capping how many watchers burn scheduler quanta under oversubscription).
  WaitResult WaitForRelease(const LNode* cur, EpochDomain::ThreadRec* rec,
                            const Deadline& deadline, AdmissionSpinner& gate_spinner) {
    if (deadline.IsImmediate()) {
      return IsMarked(cur->next.load(std::memory_order_acquire)) ? WaitResult::kReleased
                                                                 : WaitResult::kTimedOut;
    }
    SpinWait spin;
    for (int i = 0; !spin.Yielding(); ++i) {
      if (IsMarked(cur->next.load(std::memory_order_acquire))) {
        return WaitResult::kReleased;
      }
      if ((i + 1) % Deadline::kSpinsPerClockCheck == 0 && deadline.Expired()) {
        return WaitResult::kTimedOut;
      }
      spin.Spin();
    }
    EpochDomain::Exit(rec);
    // Outside the critical section, cede the CPU (rotating the admission slot): on an
    // oversubscribed host the holder may be preempted — or parked at the gate — and
    // re-traversing in a tight loop would just burn our quantum.
    gate_spinner.Pause();
    EpochDomain::Enter(rec);
    return deadline.Expired() ? WaitResult::kTimedOut : WaitResult::kRestart;
  }

  std::atomic<uintptr_t> head_{0};
  Options options_;
  // Caps active contenders on the slow path (see AcquireImpl).
  AdmissionGate gate_;
};

}  // namespace srl

#endif  // SRL_CORE_LIST_RANGE_LOCK_H_
