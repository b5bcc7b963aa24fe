// Lock-free bucketed range lock: CAS insertion + mark-bit deletion, no lock anywhere.
//
// This is the paper's exclusive list-based range lock (§4.1, Listing 1 — see
// list_range_lock.h) with the remaining serialization point removed: instead of one
// shared list head, the address space is cut into fixed-size windows
// (1 << Options::window_shift units each) and every window hashes to one of
// Options::buckets sorted lock lists. Disjoint ranges in different windows touch
// disjoint heads, so they contend on nothing at all — no head pointer, no cache line —
// which composes with the VM layer's stripes (bucketing *within* a stripe's window).
//
// Protocol per bucket is exactly Listing 1: a single CAS inserts a node into the sorted
// list (insertion *is* acquisition), releasing marks the node's next pointer with one
// fetch_add (wait-free, never takes a lock — the property the tentpole is named for),
// and marked nodes are physically unlinked by whichever later traversal passes by
// (Harris-style helping), then retired through NodePool/EpochDomain.
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
// The §4.5 fast path is integrated per bucket (unconditionally — unlike the single-list
// lock, where one shared head makes it an optional whole-lock gamble): an acquisition
// whose bucket head is empty installs its node marked-at-head with one CAS and skips
// the epoch critical section for that bucket entirely; release CASes the head back to
// zero and recycles the node with no grace period. Eager recycling is sound because
// converting a fast node into a regular list node requires winning a strip CAS against
// exactly that release — whoever loses learns nothing about the node. Per-bucket heads
// make the fast path free rather than a contention hazard: the fast CAS touches the
// same cache line the slow insertion CAS would touch anyway, and on disjoint workloads
// each thread's bucket head is effectively private.
//
// The fast path re-arms once a bucket drains: a slow-path insertion that finds its
// bucket empty (insertion point == head, head == 0) publishes the node marked-at-head,
// exactly as the fast path would have. Otherwise a bucket that went slow once would
// stay slow forever — the plain node's release must mark it, the marked residue keeps
// the head non-zero, and the next acquirer pays the slow path again, leaving residue
// of its own. Publishing marked is sound for the fast path's reason: the node is
// unreachable until the insertion CAS succeeds, and afterwards every traversal must win
// the strip CAS before dereferencing it, so the eager recycle in ReleaseChain still
// races only that strip CAS.
#ifndef SRL_CORE_LIST_LOCKFREE_RANGE_LOCK_H_
#define SRL_CORE_LIST_LOCKFREE_RANGE_LOCK_H_

#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

#include "src/core/lnode.h"
#include "src/core/range.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/node_pool.h"
#include "src/sync/admission.h"
#include "src/sync/cacheline.h"
#include "src/sync/deadline.h"
#include "src/sync/pause.h"
#include "src/sync/spin_wait.h"

namespace srl {

class ListLockFreeRangeLock {
 public:
  struct Options {
    // Number of hash-bucketed list heads. Clamped to a power of two in [1, 64] — 64 so
    // the covered-bucket set fits one uint64_t mask, power of two so the bucket hash is
    // a multiply-shift. 16 suits the unit-test universes; the VM backend uses 64.
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

  ListLockFreeRangeLock() : ListLockFreeRangeLock(Options{}) {}
  explicit ListLockFreeRangeLock(Options options)
      : bucket_count_(ClampBuckets(options.buckets)),
        bucket_shift_(static_cast<int>(std::countr_zero(bucket_count_))),
        window_shift_(options.window_shift < 0    ? 0
                      : options.window_shift > 63 ? 63
                                                  : options.window_shift),
        all_mask_(bucket_count_ == 64 ? ~uint64_t{0}
                                      : (uint64_t{1} << bucket_count_) - 1),
        heads_(new CacheAligned<std::atomic<uintptr_t>>[bucket_count_]) {}

  ListLockFreeRangeLock(const ListLockFreeRangeLock&) = delete;
  ListLockFreeRangeLock& operator=(const ListLockFreeRangeLock&) = delete;

  // All ranges must have been released; residual marked nodes (released but never
  // unlinked because no later traversal passed their bucket) are freed here.
  ~ListLockFreeRangeLock() {
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      uintptr_t word = heads_[b]->load(std::memory_order_acquire);
      // A marked head is a live fast-path holder: once released, its head is either
      // CASed back to zero or (if stripped first) left unmarked with a marked node.
      assert(!IsMarked(word) && "fast-path range still held at destruction");
      LNode* cur = ToNode(word);
      while (cur != nullptr) {
        const uintptr_t next = cur->next.load(std::memory_order_acquire);
        assert(IsMarked(next) && "range still held at destruction");
        LNode* succ = ToNode(next);
        delete cur;
        cur = succ;
      }
    }
  }

  // Blocks until [range.start, range.end) is held exclusively. The returned handle must
  // be passed to Unlock() by the same logical owner (any thread may release it).
  Handle Lock(const Range& range) {
    Handle h = nullptr;
    AcquireImpl(range, Deadline::Infinite(), &h);
    return h;
  }

  // Non-blocking acquisition: fails the moment the range would have to wait for an
  // overlapping holder in any covered bucket. Lost insertion CASes are retried — they
  // signal contention on a list's structure, not a held conflicting range — so a
  // TryLock of a range that conflicts with nothing held always succeeds.
  bool TryLock(const Range& range, Handle* out) {
    return AcquireImpl(range, Deadline::Immediate(), out);
  }

  // Timed acquisition: blocks like Lock() but gives up (returns false, no range held)
  // once `timeout` has elapsed. Nodes already inserted into earlier buckets are marked
  // released on the way out, so an abandoned acquisition leaves only inert marked
  // residue for other traversals to collect.
  bool LockFor(const Range& range, std::chrono::nanoseconds timeout, Handle* out) {
    return AcquireImpl(range, Deadline::After(timeout), out);
  }

  // Releases an acquired range. Wait-free and lock-free in the strongest sense: per
  // covered bucket, one fast-path CAS attempt (no loop) and at most one fetch_add —
  // no lock acquisition, no traversal, no retry.
  void Unlock(Handle handle) { ReleaseChain(handle); }

  // RAII guard.
  class Guard {
   public:
    Guard(ListLockFreeRangeLock& lock, const Range& range)
        : lock_(lock), h_(lock.Lock(range)) {}
    ~Guard() { lock_.Unlock(h_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    ListLockFreeRangeLock& lock_;
    Handle h_;
  };

  std::size_t bucket_count() const { return bucket_count_; }
  int window_shift() const { return window_shift_; }

  // --- Test-only introspection (callers must guarantee quiescence) ---

  // Number of unmarked (held) nodes across all buckets. An acquisition covering k
  // buckets contributes k, so this counts nodes, not acquisitions.
  int DebugHeldCount() const {
    int n = 0;
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      // A marked head is a fast-path holder: unmark to reach its (held) node.
      for (LNode* cur = ToNode(Unmark(heads_[b]->load(std::memory_order_acquire)));
           cur != nullptr; cur = ToNode(cur->next.load(std::memory_order_acquire))) {
        if (!IsMarked(cur->next.load(std::memory_order_acquire))) {
          ++n;
        }
      }
    }
    return n;
  }

  // Checks Invariant 1 per bucket: consecutive held ranges satisfy r1.end <= r2.start.
  bool DebugInvariantHolds() const {
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      uint64_t prev_end = 0;
      bool first = true;
      for (LNode* cur = ToNode(Unmark(heads_[b]->load(std::memory_order_acquire)));
           cur != nullptr; cur = ToNode(cur->next.load(std::memory_order_acquire))) {
        if (IsMarked(cur->next.load(std::memory_order_acquire))) {
          continue;  // released, logically absent
        }
        if (!first && cur->start < prev_end) {
          return false;
        }
        prev_end = cur->end;
        first = false;
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
  // `w & (buckets - 1)`: the VM layer's stripes start at multiples of 2^30, so under
  // identity hashing every stripe's base window would land in bucket 0 and striped
  // workloads would collide on one head — the multiply diffuses the high base bits
  // into the selected bucket.
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
  // first k bits of the mask. Per node, first try the §4.5 fast-path release — if the
  // bucket head still holds this node marked, one CAS empties the bucket and the node
  // recycles with no grace period (nobody else ever obtained a reference: converting a
  // fast node into a regular node requires winning a strip CAS against this release).
  // Otherwise mark the node released with one fetch_add. The sibling pointer is read
  // BEFORE either: the instant a node is marked, a concurrent traversal may unlink it,
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
      uintptr_t expected = MarkedWord(node);
      // Ordering as in list_range_lock.h's fast-path Unlock: the relaxed probe is an
      // optimization (the CAS repeats the comparison); release success order pairs with
      // the acquire side of whichever CAS next observes head == 0.
      if (heads_[b]->load(std::memory_order_relaxed) == expected &&
          heads_[b]->compare_exchange_strong(expected, 0, std::memory_order_release,
                                             std::memory_order_relaxed)) {
        NodePool<LNode>::Local().Recycle(node);
      } else {
        node->next.fetch_add(kMarkBit, std::memory_order_release);
      }
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
    // slow-path insertion that drains its bucket to empty publishes marked-at-head
    // (see InsertNode), so the bucket's next acquirer is back on this epoch-free path.
    EpochDomain::ThreadRec* rec = nullptr;
    LNode* chain_head = nullptr;
    LNode* chain_tail = nullptr;
    for (uint64_t m = mask; m != 0; m &= m - 1) {
      const std::size_t b = static_cast<std::size_t>(std::countr_zero(m));
      LNode* node = NodePool<LNode>::Local().Alloc();
      node->start = range.start;
      node->end = range.end;
      node->reader = false;
      node->sibling = nullptr;
      node->next.store(0, std::memory_order_relaxed);
      std::atomic<uintptr_t>& head = heads_[b].value;
      bool inserted;
      uintptr_t expected = 0;
      // §4.5 fast path, per bucket. Ordering as in list_range_lock.h: acq_rel on
      // success — the acquire half pairs with the previous fast-path holder's releasing
      // CAS (head -> 0), the release half publishes node->{start,end,next,sibling} to
      // the strip-CAS that may later convert this node into a regular list node.
      // Failure order relaxed: a failed fast path learns nothing and goes slow.
      if (head.load(std::memory_order_relaxed) == 0 &&
          head.compare_exchange_strong(expected, MarkedWord(node),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        inserted = true;
      } else {
        if (rec == nullptr) {
          rec = CurrentThreadRec(EpochDomain::Global());
          EpochDomain::Enter(rec);
        }
        inserted = InsertNode(&head, node, rec, deadline, gate_spinner);
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

  // Listing 1's compare(): relationship of `cur` (in-list) to `node` (to insert).
  static int Compare(const LNode* cur, const LNode* node) {
    if (cur->start >= node->end) {
      return 1;
    }
    if (node->start >= cur->end) {
      return -1;
    }
    return 0;
  }

  enum class WaitResult { kReleased, kRestart, kTimedOut };

  // Listing 1's insertion loop against one bucket's head — list_range_lock.h's
  // InsertNode minus the fairness failure budget (the fair layer wraps the single-list
  // lock, not this one).
  bool InsertNode(std::atomic<uintptr_t>* head, LNode* node,
                  EpochDomain::ThreadRec* rec, const Deadline& deadline,
                  AdmissionSpinner& gate_spinner) {
    for (;;) {
      std::atomic<uintptr_t>* prev = head;
      uintptr_t cur_word = prev->load(std::memory_order_acquire);
      bool at_head = true;
      for (;;) {
        if (IsMarked(cur_word)) {
          if (!at_head) {
            // prev's owner was logically deleted under us: the pointer into the list is
            // lost, restart from the head (Listing 1 line 32).
            break;
          }
          // Marked head == a fast-path holder (§4.5). Strip the mark to convert its
          // node into a regular list node, then continue with the unmarked value. The
          // node is not dereferenced before the strip CAS succeeds — if its owner's
          // releasing CAS wins instead, the node may already be recycled.
          if (head->compare_exchange_weak(cur_word, Unmark(cur_word),
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
        // Publication pairing as in list_range_lock.h: the relaxed store of node->next
        // is ordered before any other thread can see the node by the release half of
        // the successful insertion CAS below. Into an empty bucket the node goes in
        // marked — the fast-path form — so its release can CAS the head back to zero
        // and recycle eagerly instead of leaving marked residue (the re-arm rule in
        // the header comment): nobody reaches the node before this CAS, and afterwards
        // only through a won strip CAS.
        node->next.store(cur_word, std::memory_order_relaxed);
        const bool empty_bucket = prev == head && cur_word == 0;
        if (prev->compare_exchange_strong(cur_word,
                                          empty_bucket ? MarkedWord(node) : NodeWord(node),
                                          std::memory_order_seq_cst,
                                          std::memory_order_acquire)) {
          return true;
        }
        // Lost the race for this insertion point; cur_word holds the fresh *prev.
      }
    }
  }

  // Watches `cur` until its owner releases it or the deadline expires; identical to
  // list_range_lock.h (see the rationale there). Audit (wait-loop unification):
  // bounded watch on SpinWait; the yield between watch rounds runs outside the epoch
  // critical section via gate_spinner.Pause(), which also rotates the admission slot.
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
    gate_spinner.Pause();
    EpochDomain::Enter(rec);
    return deadline.Expired() ? WaitResult::kTimedOut : WaitResult::kRestart;
  }

  const std::size_t bucket_count_;
  const int bucket_shift_;   // log2(bucket_count_)
  const int window_shift_;
  const uint64_t all_mask_;  // low bucket_count_ bits set
  // One cache line per head: disjoint buckets must not false-share.
  const std::unique_ptr<CacheAligned<std::atomic<uintptr_t>>[]> heads_;
  // Caps active contenders on the slow path (see AcquireImpl).
  AdmissionGate gate_;
};

}  // namespace srl

#endif  // SRL_CORE_LIST_LOCKFREE_RANGE_LOCK_H_
