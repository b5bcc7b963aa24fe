// The existing kernel range lock, ported to user space — the paper's tree-based baseline
// (§3; Kara [22] for the exclusive "lustre-ex" semantics, Bueso [4] for the
// reader-writer "kernel-rw" semantics).
//
// Algorithm, verbatim from §3: to acquire a range, take the spin lock, count the ranges
// already in the interval tree that *block* the request (for a read acquisition,
// overlapping reads do not block), insert a node describing the request, drop the spin
// lock, then wait until the blocking count hits zero. To release: take the spin lock,
// remove the node, decrement the blocking count of every overlapping waiter that had
// counted us, drop the spin lock.
//
// Note the serialization pathologies the paper calls out, which this port reproduces
// deliberately:
//   * every acquisition AND release — even of disjoint or read-only ranges — funnels
//     through the one spin lock;
//   * waiters count *requested* (not just held) overlapping ranges, so in the §3 example
//     (A=[1,3) held, B=[2,7) waiting, C=[4,5)) C blocks behind the waiter B even though
//     C conflicts with nothing that is actually held (FIFO admission).
//
// The optional WaitStats sink measures time spent acquiring the internal spin lock —
// the quantity plotted in Figure 8.
#ifndef SRL_BASELINES_TREE_RANGE_LOCK_H_
#define SRL_BASELINES_TREE_RANGE_LOCK_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <mutex>

#include "src/core/range.h"
#include "src/core/range_lock.h"
#include "src/harness/free_list.h"
#include "src/harness/wait_stats.h"
#include "src/rbtree/interval_tree.h"
#include "src/sync/deadline.h"
#include "src/sync/spin_lock.h"
#include "src/sync/spin_wait.h"

namespace srl {

class TreeRangeLock {
 public:
  struct Node {
    Node* rb_parent = nullptr;
    Node* rb_left = nullptr;
    Node* rb_right = nullptr;
    bool rb_red = false;
    uint64_t start = 0;
    uint64_t end = 0;
    uint64_t max_end = 0;
    bool reader = false;
    std::atomic<int> blocking{0};
    // Arrival order, assigned under the internal spin lock. Establishes who counted
    // whom: node o counted node n in o->blocking iff they conflict and o->seq > n->seq
    // (n was in the tree when o arrived). A waiter that aborts (timed acquisition
    // giving up) must decrement exactly the nodes that counted it — unlike a release,
    // conflicting *earlier* arrivals may still be present, and they never counted us.
    uint64_t seq = 0;
    Node* pool_next = nullptr;
  };

  using Handle = Node*;
  static constexpr bool kSharedReaders = true;

  TreeRangeLock() = default;
  TreeRangeLock(const TreeRangeLock&) = delete;
  TreeRangeLock& operator=(const TreeRangeLock&) = delete;

  ~TreeRangeLock() { assert(tree_.Empty() && "ranges still held at destruction"); }

  // Reader-writer semantics ("kernel-rw"). The exclusive variant ("lustre-ex") is
  // Exclusive<TreeRangeLock>, which takes everything as a write.
  Handle Lock(const Range& r, LockMode mode = LockMode::kWrite) {
    Handle out = nullptr;
    AcquireWithDeadline(r, mode == LockMode::kRead, Deadline::Infinite(), &out);
    return out;
  }

  // Non-blocking acquisition: succeeds iff the request would have admitted immediately
  // (zero blockers at insertion time). On failure nothing is inserted, so the FIFO
  // admission pathology (§3) never sees the request. The internal spin lock is still
  // taken — like the kernel's trylock, "non-blocking" refers to the range wait, not the
  // short structure lock.
  bool TryLock(const Range& r, Handle* out, LockMode mode = LockMode::kWrite) {
    return TryAcquire(r, mode == LockMode::kRead, out);
  }

  // Timed acquisition: inserts and waits like Lock, but gives up once `timeout`
  // elapses. An aborting waiter removes its node and un-counts itself from every
  // conflicting later arrival (they counted it under FIFO admission), so waiters behind
  // an aborted request admit as if it had never queued.
  bool LockFor(const Range& r, std::chrono::nanoseconds timeout, Handle* out,
               LockMode mode = LockMode::kWrite) {
    return AcquireWithDeadline(r, mode == LockMode::kRead, Deadline::After(timeout), out);
  }

  void Unlock(Handle n) {
    LockInternal();
    RemoveAndNotifyLocked(n);
    spin_.unlock();
    FreeList<Node>::Local().Put(n);
  }

  // Attaches a sink measuring waits on the internal spin lock (Figure 8). Pass nullptr
  // to detach. Not thread-safe against concurrent acquisitions; set before use.
  void SetSpinWaitStats(WaitStats* stats) { spin_stats_ = stats; }

  // --- Test-only introspection (requires quiescence) ---
  std::size_t DebugHeldCount() const { return tree_.Size(); }
  bool DebugTreeValid() const { return tree_.ValidateStructure(); }

  // Like DebugHeldCount, but safe to poll while other threads acquire/release: counts
  // nodes (held + waiting) under the internal lock.
  std::size_t DebugTreeSizeLocked() {
    std::lock_guard<SpinLock> g(spin_);
    return tree_.Size();
  }

 private:
  bool AcquireWithDeadline(const Range& r, bool reader, const Deadline& deadline,
                           Handle* out) {
    assert(r.Valid());
    Node* n = FreeList<Node>::Local().Get();
    n->start = r.start;
    n->end = r.end;
    n->reader = reader;
    LockInternal();
    n->seq = next_seq_++;
    int blockers = 0;
    tree_.ForEachOverlap(r.start, r.end, [&](Node* o) {
      if (!reader || !o->reader) {
        ++blockers;
      }
    });
    n->blocking.store(blockers, std::memory_order_relaxed);
    tree_.Insert(n);
    spin_.unlock();
    if (deadline.IsInfinite()) {
      // Audit (wait-loop unification): the blocking-count watch runs on SpinWait (the
      // shared spin-then-yield primitive) instead of DeadlineSpinner's clock cadence —
      // an infinite wait has no clock to read.
      SpinWait spin;
      while (n->blocking.load(std::memory_order_acquire) > 0) {
        spin.Spin();
      }
      *out = n;
      return true;
    }
    DeadlineSpinner spinner(deadline);
    while (n->blocking.load(std::memory_order_acquire) > 0) {
      if (!spinner.SpinOrExpire()) {
        // Re-check under the lock: the decrement that admits us may have landed while
        // we were reading the clock. Holding the lock freezes the count.
        LockInternal();
        if (n->blocking.load(std::memory_order_acquire) > 0) {
          RemoveAndNotifyLocked(n);
          spin_.unlock();
          FreeList<Node>::Local().Put(n);
          return false;
        }
        spin_.unlock();
        break;
      }
    }
    *out = n;
    return true;
  }

  bool TryAcquire(const Range& r, bool reader, Handle* out) {
    assert(r.Valid());
    Node* n = FreeList<Node>::Local().Get();
    n->start = r.start;
    n->end = r.end;
    n->reader = reader;
    LockInternal();
    bool blocked = false;
    tree_.ForEachOverlap(r.start, r.end, [&](Node* o) {
      if (!reader || !o->reader) {
        blocked = true;
      }
    });
    if (blocked) {
      spin_.unlock();
      FreeList<Node>::Local().Put(n);
      return false;
    }
    n->seq = next_seq_++;
    n->blocking.store(0, std::memory_order_relaxed);
    tree_.Insert(n);
    spin_.unlock();
    *out = n;
    return true;
  }

  // Removes `n` and decrements the blocking count of every conflicting node that
  // counted n at its own acquisition — exactly the later arrivals (o->seq > n->seq).
  // For a release all conflicting survivors are later arrivals (earlier conflicting
  // nodes must have left the tree for n to have been admitted), so the guard only
  // changes behaviour for aborting waiters. Caller holds the internal spin lock.
  void RemoveAndNotifyLocked(Node* n) {
    tree_.Erase(n);
    tree_.ForEachOverlap(n->start, n->end, [n](Node* o) {
      if ((!n->reader || !o->reader) && o->seq > n->seq) {
        o->blocking.fetch_sub(1, std::memory_order_release);
      }
    });
  }

  void LockInternal() {
    if (spin_stats_ == nullptr) {
      spin_.lock();
      return;
    }
    const uint64_t t0 = WaitStats::NowNs();
    spin_.lock();
    spin_stats_->RecordWrite(WaitStats::NowNs() - t0);
  }

  SpinLock spin_;
  IntervalTree<Node> tree_;
  uint64_t next_seq_ = 1;  // guarded by spin_
  WaitStats* spin_stats_ = nullptr;
};

static_assert(RangeLock<TreeRangeLock>);

}  // namespace srl

#endif  // SRL_BASELINES_TREE_RANGE_LOCK_H_
