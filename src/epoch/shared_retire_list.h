// Epoch-deferred deletion for objects owned by a shared structure rather than a
// thread — the per-stripe companion of RetireList.
//
// RetireList is thread-local by design: a retiring thread parks its own batches and
// reaps them on its own later calls, which is contention-free but ties the backlog's
// lifetime to one thread. That is the wrong shape for a striped VMA index, where any
// structural writer of a stripe may unlink VMAs and *any* later writer of the same
// stripe should be able to reap them — retired memory belongs to the stripe's domain,
// not to whichever thread happened to run the munmap. A SharedRetireList is owned by
// the stripe and protected by its own small spin lock; producers are the stripe's
// structural writers, which the stripe's mutation lock already serializes, so the lock
// is effectively uncontended and exists only so reapers need not hold the tree lock.
//
// Reclamation is the same non-blocking GraceTicket protocol as RetireList: batches
// park with a snapshot of in-flight critical sections and are freed once the snapshot
// has elapsed — MaybeFlush is O(1) below the threshold (one relaxed load). Unlike
// RetireList the backlog is bounded in memory, not only in bookkeeping: a stripe's
// unmap rate is high enough that one section outliving a few grace windows (a reader
// whose CPU was taken away mid-quantum) would grow the backlog by megabytes. Once
// MaxParkedBatches() batches are parked, MaybeFlush stops parking and waits a grace
// period out (Flush), so a stripe never holds more than MaxParkedBatches() + 1
// flush thresholds of retired objects. Healthy quantum readers elapse a ticket
// within one flush interval, so the wait runs only while some section is stalled —
// and Barrier's watchdog evicts an idle quantum, so it cannot wait forever.
//
// Lock ordering: callers may invoke Retire() while holding the stripe's tree mutation
// lock (the list lock nests inside it); MaybeFlush()/Flush() must be called holding no
// locks or ranges, like RetireList. Objects are freed outside the list lock.
#ifndef SRL_EPOCH_SHARED_RETIRE_LIST_H_
#define SRL_EPOCH_SHARED_RETIRE_LIST_H_

#include <atomic>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "src/epoch/epoch_domain.h"
#include "src/epoch/retire_list.h"
#include "src/sync/spin_lock.h"

namespace srl {

class SharedRetireList {
 public:
  // Pending-count threshold before MaybeFlush parks a batch. It follows RetireList's
  // core-count derivation — a high-churn stripe on a big box wants smaller batches so
  // grace snapshots stay short.
  static std::size_t DefaultFlushThreshold() { return RetireList::FlushThreshold(); }
  // Memory bound on the parked backlog, in batches: reaching it makes MaybeFlush wait
  // a grace period out instead of parking another batch (see the header comment).
  static constexpr std::size_t MaxParkedBatches() { return 8; }

  SharedRetireList() = default;
  ~SharedRetireList() { Flush(); }

  SharedRetireList(const SharedRetireList&) = delete;
  SharedRetireList& operator=(const SharedRetireList&) = delete;

  // Defers `delete static_cast<T*>(obj)` until after a grace period. Must be called by
  // the thread that unlinked the object; holding the owning structure's mutation lock
  // is fine (and typical).
  template <typename T>
  void Retire(T* obj) {
    RetireCustom(obj, [](void* p) { delete static_cast<T*>(p); });
  }

  void RetireCustom(void* obj, void (*deleter)(void*)) {
    std::lock_guard<SpinLock> g(lock_);
    pending_.push_back({obj, deleter});
    pending_count_.store(pending_.size(), std::memory_order_relaxed);
  }

  // Parks the pending batch once it is large and reaps parked batches whose grace has
  // elapsed; free below the threshold. Blocks (Flush) only when MaxParkedBatches()
  // batches are still parked after the reap. Call at operation boundaries holding no
  // locks or ranges and outside any scoped epoch critical section (an open
  // epoch-per-quantum section on the calling thread is fine — between guards the
  // caller holds no references, the grace snapshot skips its record, and Flush closes
  // it before its barrier).
  void MaybeFlush() {
    if (pending_count_.load(std::memory_order_relaxed) < DefaultFlushThreshold()) {
      return;
    }
    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    std::vector<Pending> to_free;
    bool full = false;
    {
      std::lock_guard<SpinLock> g(lock_);
      Reap(&to_free);
      full = parked_.size() >= MaxParkedBatches();
      if (!full) {
        Park(rec, &to_free);
      }
    }
    FreeAll(to_free);
    if (full) {
      Flush();
    }
  }

  // Blocking drain: a full barrier, then everything retired so far is freed. Runs at
  // destruction and when MaybeFlush finds the parked backlog full; it can wait on
  // another thread's stalled section, or on an idle open quantum until Barrier's
  // watchdog evicts it.
  void Flush() {
    std::vector<Pending> to_free;
    {
      std::lock_guard<SpinLock> g(lock_);
      for (Batch& batch : parked_) {
        to_free.insert(to_free.end(), batch.objs.begin(), batch.objs.end());
      }
      parked_.clear();
      to_free.insert(to_free.end(), pending_.begin(), pending_.end());
      pending_.clear();
      pending_count_.store(0, std::memory_order_relaxed);
    }
    if (to_free.empty()) {
      return;
    }
    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    EpochDomain::QuiesceQuantum(rec);
    EpochDomain::Global().Barrier(rec);
    FreeAll(to_free);
  }

  // Objects retired and not yet freed (buffered + parked) — racy, for tests.
  std::size_t PendingCount() const {
    std::lock_guard<SpinLock> g(lock_);
    std::size_t n = pending_.size();
    for (const Batch& batch : parked_) {
      n += batch.objs.size();
    }
    return n;
  }

 private:
  struct Pending {
    void* obj;
    void (*deleter)(void*);
  };

  struct Batch {
    std::vector<Pending> objs;
    EpochDomain::GraceTicket ticket;
  };

  // Under lock_. Moves elapsed batches' objects into *out for freeing outside the lock.
  void Reap(std::vector<Pending>* out) {
    std::erase_if(parked_, [out](Batch& batch) {
      if (!batch.ticket.Elapsed()) {
        return false;
      }
      out->insert(out->end(), batch.objs.begin(), batch.objs.end());
      return true;
    });
  }

  // Under lock_. A quiescent domain means grace has trivially elapsed: the batch goes
  // straight to *out (freed outside the lock). Otherwise it parks with a snapshot.
  void Park(EpochDomain::ThreadRec* rec, std::vector<Pending>* out) {
    if (pending_.empty()) {
      return;
    }
    if (EpochDomain::Global().QuiescentNow(rec)) {
      out->insert(out->end(), pending_.begin(), pending_.end());
      pending_.clear();
    } else {
      parked_.push_back({std::move(pending_), EpochDomain::Global().Snapshot(rec)});
      pending_ = {};
    }
    pending_count_.store(0, std::memory_order_relaxed);
  }

  static void FreeAll(std::vector<Pending>& objs) {
    for (const Pending& p : objs) {
      p.deleter(p.obj);
    }
    objs.clear();
  }

  mutable SpinLock lock_;
  std::atomic<std::size_t> pending_count_{0};
  std::vector<Pending> pending_;
  std::vector<Batch> parked_;
};

}  // namespace srl

#endif  // SRL_EPOCH_SHARED_RETIRE_LIST_H_
