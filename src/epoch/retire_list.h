// Epoch-deferred deletion for heterogeneous objects (skip-list nodes, VMAs).
//
// Unlike NodePool (which recycles fixed-type lock nodes), RetireList frees arbitrary
// objects once a grace period has elapsed. Retired objects accumulate in a pending
// buffer; once it reaches FlushThreshold(), MaybeFlush hands it to a GraceBatches core,
// which frees it at once when no critical section is in flight or parks it with a
// grace snapshot for a later MaybeFlush to reap — reclamation does not wait.
//
// One list serves two kinds of owner. RetireList::Local() is a thread's own list (the
// skip lists). A VmaStripe owns one shared by the stripe's structural writers: any
// writer of the stripe may unlink VMAs and any later writer may reap them, so retired
// memory belongs to the stripe, not to whichever thread ran the munmap. A small spin
// lock guards the list so reapers need not hold the stripe's tree lock; it is
// uncontended for a thread's own list and nearly so for a stripe, whose mutation lock
// already serializes the producers.
//
// The backlog is bounded in memory, not only in bookkeeping: a stripe's unmap rate is
// high enough that one section outliving a few grace windows (a reader whose CPU was
// taken away mid-quantum) would grow the backlog by megabytes. Once MaxParkedBatches()
// batches are still parked after a reap, MaybeFlush stops parking and waits a grace
// period out (Flush), so a list never holds more than MaxParkedBatches() + 1 flush
// thresholds of retired objects. Healthy quantum readers elapse a ticket within one
// flush interval, so the wait runs only while some section is stalled — and Barrier's
// watchdog evicts an idle quantum, so it cannot wait forever.
//
// Lock ordering: Retire() may be called while holding locks or ranges (a stripe's
// tree mutation lock, typically; the list lock nests inside it). MaybeFlush()/Flush()
// must be called holding no locks or ranges. Objects are freed outside the list lock.
#ifndef SRL_EPOCH_RETIRE_LIST_H_
#define SRL_EPOCH_RETIRE_LIST_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "src/epoch/epoch_domain.h"
#include "src/epoch/grace_batches.h"
#include "src/sync/spin_lock.h"
#include "src/sync/topology.h"

namespace srl {

class RetireList {
 public:
  // Pending-count threshold before MaybeFlush parks a batch, derived from the core
  // count at first use (the old constexpr 256 was guessed on a one-core container).
  // Every thread's own list holds up to a batch, so total deferred memory scales with
  // the thread count; shrinking the batch as cores grow keeps the aggregate roughly
  // constant and keeps grace snapshots short on busy machines: 1024 / cores, clamped
  // to [64, 256]. CpuCount() == 1 reproduces the old 256 exactly. epoch_test asserts
  // this derivation.
  static std::size_t FlushThreshold() {
    static const std::size_t v = std::clamp<std::size_t>(1024 / CpuCount(), 64, 256);
    return v;
  }
  // Memory bound on the parked backlog, in batches: reaching it makes MaybeFlush wait
  // a grace period out instead of parking another batch (see the header comment).
  static constexpr std::size_t MaxParkedBatches() { return Batches::kMaxBatches; }

  RetireList() = default;
  ~RetireList() { Flush(); }

  RetireList(const RetireList&) = delete;
  RetireList& operator=(const RetireList&) = delete;

  // Defers `delete static_cast<T*>(obj)` until after a grace period. Must be called by
  // the thread that made the object unreachable, after unlinking it. Never frees
  // inline (see the lock-ordering note above).
  template <typename T>
  void Retire(T* obj) {
    RetireCustom(obj, [](void* p) { delete static_cast<T*>(p); });
  }

  // As above, for objects with bespoke deallocation (e.g. variable-height skip-list
  // nodes created with raw operator new).
  void RetireCustom(void* obj, void (*deleter)(void*)) {
    std::lock_guard<SpinLock> g(lock_);
    pending_.push_back({obj, deleter});
    pending_count_.store(pending_.size(), std::memory_order_relaxed);
  }

  // Parks the pending batch once it is large and reaps parked batches whose grace has
  // elapsed; free below the threshold (one relaxed load — this runs after every
  // munmap). Blocks (Flush) only when MaxParkedBatches() batches are still parked
  // after the reap. Call at operation boundaries holding no locks or ranges and
  // outside any scoped epoch critical section (an open epoch-per-quantum section on
  // the calling thread is fine — between guards the caller holds no references, the
  // grace snapshot skips its record, and Flush closes it before its barrier).
  void MaybeFlush() {
    if (pending_count_.load(std::memory_order_relaxed) < FlushThreshold()) {
      return;
    }
    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    std::vector<Pending> to_free;
    auto take = [&to_free](std::vector<Pending>& objs) { Take(&to_free, objs); };
    bool full = false;
    {
      std::lock_guard<SpinLock> g(lock_);
      parked_.Reap(take);
      full = parked_.Full();
      if (!full && !pending_.empty()) {
        parked_.Park(rec, pending_, take);
        pending_count_.store(0, std::memory_order_relaxed);
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
  // watchdog evicts it. Must not be called from inside a scoped epoch critical
  // section; the caller's own open quantum is closed here (a barrier only skips
  // *self*, so two threads barriering with open quanta would deadlock on each other's
  // idle epochs).
  void Flush() {
    std::vector<Pending> to_free;
    {
      std::lock_guard<SpinLock> g(lock_);
      parked_.DrainAll([&to_free](std::vector<Pending>& objs) { Take(&to_free, objs); });
      Take(&to_free, pending_);
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
    parked_.ForEach([&n](const std::vector<Pending>& objs) { n += objs.size(); });
    return n;
  }

  // The calling thread's retire list. The thread's epoch record is bound first:
  // thread_locals are destroyed in reverse order of construction, so the record's slot
  // outlives the list, whose destructor's Flush looks the record up.
  static RetireList& Local() {
    [[maybe_unused]] thread_local EpochDomain::ThreadRec* const rec =
        CurrentThreadRec(EpochDomain::Global());
    thread_local RetireList list;
    return list;
  }

 private:
  struct Pending {
    void* obj;
    void (*deleter)(void*);
  };
  using Batches = GraceBatches<std::vector<Pending>>;

  // Moves `objs` onto *out for freeing outside the lock.
  static void Take(std::vector<Pending>* out, std::vector<Pending>& objs) {
    out->insert(out->end(), objs.begin(), objs.end());
    objs.clear();
  }

  static void FreeAll(const std::vector<Pending>& objs) {
    for (const Pending& p : objs) {
      p.deleter(p.obj);
    }
  }

  mutable SpinLock lock_;
  std::atomic<std::size_t> pending_count_{0};
  std::vector<Pending> pending_;
  Batches parked_;
};

}  // namespace srl

#endif  // SRL_EPOCH_RETIRE_LIST_H_
