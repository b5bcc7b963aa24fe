// Generic epoch-deferred deletion for heterogeneous objects (skip-list nodes, VMAs).
//
// Unlike NodePool (which recycles fixed-type lock nodes), RetireList frees arbitrary
// objects once a grace period has elapsed. Retired objects accumulate in a thread-local
// buffer; when the buffer reaches FlushThreshold() the thread *parks* the batch together
// with a grace snapshot (EpochDomain::GraceTicket) and frees it on a later call once the
// snapshot has elapsed — reclamation never waits.
//
// The non-blocking shape matters because of epoch-per-quantum readers
// (EpochQuantumGuard): a fault-heavy thread keeps its epoch odd across whole batches of
// operations, so a blocking barrier at every flush point would cost the retiring thread
// a full scheduler round per flush (measured as a ~6-10x munmap-throughput collapse on
// one core). Parking costs one snapshot; the memory simply stays alive a little longer
// — bounded by the readers' forced quantum refresh. A blocking Flush() remains for
// destruction and for the parked-batch backstop.
#ifndef SRL_EPOCH_RETIRE_LIST_H_
#define SRL_EPOCH_RETIRE_LIST_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/epoch/epoch_domain.h"
#include "src/sync/topology.h"

namespace srl {

class RetireList {
 public:
  // Per-thread batch size before MaybeFlush parks, derived from the core count at
  // first use (the old constexpr 256 was guessed on a one-core container — ROADMAP
  // PR-5 carryover). The buffer is thread-local, so total deferred memory scales with
  // the thread count; shrinking the per-thread batch as cores grow keeps the
  // aggregate roughly constant and keeps grace snapshots short on busy machines:
  // 1024 / cores, clamped to [64, 256]. CpuCount() == 1 reproduces the old 256
  // exactly. epoch_test asserts this derivation.
  static std::size_t FlushThreshold() {
    static const std::size_t v = std::clamp<std::size_t>(1024 / CpuCount(), 64, 256);
    return v;
  }
  // At most this many separately-ticketed parked batches; beyond it, new batches
  // coalesce into the newest parked batch (ticket union). This bounds bookkeeping,
  // NOT memory: a live thread that idles forever inside an open epoch quantum pins
  // every later retirement until it quiesces or exits — the deliberate
  // memory-over-blocking policy (kernel RCU makes the same call). MaybeFlush never
  // waits; only Flush() (destruction) runs a blocking barrier. Sized so coalescing
  // essentially never happens against healthy quantum readers, whose tickets elapse
  // within one scheduler round — and scaled with the core count, because each running
  // core can hold one quantum open and stretch one more ticket past its grace window:
  // 16 * cores, clamped to [64, 512] (== the old 64 up to four cores). epoch_test
  // asserts this derivation too.
  static std::size_t MaxParkedBatches() {
    static const std::size_t v = std::clamp<std::size_t>(16 * CpuCount(), 64, 512);
    return v;
  }

  RetireList() : rec_(CurrentThreadRec(EpochDomain::Global())) {}

  ~RetireList() { Flush(); }

  RetireList(const RetireList&) = delete;
  RetireList& operator=(const RetireList&) = delete;

  // Defers `delete static_cast<T*>(obj)` until after a grace period. Must be called by
  // the thread that made the object unreachable, after unlinking it. Never flushes
  // inline: Retire() may legally be called while the thread holds locks or ranges, and a
  // barrier at that point could deadlock with threads waiting on those ranges. Callers
  // invoke MaybeFlush() at a quiescent point (holding nothing) instead.
  template <typename T>
  void Retire(T* obj) {
    pending_.push_back({obj, [](void* p) { delete static_cast<T*>(p); }});
  }

  // As above, for objects with bespoke deallocation (e.g. variable-height skip-list
  // nodes created with raw operator new).
  void RetireCustom(void* obj, void (*deleter)(void*)) {
    pending_.push_back({obj, deleter});
  }

  // Parks the current batch once it is large, reaping previously parked batches whose
  // grace period has elapsed. Never blocks, and free for the (FlushThreshold() - 1 of
  // every FlushThreshold()) calls below the threshold — this runs after every munmap,
  // so the ticket polling must stay off that path. Call at operation boundaries,
  // while holding no locks or ranges and outside any scoped epoch critical section
  // (EpochGuard); an open epoch-per-quantum section on the calling thread is fine —
  // the grace snapshot skips the caller's own record.
  void MaybeFlush() {
    if (pending_.size() < FlushThreshold()) {
      return;
    }
    Reap();
    Park();
  }

  // Blocking drain: runs a full barrier and frees everything retired so far, parked
  // batches included. Destruction-only by design — it can wait on another thread's
  // idle open quantum (see kMaxParkedBatches). Must not be called from inside a
  // scoped epoch critical section; the caller's own open quantum is closed here (a
  // barrier only skips *self*, so two threads barriering with open quanta would
  // deadlock on each other's idle epochs).
  void Flush() {
    if (pending_.empty() && parked_.empty()) {
      return;
    }
    EpochDomain::QuiesceQuantum(rec_);
    EpochDomain::Global().Barrier(rec_);
    for (Batch& batch : parked_) {
      FreeAll(batch.objs);
    }
    parked_.clear();
    FreeAll(pending_);
    pending_.clear();
  }

  // Objects retired and not yet freed (buffered + parked).
  std::size_t PendingCount() const {
    std::size_t n = pending_.size();
    for (const Batch& batch : parked_) {
      n += batch.objs.size();
    }
    return n;
  }

  // The calling thread's retire list.
  static RetireList& Local() {
    thread_local RetireList list;
    return list;
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

  void Park() {
    if (EpochDomain::Global().QuiescentNow(rec_)) {
      // No concurrent critical sections: the grace period is already over, no ticket
      // needed.
      FreeAll(pending_);
      pending_.clear();
      return;
    }
    EpochDomain::GraceTicket ticket = EpochDomain::Global().Snapshot(rec_);
    if (parked_.size() >= MaxParkedBatches()) {
      // Bookkeeping bound reached (some section is outliving many grace windows):
      // coalesce into the newest batch instead of blocking. The union ticket frees
      // both batches once both snapshots have elapsed — strictly conservative.
      Batch& newest = parked_.back();
      newest.objs.insert(newest.objs.end(), pending_.begin(), pending_.end());
      newest.ticket.Merge(std::move(ticket));
    } else {
      parked_.push_back({std::move(pending_), std::move(ticket)});
    }
    pending_.clear();
  }

  void Reap() {
    std::erase_if(parked_, [](Batch& batch) {
      if (!batch.ticket.Elapsed()) {
        return false;
      }
      FreeAll(batch.objs);
      return true;
    });
  }

  static void FreeAll(std::vector<Pending>& objs) {
    for (const Pending& p : objs) {
      p.deleter(p.obj);
    }
    objs.clear();
  }

  EpochDomain::ThreadRec* rec_;
  std::vector<Pending> pending_;
  std::vector<Batch> parked_;
};

}  // namespace srl

#endif  // SRL_EPOCH_RETIRE_LIST_H_
