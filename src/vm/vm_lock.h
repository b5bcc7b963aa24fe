// The pluggable lock guarding the simulated VM subsystem — the seam where the kernel
// experiments (§7.2) swap mmap_sem for range locks.
//
// Variants (names follow the paper):
//   stock         RwSemaphore; ranges ignored, whole-address-space semantics
//   tree          kernel tree-based range lock (Bueso's patch, ported)
//   list          the paper's reader-writer list-based range lock
//   list-lf       bucketed lock-free exclusive list lock (reads served as writes, the
//                 lustre-ex pattern; disjoint ranges hit disjoint bucket heads)
//
// Instrumentation: attach a WaitStats sink to measure acquisition wait time (read vs
// write), reproducing the lock_stat measurements of Figure 7. TreeVmLock additionally
// exposes the internal spin-lock wait sink for Figure 8.
//
// Striped address spaces: range semantics are unchanged — a Range is a byte range, and
// the lock neither knows nor cares about stripe boundaries. What changes is the
// contract AddressSpace builds on top: a full-range write acquisition (LockFullWrite)
// excludes every scoped writer and locked reader in ANY stripe, and the cross-stripe
// fallback path pairs it with the affected stripes' index mutation locks taken in
// ascending order — together a coherent fence over all stripes the operation touches,
// while lock-free faults in untouched stripes proceed against their own seqcounts.
// FullWriteAcquisitions() therefore counts exactly the operations that failed to stay
// stripe-scoped; bench/abl_scoped_structural reports the split per variant.
#ifndef SRL_VM_VM_LOCK_H_
#define SRL_VM_VM_LOCK_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/baselines/tree_range_lock.h"
#include "src/core/list_lockfree_range_lock.h"
#include "src/core/list_rw_range_lock.h"
#include "src/core/range.h"
#include "src/harness/wait_stats.h"
#include "src/sync/admission.h"
#include "src/sync/rw_semaphore.h"

namespace srl::vm {

enum class VmLockKind {
  kStock,         // reader-writer semaphore (mmap_sem)
  kTree,          // tree-based range lock
  kList,          // list-based range lock
  kListLockFree,  // bucketed lock-free exclusive list lock
};

class VmLock {
 public:
  virtual ~VmLock() = default;

  // Non-virtual interface: measures waits when a sink is attached.
  void* LockRead(const Range& r) {
    if (stats_ == nullptr) {
      return DoLockRead(r);
    }
    const uint64_t t0 = WaitStats::NowNs();
    void* h = DoLockRead(r);
    stats_->RecordRead(WaitStats::NowNs() - t0);
    return h;
  }

  void* LockWrite(const Range& r) {
    CountWrite(r);
    // Full-space writes are the one acquisition class with no range parallelism at
    // all: every contender serializes on the same logical resource regardless of
    // backend, which is exactly the shape that collapses under oversubscription.
    // Gate them at ~#cores of active contenders; the surplus parks. The ticket spans
    // only the acquisition (it releases once DoLockWrite returns), not the user's
    // critical section — restricting *contention*, not *concurrency of holders*.
    AdmissionGate::Ticket ticket(r == Range::Full() ? &full_write_gate_ : nullptr);
    if (stats_ == nullptr) {
      return DoLockWrite(r);
    }
    const uint64_t t0 = WaitStats::NowNs();
    void* h = DoLockWrite(r);
    stats_->RecordWrite(WaitStats::NowNs() - t0);
    return h;
  }

  void* LockFullWrite() { return LockWrite(Range::Full()); }

  // Non-blocking acquisitions (mmap_read_trylock and friends). On success *out holds
  // the handle; on failure nothing is held and *out is untouched. A *successful* try is
  // recorded in the WaitStats sink like any other acquisition (its ~0ns sample keeps
  // Figure 7 a per-acquisition distribution now that the fault path is trylock-first);
  // a failed try records nothing — the blocking fallback that follows it measures the
  // actual wait.
  bool TryLockRead(const Range& r, void** out) {
    if (stats_ == nullptr) {
      return DoTryLockRead(r, out);
    }
    const uint64_t t0 = WaitStats::NowNs();
    if (!DoTryLockRead(r, out)) {
      return false;
    }
    stats_->RecordRead(WaitStats::NowNs() - t0);
    return true;
  }
  bool TryLockWrite(const Range& r, void** out) {
    if (stats_ == nullptr) {
      if (!DoTryLockWrite(r, out)) {
        return false;
      }
      CountWrite(r);
      return true;
    }
    const uint64_t t0 = WaitStats::NowNs();
    if (!DoTryLockWrite(r, out)) {
      return false;
    }
    CountWrite(r);
    stats_->RecordWrite(WaitStats::NowNs() - t0);
    return true;
  }

  void UnlockRead(void* h) { DoUnlockRead(h); }
  void UnlockWrite(void* h) { DoUnlockWrite(h); }

  virtual const char* Name() const = 0;

  // Attach/detach a wait-time sink. Set only while quiescent.
  void SetWaitStats(WaitStats* stats) { stats_ = stats; }

  // For Figure 8: the internal spin-lock sink (tree lock only; no-op otherwise).
  virtual void SetSpinWaitStats(WaitStats*) {}

  // Write-acquisition accounting: how many writes took the whole address space
  // (Range::Full()) versus a proper sub-range. The scoped structural variants live or
  // die by this ratio — bench/abl_scoped_structural reports it per variant.
  uint64_t FullWriteAcquisitions() const {
    return full_writes_.load(std::memory_order_relaxed);
  }
  uint64_t RangedWriteAcquisitions() const {
    return ranged_writes_.load(std::memory_order_relaxed);
  }

 protected:
  virtual void* DoLockRead(const Range& r) = 0;
  virtual void* DoLockWrite(const Range& r) = 0;
  virtual bool DoTryLockRead(const Range& r, void** out) = 0;
  virtual bool DoTryLockWrite(const Range& r, void** out) = 0;
  virtual void DoUnlockRead(void* h) = 0;
  virtual void DoUnlockWrite(void* h) = 0;

 private:
  void CountWrite(const Range& r) {
    if (r == Range::Full()) {
      full_writes_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ranged_writes_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  WaitStats* stats_ = nullptr;
  std::atomic<uint64_t> full_writes_{0};
  std::atomic<uint64_t> ranged_writes_{0};
  // Admission control for the full-address-space write path (see LockWrite).
  AdmissionGate full_write_gate_;
};

// Factory.
std::unique_ptr<VmLock> MakeVmLock(VmLockKind kind);

const char* VmLockKindName(VmLockKind kind);

}  // namespace srl::vm

#endif  // SRL_VM_VM_LOCK_H_
