// The pluggable lock guarding the simulated VM subsystem — the seam where the kernel
// experiments (§7.2) swap mmap_sem for range locks.
//
// Variants (names follow the paper):
//   stock         RwSemaphore; ranges ignored, whole-address-space semantics
//   tree          kernel tree-based range lock (Bueso's patch, ported)
//   list          the paper's reader-writer list-based range lock, one list per stripe
//
// Every variant is an instance of one template (RangeVmLock, vm_lock.cpp) over a lock
// with the native range-lock API (src/core/range_lock.h); the VM calls are that API's,
// with a void* handle.
//
// Instrumentation: attach a WaitStats sink to measure acquisition wait time (read vs
// write), reproducing the lock_stat measurements of Figure 7. The tree variant
// additionally exposes the internal spin-lock wait sink for Figure 8.
//
// Striped address spaces: a Range is still a byte range, but the list lock follows the
// address space's stripes (VmaIndex). It keeps one cache-aligned list-rw head per
// stripe and routes every address through VmaIndex::IndexOf, so scoped operations in
// different stripes share no list head. A range inside one stripe takes that stripe's
// list only. A range that crosses stripes, or Range::Full(), takes the list of every
// stripe it covers, in ascending stripe order, one node per list chained through
// LNode::sibling. Two overlapping ranges share an address, hence a stripe, hence a list
// in which Listings 2 and 3 see both, so exclusion is exactly the one-list lock's. The
// other backends ignore stripes.
//
// Lock order, which keeps every wait chain increasing: the covered stripes' range lists
// in ascending order, then the stripe mutation locks (VmaStripe::LockMutate) in
// ascending order; a stripe mutation lock never waits on a range lock. A writer waiting
// at stripe k holds only stripes < k; a reader waiting in RValidate at stripe k holds
// only stripes <= k (its own node at k is already in that list).
//
// The contract AddressSpace builds on top: a full-range write acquisition
// (LockFullWrite) excludes every scoped writer and locked reader in ANY stripe, and the
// cross-stripe fallback path pairs it with the affected stripes' index mutation locks
// taken in ascending order — together a coherent fence over all stripes the operation
// touches, while lock-free faults in untouched stripes proceed against their own
// seqcounts. FullWriteAcquisitions() therefore counts exactly the operations that
// failed to stay stripe-scoped; bench/abl_scoped_structural reports the split per
// variant.
#ifndef SRL_VM_VM_LOCK_H_
#define SRL_VM_VM_LOCK_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/core/range.h"
#include "src/core/range_lock.h"
#include "src/harness/wait_stats.h"
#include "src/sync/cacheline.h"
#include "src/sync/topology.h"

namespace srl::vm {

enum class VmLockKind {
  kStock,  // reader-writer semaphore (mmap_sem)
  kTree,   // tree-based range lock
  kList,   // list-based range lock
};

class VmLock {
 public:
  virtual ~VmLock() = default;

  // Non-virtual interface: measures waits when a sink is attached. A handle records
  // the mode it was taken in, so one Unlock releases either.
  void* Lock(const Range& r, LockMode mode = LockMode::kWrite) {
    if (mode == LockMode::kWrite) {
      CountWrite(r);
    }
    if (stats_ == nullptr) {
      return DoLock(r, mode);
    }
    const uint64_t t0 = WaitStats::NowNs();
    void* h = DoLock(r, mode);
    Record(mode, WaitStats::NowNs() - t0);
    return h;
  }

  void* LockFullWrite() { return Lock(Range::Full()); }

  // Non-blocking acquisitions (mmap_read_trylock and friends). On success *out holds
  // the handle; on failure nothing is held and *out is untouched. A *successful* try is
  // recorded in the WaitStats sink like any other acquisition (its ~0ns sample keeps
  // Figure 7 a per-acquisition distribution now that the fault path is trylock-first),
  // and a successful write try counts as a write; a failed try records and counts
  // nothing — the blocking fallback that follows it measures the actual wait.
  bool TryLock(const Range& r, void** out, LockMode mode = LockMode::kWrite) {
    const uint64_t t0 = stats_ == nullptr ? 0 : WaitStats::NowNs();
    if (!DoTryLock(r, mode, out)) {
      return false;
    }
    if (mode == LockMode::kWrite) {
      CountWrite(r);
    }
    if (stats_ != nullptr) {
      Record(mode, WaitStats::NowNs() - t0);
    }
    return true;
  }

  void Unlock(void* h) { DoUnlock(h); }

  virtual const char* Name() const = 0;

  // Attach/detach a wait-time sink. Set only while quiescent.
  void SetWaitStats(WaitStats* stats) { stats_ = stats; }

  // For Figure 8: the internal spin-lock sink (tree lock only; no-op otherwise).
  virtual void SetSpinWaitStats(WaitStats*) {}

  // Write-acquisition accounting: how many writes took the whole address space
  // (Range::Full()) versus a proper sub-range. The scoped structural variants live or
  // die by this ratio — bench/abl_scoped_structural reports it per variant. Each
  // thread counts into its own counter slot (src/sync/topology.h), so a ranged write
  // dirties no line that another core reads; these sum the slots.
  uint64_t FullWriteAcquisitions() const { return SumWrites(&WriteCounts::full); }
  uint64_t RangedWriteAcquisitions() const { return SumWrites(&WriteCounts::ranged); }

 protected:
  virtual void* DoLock(const Range& r, LockMode mode) = 0;
  virtual bool DoTryLock(const Range& r, LockMode mode, void** out) = 0;
  virtual void DoUnlock(void* h) = 0;

 private:
  struct alignas(kCacheLineSize) WriteCounts {
    std::atomic<uint64_t> full{0};
    std::atomic<uint64_t> ranged{0};
  };

  void Record(LockMode mode, uint64_t ns) {
    if (mode == LockMode::kRead) {
      stats_->RecordRead(ns);
    } else {
      stats_->RecordWrite(ns);
    }
  }

  void CountWrite(const Range& r) {
    WriteCounts& mine = *writes_.Mine();
    std::atomic<uint64_t>& n = r == Range::Full() ? mine.full : mine.ranged;
    n.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t SumWrites(std::atomic<uint64_t> WriteCounts::*m) const {
    uint64_t sum = 0;
    writes_.ForEach(
        [&](const WriteCounts* w) { sum += (w->*m).load(std::memory_order_relaxed); });
    return sum;
  }

  WaitStats* stats_ = nullptr;
  SlotBlocks<WriteCounts> writes_{1};  // one WriteCounts per counter slot
};

// Factory. `stripes` is the guarded space's stripe count (VmaIndex::StripeCount());
// only kList uses it, one list per stripe (0 counts as 1).
std::unique_ptr<VmLock> MakeVmLock(VmLockKind kind, unsigned stripes = 1);

const char* VmLockKindName(VmLockKind kind);

}  // namespace srl::vm

#endif  // SRL_VM_VM_LOCK_H_
