#include "src/vm/vm_lock.h"

#include <chrono>
#include <memory>
#include <type_traits>
#include <utility>

#include "src/baselines/stock_range_lock.h"
#include "src/baselines/tree_range_lock.h"
#include "src/core/list_rw_range_lock.h"
#include "src/sync/admission.h"
#include "src/sync/cacheline.h"
#include "src/sync/deadline.h"
#include "src/vm/vma_index.h"

namespace srl::vm {

namespace {

// The list-rw protocol over one list per stripe (see the header). The fast path stays
// off, so a release only marks its node (RangeList::Release without `fast` never
// touches the head) and a single-stripe handle needs no stripe tag.
class StripedListRangeLock {
 public:
  using Handle = LNode*;
  static constexpr bool kSharedReaders = true;

  explicit StripedListRangeLock(unsigned stripes)
      : stripes_(stripes == 0 ? 1 : stripes),
        lists_(std::make_unique<CacheAligned<RangeList>[]>(stripes_)) {}

  Handle Lock(const Range& r, LockMode mode = LockMode::kWrite) {
    return Acquire(r, mode, Deadline::Infinite());
  }
  bool TryLock(const Range& r, Handle* out, LockMode mode = LockMode::kWrite) {
    return Store(Acquire(r, mode, Deadline::Immediate()), out);
  }
  bool LockFor(const Range& r, std::chrono::nanoseconds timeout, Handle* out,
               LockMode mode = LockMode::kWrite) {
    return Store(Acquire(r, mode, Deadline::After(timeout)), out);
  }

  // Releases a chain in ascending stripe order; its first node's stripe is recomputed
  // from the range every node carries. The sibling pointer is read BEFORE the release:
  // once marked, a node may be unlinked, retired and reused by another acquisition at
  // once, and this runs outside any epoch critical section.
  void Unlock(Handle node) {
    if (node == nullptr) {
      return;
    }
    for (unsigned k = VmaIndex::IndexOf(node->start, stripes_); node != nullptr; ++k) {
      LNode* next = node->sibling;
      lists_[k]->Release(node, /*fast=*/false);
      node = next;
    }
  }

 private:
  // Takes the list of every stripe r covers, in ascending order, and returns the head of
  // the chain of nodes, or null if the deadline ran out. One admission spinner spans the
  // chain: its rotation is what lets a parked thread holding lower stripes back in (see
  // admission.h). A failed try releases the prefix it holds before returning.
  LNode* Acquire(const Range& r, LockMode mode, const Deadline& deadline) {
    const unsigned lo = VmaIndex::IndexOf(r.start, stripes_);
    const unsigned hi = VmaIndex::IndexOf(r.end - 1, stripes_);
    AdmissionSpinner gate_spinner(&gate_, deadline);
    FailureBudget unbounded;
    LNode* head = nullptr;
    LNode* tail = nullptr;
    for (unsigned k = lo; k <= hi; ++k) {
      LNode* node = nullptr;
      if (!ListRwRangeLock::AcquireIn(lists_[k].value, r, mode, /*fast_path=*/false,
                                      unbounded, deadline, gate_spinner, &node)) {
        Unlock(head);
        return nullptr;
      }
      if (tail != nullptr) {
        tail->sibling = node;
      } else {
        head = node;
      }
      tail = node;
    }
    return head;
  }

  static bool Store(LNode* h, Handle* out) {
    if (h == nullptr) {
      return false;
    }
    *out = h;
    return true;
  }

  const unsigned stripes_;
  // One cache line per stripe head: scoped writers of different stripes must not
  // false-share.
  const std::unique_ptr<CacheAligned<RangeList>[]> lists_;
  // Caps active contenders on the slow path across all stripes.
  AdmissionGate gate_;
};

// Every variant: the VM front over one range lock, whose pointer handle travels as a
// void*.
template <RangeLock L>
  requires std::is_pointer_v<typename L::Handle>
class RangeVmLock final : public VmLock {
 public:
  template <typename... Args>
  explicit RangeVmLock(VmLockKind kind, Args&&... args)
      : kind_(kind), lock_(std::forward<Args>(args)...) {}

  const char* Name() const override { return VmLockKindName(kind_); }

  void SetSpinWaitStats(WaitStats* stats) override {
    if constexpr (requires { lock_.SetSpinWaitStats(stats); }) {
      lock_.SetSpinWaitStats(stats);
    }
  }

 protected:
  void* DoLock(const Range& r, LockMode mode) override {
    return ToVoid(lock_.Lock(r, mode));
  }
  bool DoTryLock(const Range& r, LockMode mode, void** out) override {
    typename L::Handle h{};
    if (!lock_.TryLock(r, &h, mode)) {
      return false;
    }
    *out = ToVoid(h);
    return true;
  }
  void DoUnlock(void* h) override { lock_.Unlock(static_cast<typename L::Handle>(h)); }

 private:
  static void* ToVoid(typename L::Handle h) {
    return const_cast<void*>(static_cast<const void*>(h));
  }

  const VmLockKind kind_;
  L lock_;
};

static_assert(RangeLock<StockRangeLock> && RangeLock<TreeRangeLock> &&
              RangeLock<StripedListRangeLock>);

}  // namespace

std::unique_ptr<VmLock> MakeVmLock(VmLockKind kind, unsigned stripes) {
  switch (kind) {
    case VmLockKind::kStock:
      return std::make_unique<RangeVmLock<StockRangeLock>>(kind);
    case VmLockKind::kTree:
      return std::make_unique<RangeVmLock<TreeRangeLock>>(kind);
    case VmLockKind::kList:
      return std::make_unique<RangeVmLock<StripedListRangeLock>>(kind, stripes);
  }
  return nullptr;
}

const char* VmLockKindName(VmLockKind kind) {
  switch (kind) {
    case VmLockKind::kStock:
      return "stock";
    case VmLockKind::kTree:
      return "tree";
    case VmLockKind::kList:
      return "list";
  }
  return "?";
}

}  // namespace srl::vm
