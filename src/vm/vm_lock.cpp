#include "src/vm/vm_lock.h"

#include "src/sync/admission.h"
#include "src/sync/cacheline.h"
#include "src/vm/vma_index.h"

namespace srl::vm {

namespace {

class StockVmLock final : public VmLock {
 public:
  const char* Name() const override { return "stock"; }

 protected:
  void* DoLockRead(const Range&) override {
    sem_.lock_shared();
    return this;
  }
  void* DoLockWrite(const Range&) override {
    sem_.lock();
    return this;
  }
  bool DoTryLockRead(const Range&, void** out) override {
    if (!sem_.try_lock_shared()) {
      return false;
    }
    *out = this;
    return true;
  }
  bool DoTryLockWrite(const Range&, void** out) override {
    if (!sem_.try_lock()) {
      return false;
    }
    *out = this;
    return true;
  }
  void DoUnlockRead(void*) override { sem_.unlock_shared(); }
  void DoUnlockWrite(void*) override { sem_.unlock(); }

 private:
  RwSemaphore sem_;
};

class TreeVmLock final : public VmLock {
 public:
  const char* Name() const override { return "tree"; }

  void SetSpinWaitStats(WaitStats* stats) override { lock_.SetSpinWaitStats(stats); }

 protected:
  void* DoLockRead(const Range& r) override { return lock_.AcquireRead(r); }
  void* DoLockWrite(const Range& r) override { return lock_.AcquireWrite(r); }
  bool DoTryLockRead(const Range& r, void** out) override {
    TreeRangeLock::Handle h = nullptr;
    if (!lock_.TryAcquireRead(r, &h)) {
      return false;
    }
    *out = h;
    return true;
  }
  bool DoTryLockWrite(const Range& r, void** out) override {
    TreeRangeLock::Handle h = nullptr;
    if (!lock_.TryAcquireWrite(r, &h)) {
      return false;
    }
    *out = h;
    return true;
  }
  void DoUnlockRead(void* h) override { lock_.Release(static_cast<TreeRangeLock::Handle>(h)); }
  void DoUnlockWrite(void* h) override { lock_.Release(static_cast<TreeRangeLock::Handle>(h)); }

 private:
  TreeRangeLock lock_;
};

// The list-rw protocol over one list per stripe (see the header). The fast path stays
// off, so a release only marks its node (RangeList::Release without `fast` never
// touches the head) and a single-stripe handle needs no stripe tag.
class ListVmLock final : public VmLock {
 public:
  explicit ListVmLock(unsigned stripes)
      : stripes_(stripes == 0 ? 1 : stripes),
        lists_(std::make_unique<CacheAligned<RangeList>[]>(stripes_)) {}

  const char* Name() const override { return "list"; }

 protected:
  void* DoLockRead(const Range& r) override {
    return Acquire(r, /*reader=*/true, Deadline::Infinite());
  }
  void* DoLockWrite(const Range& r) override {
    return Acquire(r, /*reader=*/false, Deadline::Infinite());
  }
  bool DoTryLockRead(const Range& r, void** out) override {
    return TryAcquire(r, /*reader=*/true, out);
  }
  bool DoTryLockWrite(const Range& r, void** out) override {
    return TryAcquire(r, /*reader=*/false, out);
  }
  void DoUnlockRead(void* h) override { Release(static_cast<LNode*>(h)); }
  void DoUnlockWrite(void* h) override { Release(static_cast<LNode*>(h)); }

 private:
  // Takes the list of every stripe r covers, in ascending order, and returns the head of
  // the chain of nodes, or null if the deadline ran out. One admission spinner spans the
  // chain: its rotation is what lets a parked thread holding lower stripes back in (see
  // admission.h). A failed try releases the prefix it holds before returning.
  LNode* Acquire(const Range& r, bool reader, const Deadline& deadline) {
    const unsigned lo = VmaIndex::IndexOf(r.start, stripes_);
    const unsigned hi = VmaIndex::IndexOf(r.end - 1, stripes_);
    AdmissionSpinner gate_spinner(&gate_, deadline);
    FailureBudget unbounded;
    LNode* head = nullptr;
    LNode* tail = nullptr;
    for (unsigned k = lo; k <= hi; ++k) {
      LNode* node = nullptr;
      if (!ListRwRangeLock::AcquireIn(lists_[k].value, r, reader, /*fast_path=*/false,
                                      unbounded, deadline, gate_spinner, &node)) {
        Release(head);
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

  bool TryAcquire(const Range& r, bool reader, void** out) {
    LNode* h = Acquire(r, reader, Deadline::Immediate());
    if (h == nullptr) {
      return false;
    }
    *out = h;
    return true;
  }

  // Releases a chain in ascending stripe order; its first node's stripe is recomputed
  // from the range every node carries. The sibling pointer is read BEFORE the release:
  // once marked, a node may be unlinked, retired and reused by another acquisition at
  // once, and this runs outside any epoch critical section.
  void Release(LNode* node) {
    if (node == nullptr) {
      return;
    }
    for (unsigned k = VmaIndex::IndexOf(node->start, stripes_); node != nullptr; ++k) {
      LNode* next = node->sibling;
      lists_[k]->Release(node, /*fast=*/false);
      node = next;
    }
  }

  const unsigned stripes_;
  // One cache line per stripe head: scoped writers of different stripes must not
  // false-share.
  const std::unique_ptr<CacheAligned<RangeList>[]> lists_;
  // Caps active contenders on the slow path across all stripes.
  AdmissionGate gate_;
};

// Exclusive backend: reads are served as writes (the lustre-ex pattern the paper
// benchmarks in read workloads). Safe for AddressSpace because no VM path nests a
// second acquisition inside one that overlaps it — the speculative Mprotect path
// drops its read acquisition before taking the write one. Geometry: 64 KiB windows
// (window_shift=16) keep a page-fault acquisition inside one window, and 64 buckets
// give striped workloads distinct heads (the Fibonacci bucket hash diffuses the
// stripes' high base bits).
class ListLockFreeVmLock final : public VmLock {
 public:
  ListLockFreeVmLock()
      : lock_(ListLockFreeRangeLock::Options{.buckets = 64, .window_shift = 16}) {}

  const char* Name() const override { return "list-lf"; }

 protected:
  void* DoLockRead(const Range& r) override { return lock_.Lock(r); }
  void* DoLockWrite(const Range& r) override { return lock_.Lock(r); }
  bool DoTryLockRead(const Range& r, void** out) override {
    ListLockFreeRangeLock::Handle h = nullptr;
    if (!lock_.TryLock(r, &h)) {
      return false;
    }
    *out = h;
    return true;
  }
  bool DoTryLockWrite(const Range& r, void** out) override {
    ListLockFreeRangeLock::Handle h = nullptr;
    if (!lock_.TryLock(r, &h)) {
      return false;
    }
    *out = h;
    return true;
  }
  void DoUnlockRead(void* h) override {
    lock_.Unlock(static_cast<ListLockFreeRangeLock::Handle>(h));
  }
  void DoUnlockWrite(void* h) override {
    lock_.Unlock(static_cast<ListLockFreeRangeLock::Handle>(h));
  }

 private:
  ListLockFreeRangeLock lock_;
};

}  // namespace

std::unique_ptr<VmLock> MakeVmLock(VmLockKind kind, unsigned stripes) {
  switch (kind) {
    case VmLockKind::kStock:
      return std::make_unique<StockVmLock>();
    case VmLockKind::kTree:
      return std::make_unique<TreeVmLock>();
    case VmLockKind::kList:
      return std::make_unique<ListVmLock>(stripes);
    case VmLockKind::kListLockFree:
      return std::make_unique<ListLockFreeVmLock>();
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
    case VmLockKind::kListLockFree:
      return "list-lf";
  }
  return "?";
}

}  // namespace srl::vm
