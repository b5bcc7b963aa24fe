#include "src/vm/vm_lock.h"

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

class ListVmLock final : public VmLock {
 public:
  const char* Name() const override { return "list"; }

 protected:
  void* DoLockRead(const Range& r) override { return lock_.LockRead(r); }
  void* DoLockWrite(const Range& r) override { return lock_.LockWrite(r); }
  bool DoTryLockRead(const Range& r, void** out) override {
    ListRwRangeLock::Handle h = nullptr;
    if (!lock_.TryLockRead(r, &h)) {
      return false;
    }
    *out = h;
    return true;
  }
  bool DoTryLockWrite(const Range& r, void** out) override {
    ListRwRangeLock::Handle h = nullptr;
    if (!lock_.TryLockWrite(r, &h)) {
      return false;
    }
    *out = h;
    return true;
  }
  void DoUnlockRead(void* h) override { lock_.Unlock(static_cast<ListRwRangeLock::Handle>(h)); }
  void DoUnlockWrite(void* h) override { lock_.Unlock(static_cast<ListRwRangeLock::Handle>(h)); }

 private:
  ListRwRangeLock lock_;
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

std::unique_ptr<VmLock> MakeVmLock(VmLockKind kind) {
  switch (kind) {
    case VmLockKind::kStock:
      return std::make_unique<StockVmLock>();
    case VmLockKind::kTree:
      return std::make_unique<TreeVmLock>();
    case VmLockKind::kList:
      return std::make_unique<ListVmLock>();
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
