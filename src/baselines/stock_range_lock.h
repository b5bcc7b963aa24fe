// The stock baseline as a range lock: the reader-writer semaphore of the kernel
// experiments (mmap_sem, §7.2) with the range ignored, so every acquisition covers the
// whole resource. Readers share, writers exclude everyone.
#ifndef SRL_BASELINES_STOCK_RANGE_LOCK_H_
#define SRL_BASELINES_STOCK_RANGE_LOCK_H_

#include <chrono>

#include "src/core/range.h"
#include "src/core/range_lock.h"
#include "src/sync/rw_semaphore.h"

namespace srl {

class StockRangeLock {
 public:
  // Points at a static constant naming the mode the semaphore was taken in, so Unlock
  // knows which side to release and the handle still fits a pointer.
  using Handle = const LockMode*;
  static constexpr bool kSharedReaders = true;

  Handle Lock(const Range&, LockMode mode = LockMode::kWrite) {
    if (mode == LockMode::kRead) {
      sem_.lock_shared();
    } else {
      sem_.lock();
    }
    return Tag(mode);
  }

  bool TryLock(const Range&, Handle* out, LockMode mode = LockMode::kWrite) {
    if (!(mode == LockMode::kRead ? sem_.try_lock_shared() : sem_.try_lock())) {
      return false;
    }
    *out = Tag(mode);
    return true;
  }

  bool LockFor(const Range&, std::chrono::nanoseconds timeout, Handle* out,
               LockMode mode = LockMode::kWrite) {
    if (!(mode == LockMode::kRead ? sem_.try_lock_shared_for(timeout)
                                  : sem_.try_lock_for(timeout))) {
      return false;
    }
    *out = Tag(mode);
    return true;
  }

  void Unlock(Handle h) {
    if (*h == LockMode::kRead) {
      sem_.unlock_shared();
    } else {
      sem_.unlock();
    }
  }

 private:
  static constexpr LockMode kModes[] = {LockMode::kRead, LockMode::kWrite};

  static Handle Tag(LockMode mode) { return &kModes[static_cast<int>(mode)]; }

  RwSemaphore sem_;
};

static_assert(RangeLock<StockRangeLock>);

}  // namespace srl

#endif  // SRL_BASELINES_STOCK_RANGE_LOCK_H_
