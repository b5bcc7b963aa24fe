// Anti-starvation layer for the list-based range locks (paper §4.3).
//
// The raw list algorithms are deadlock-free but not starvation-free: a thread can lose
// its insertion CAS (or have its traversal restarted) indefinitely often while other
// threads churn the list. The remedy is an auxiliary *fair* reader-writer lock plus an
// "impatient" counter:
//
//   * common case (counter == 0): acquire the range directly, with bounded patience;
//   * a thread that exhausts its patience bumps the counter and takes the auxiliary lock
//     for WRITE, which holds off all newly arriving acquisitions (they see the non-zero
//     counter and queue on the auxiliary lock for READ) while in-flight ones drain;
//   * the counter is decremented when the impatient thread releases the auxiliary lock.
//
// The race between a thread reading zero and another thread incrementing the counter is
// benign (the paper makes the same observation): the counter only adds fairness, the
// underlying range lock alone enforces exclusion.
#ifndef SRL_CORE_FAIR_LIST_RANGE_LOCK_H_
#define SRL_CORE_FAIR_LIST_RANGE_LOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/core/range.h"
#include "src/core/range_lock.h"
#include "src/sync/fair_rw_lock.h"

namespace srl {

// Fairness wrapper over a list-based range lock (ListRangeLock or ListRwRangeLock),
// which supplies the bounded-patience LockBounded. For list-rw, writer validation
// failures count against patience, so a writer forever restarted by a reader stream
// eventually escalates — the starvation scenario §4.2 calls out.
template <RangeLock Inner>
class FairRangeLock {
 public:
  struct Options {
    typename Inner::Options inner;
    // Lock-induced failures (lost CASes / restarts) tolerated before going impatient.
    int patience = 16;
  };

  using Handle = typename Inner::Handle;
  static constexpr bool kSharedReaders = Inner::kSharedReaders;

  FairRangeLock() : FairRangeLock(Options{}) {}
  explicit FairRangeLock(Options options)
      : inner_(options.inner), patience_(options.patience) {}

  Handle Lock(const Range& range, LockMode mode = LockMode::kWrite) {
    Handle h = nullptr;
    if (impatient_.load(std::memory_order_acquire) == 0) {
      if (inner_.LockBounded(range, patience_, &h, mode)) {
        return h;
      }
      // Patience exhausted — escalate below.
    } else {
      // Impatient thread(s) ahead of us: wait our turn, then acquire normally. Readers
      // of the auxiliary lock proceed in parallel with each other.
      aux_.lock_shared();
      h = inner_.Lock(range, mode);
      aux_.unlock_shared();
      return h;
    }
    impatient_.fetch_add(1, std::memory_order_acq_rel);
    aux_.lock();
    h = inner_.Lock(range, mode);
    aux_.unlock();
    impatient_.fetch_sub(1, std::memory_order_acq_rel);
    return h;
  }

  // Non-blocking / timed acquisitions go straight to the inner lock, bypassing the
  // fairness machinery: a try acquisition never waits, so it cannot starve, and making
  // it queue behind impatient threads would turn "fail fast" into "block". This mirrors
  // the kernel, where down_read_trylock ignores the waiter queue.
  bool TryLock(const Range& range, Handle* out, LockMode mode = LockMode::kWrite) {
    return inner_.TryLock(range, out, mode);
  }
  bool LockFor(const Range& range, std::chrono::nanoseconds timeout, Handle* out,
               LockMode mode = LockMode::kWrite) {
    return inner_.LockFor(range, timeout, out, mode);
  }

  void Unlock(Handle h) { inner_.Unlock(h); }

 private:
  Inner inner_;
  FairRwLock aux_;
  std::atomic<uint32_t> impatient_{0};
  int patience_;
};

}  // namespace srl

#endif  // SRL_CORE_FAIR_LIST_RANGE_LOCK_H_
