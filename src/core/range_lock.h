// The one range-lock API. Every lock in the repository implements it natively:
//
//   Handle Lock(const Range&, LockMode = LockMode::kWrite);
//   bool TryLock(const Range&, Handle*, LockMode = LockMode::kWrite);
//   bool LockFor(const Range&, std::chrono::nanoseconds, Handle*,
//                LockMode = LockMode::kWrite);
//   void Unlock(Handle);
//   static constexpr bool kSharedReaders;  // readers of overlapping ranges coexist
//
// As in the paper's RWRangeAcquire(list, start, end, writer), the mode is an argument
// and one Unlock releases a range taken in either mode: a handle knows its own mode.
// The mode defaults to write, so an exclusive lock reads like a mutex. Exclusive locks
// (kSharedReaders == false) serve reads as writes.
//
// The try/timed contract: a TryLock of a range conflicting with a held acquisition
// fails without blocking; a LockFor gives up once its timeout has elapsed; a failed try
// or timed acquisition holds nothing (no Unlock needed). Handles are owned by the
// acquisition, not the thread: any thread may Unlock them.
#ifndef SRL_CORE_RANGE_LOCK_H_
#define SRL_CORE_RANGE_LOCK_H_

#include <chrono>
#include <concepts>

#include "src/core/range.h"

namespace srl {

enum class LockMode { kRead, kWrite };

template <typename L>
concept RangeLock = requires(L& lock, const Range& r, typename L::Handle h,
                             typename L::Handle* out, std::chrono::nanoseconds timeout,
                             LockMode mode) {
  { lock.Lock(r) } -> std::same_as<typename L::Handle>;
  { lock.Lock(r, mode) } -> std::same_as<typename L::Handle>;
  { lock.TryLock(r, out) } -> std::same_as<bool>;
  { lock.TryLock(r, out, mode) } -> std::same_as<bool>;
  { lock.LockFor(r, timeout, out) } -> std::same_as<bool>;
  { lock.LockFor(r, timeout, out, mode) } -> std::same_as<bool>;
  lock.Unlock(h);
  { L::kSharedReaders } -> std::convertible_to<bool>;
};

// Holds one range for its scope.
template <RangeLock L>
class RangeGuard {
 public:
  RangeGuard(L& lock, const Range& range, LockMode mode = LockMode::kWrite)
      : lock_(lock), h_(lock.Lock(range, mode)) {}
  ~RangeGuard() { lock_.Unlock(h_); }
  RangeGuard(const RangeGuard&) = delete;
  RangeGuard& operator=(const RangeGuard&) = delete;

 private:
  L& lock_;
  typename L::Handle h_;
};

// A reader-writer lock run exclusively: every acquisition is a write, whatever mode it
// asks for (the paper's lustre-ex is the kernel-rw tree lock run this way).
template <RangeLock L>
class Exclusive : public L {
 public:
  using Handle = typename L::Handle;
  static constexpr bool kSharedReaders = false;

  using L::L;

  Handle Lock(const Range& r, LockMode = LockMode::kWrite) { return L::Lock(r); }
  bool TryLock(const Range& r, Handle* out, LockMode = LockMode::kWrite) {
    return L::TryLock(r, out);
  }
  bool LockFor(const Range& r, std::chrono::nanoseconds timeout, Handle* out,
               LockMode = LockMode::kWrite) {
    return L::LockFor(r, timeout, out);
  }
};

}  // namespace srl

#endif  // SRL_CORE_RANGE_LOCK_H_
