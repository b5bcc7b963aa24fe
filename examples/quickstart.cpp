// Quickstart: the scalable range-lock API in five minutes.
//
// Every lock in the repository speaks the same calls (src/core/range_lock.h):
//   Lock(range, mode)  TryLock(range, &h, mode)  LockFor(range, timeout, &h, mode)
//   Unlock(h)
// where the mode is LockMode::kRead or LockMode::kWrite and defaults to write.
//
// Build & run:  ./build/examples/quickstart
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "src/core/fair_list_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/core/list_rw_range_lock.h"
#include "src/core/range_lock.h"

int main() {
  using srl::LockMode;
  using srl::Range;
  using srl::RangeGuard;

  // 1. Exclusive range lock (paper §4.1): disjoint ranges proceed in parallel,
  //    overlapping ranges serialize. With no mode, an acquisition is a write.
  srl::ListRangeLock mutex_lock;
  {
    auto a = mutex_lock.Lock({0, 100});     // holds [0,100)
    auto b = mutex_lock.Lock({100, 200});   // adjacent — no conflict (end is exclusive)
    std::cout << "holding [0,100) and [100,200) simultaneously\n";
    mutex_lock.Unlock(b);
    mutex_lock.Unlock(a);
  }

  // RAII style: one guard for every lock and mode.
  {
    RangeGuard guard(mutex_lock, {42, 64});
    std::cout << "holding [42,64) via RangeGuard\n";
  }

  // 2. Reader-writer variant (§4.2): overlapping readers share; writers exclude. One
  //    Unlock releases either mode.
  srl::ListRwRangeLock rw_lock;
  {
    auto r1 = rw_lock.Lock({0, 1000}, LockMode::kRead);
    auto r2 = rw_lock.Lock({500, 1500}, LockMode::kRead);  // overlaps r1: both read
    std::cout << "two overlapping readers inside\n";
    rw_lock.Unlock(r1);
    rw_lock.Unlock(r2);
  }

  // 3. Real concurrency: each thread updates its own slice of a shared array under a
  //    write range; a full-range read takes a consistent snapshot.
  constexpr int kThreads = 4;
  constexpr int kSlotsPerThread = 8;
  std::vector<long> data(kThreads * kSlotsPerThread, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Range r{static_cast<uint64_t>(t) * kSlotsPerThread,
                    static_cast<uint64_t>(t + 1) * kSlotsPerThread};
      for (int iter = 0; iter < 1000; ++iter) {
        RangeGuard g(rw_lock, r);
        for (uint64_t i = r.start; i < r.end; ++i) {
          data[i] += 1;
        }
      }
    });
  }
  long snapshot_total = -1;
  {
    // A concurrent full-range reader always sees each slice internally consistent.
    RangeGuard g(rw_lock, Range::Full(), LockMode::kRead);
    snapshot_total = 0;
    for (long v : data) {
      snapshot_total += v;
    }
  }
  for (auto& th : threads) {
    th.join();
  }
  std::cout << "snapshot total (consistent at some instant): " << snapshot_total << "\n";
  long final_total = 0;
  for (long v : data) {
    final_total += v;
  }
  std::cout << "final total: " << final_total << " (expected "
            << kThreads * kSlotsPerThread * 1000 << ")\n";

  // 4. Non-blocking and timed acquisition: a failed attempt holds nothing.
  {
    RangeGuard held(rw_lock, {0, 10});
    srl::ListRwRangeLock::Handle h = nullptr;
    const bool tried = rw_lock.TryLock({5, 15}, &h, LockMode::kRead);
    const bool timed = rw_lock.LockFor({5, 15}, std::chrono::milliseconds(1), &h);
    std::cout << "try and timed acquisitions of a held range: " << tried << " " << timed
              << " (both fail)\n";
  }

  // 5. Fast path (§4.5) for mostly-uncontended locks, and the fairness layer (§4.3)
  //    over either list lock for starvation-sensitive workloads.
  srl::ListRangeLock fast(srl::ListRangeLock::Options{.enable_fast_path = true});
  auto h = fast.Lock({0, 10});
  fast.Unlock(h);  // constant-step acquire/release when uncontended
  srl::FairRangeLock<srl::ListRwRangeLock> fair;
  auto fh = fair.Lock({0, 10}, LockMode::kRead);
  fair.Unlock(fh);
  std::cout << "fast-path and fair variants work identically from the caller's side\n";
  return 0;
}
