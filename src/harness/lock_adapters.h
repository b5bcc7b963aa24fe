// Test and bench presets: every range lock in the repository, constructed with the
// options the typed suites and the benches share.
//
// Each preset is a lock (src/core/range_lock.h's native API, unchanged) plus
//   static const char* Name();              // series / test-instance name
//   static constexpr bool kPrecise;         // disjoint ranges never serialize
//   static constexpr bool kUsesNodePool;    // handles are NodePool<LNode> nodes
// For a kPrecise lock, a TryLock of a range conflicting with nothing held succeeds.
// Each stays a named type, not an alias, because typed-suite test names print it.
#ifndef SRL_HARNESS_LOCK_ADAPTERS_H_
#define SRL_HARNESS_LOCK_ADAPTERS_H_

#include "src/baselines/segment_range_lock.h"
#include "src/baselines/stock_range_lock.h"
#include "src/baselines/tree_range_lock.h"
#include "src/core/fair_list_range_lock.h"
#include "src/core/list_lockfree_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/core/list_rw_range_lock.h"
#include "src/core/range_lock.h"
#include "src/core/skiplist_range_lock.h"

namespace srl {

// list-ex: the paper's exclusive list-based range lock (§4.1).
struct ListExAdapter : ListRangeLock {
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = true;
  static const char* Name() { return "list-ex"; }
};

// list-ex with the §4.5 fast path enabled.
struct ListExFastPathAdapter : ListRangeLock {
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = true;
  static const char* Name() { return "list-ex-fp"; }
  ListExFastPathAdapter() : ListRangeLock(Options{.enable_fast_path = true}) {}
};

// list-rw: the paper's reader-writer list-based range lock (§4.2).
struct ListRwAdapter : ListRwRangeLock {
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = true;
  static const char* Name() { return "list-rw"; }
};

// list-rw with the fast path enabled.
struct ListRwFastPathAdapter : ListRwRangeLock {
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = true;
  static const char* Name() { return "list-rw-fp"; }
  ListRwFastPathAdapter() : ListRwRangeLock(Options{.enable_fast_path = true}) {}
};

// list-lf: the bucketed lock-free exclusive range lock (hash-bucketed heads, mark-bit
// release with no lock taken). The geometry suits the test universes (ranges of a few
// dozen units): window_shift=2 so a typical short range covers 1-4 windows, 16 buckets
// so disjoint test ranges usually land on distinct heads while multi-bucket
// acquisitions (sibling chains, partial-failure release) still get exercised.
struct ListLockFreeAdapter : ListLockFreeRangeLock {
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = true;
  static const char* Name() { return "list-lf"; }
  ListLockFreeAdapter()
      : ListLockFreeRangeLock(Options{.buckets = 16, .window_shift = 2}) {}
};

// skiplist-indexed: exclusive lock whose live ranges live in a concurrent skiplist —
// O(log n) acquire in the held-range count where the list locks are O(n).
// kUsesNodePool is false because the shared pool-conservation epilogues assert on
// NodePool<LNode> specifically; this lock's NodePool<SkipLockNode> accounting is
// covered by skiplist_range_lock_test.cpp.
struct SkiplistIndexedAdapter : SkiplistRangeLock {
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = false;
  static const char* Name() { return "skiplist-indexed"; }
};

// list-ex behind the §4.3 fairness layer.
struct FairListExAdapter : FairRangeLock<ListRangeLock> {
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = true;
  static const char* Name() { return "list-ex-fair"; }
};

// list-rw behind the §4.3 fairness layer.
struct FairListRwAdapter : FairRangeLock<ListRwRangeLock> {
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = true;
  static const char* Name() { return "list-rw-fair"; }
};

// lustre-ex: the user-space port of the kernel's tree range lock, run exclusively.
struct TreeExAdapter : Exclusive<TreeRangeLock> {
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = false;
  static const char* Name() { return "lustre-ex"; }
};

// kernel-rw: the reader-writer tree range lock (Bueso's patch, ported).
struct TreeRwAdapter : TreeRangeLock {
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = false;
  static const char* Name() { return "kernel-rw"; }
};

// pnova-rw: segment-per-RW-lock baseline. The default geometry suits the unit tests;
// benches construct their own SegmentRangeLock with workload-matched geometry.
struct SegmentRwAdapter : SegmentRangeLock {
  static constexpr bool kPrecise = false;
  static constexpr bool kUsesNodePool = false;
  static const char* Name() { return "pnova-rw"; }
  SegmentRwAdapter() : SegmentRangeLock(/*universe_end=*/1024, /*num_segments=*/64) {}
};

// stock: the reader-writer semaphore, a degenerate range lock that ignores the range —
// the mmap_sem baseline of the kernel experiments.
struct RwSemAdapter : StockRangeLock {
  static constexpr bool kPrecise = false;
  static constexpr bool kUsesNodePool = false;
  static const char* Name() { return "stock-rwsem"; }
};

static_assert(RangeLock<ListExAdapter> && RangeLock<ListExFastPathAdapter> &&
              RangeLock<ListRwAdapter> && RangeLock<ListRwFastPathAdapter> &&
              RangeLock<ListLockFreeAdapter> && RangeLock<SkiplistIndexedAdapter> &&
              RangeLock<FairListExAdapter> && RangeLock<FairListRwAdapter> &&
              RangeLock<TreeExAdapter> && RangeLock<TreeRwAdapter> &&
              RangeLock<SegmentRwAdapter> && RangeLock<RwSemAdapter>);

}  // namespace srl

#endif  // SRL_HARNESS_LOCK_ADAPTERS_H_
