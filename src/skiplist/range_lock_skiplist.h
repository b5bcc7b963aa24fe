// Skip list synchronized by a single range lock (paper §6) — `range-list` /
// `range-lustre` in Figure 4, depending on the lock plugged in.
//
// Structure and search are the lazy skip list's (lazy_skiplist.h), but nodes carry no
// locks. An update derives one key range from its search:
//   insert(k):  [pred_at_top_level.key, k)      — covers every predecessor whose next
//                                                 pointers the insert rewrites;
//   remove(k):  [pred_at_top_level.key, k + 1)  — one past the victim, so that inserts
//                                                 about to rewrite the victim's pointers
//                                                 (their range starts at k) conflict.
// Acquiring that single range on the shared range lock serializes exactly the updates
// whose rewrites could touch the same nodes; disjoint updates proceed in parallel.
// Contains() remains wait-free and lock-free.
//
// LockPolicy selects the underlying exclusive range lock: ListLockPolicy (the paper's
// list-based lock) or TreeLockPolicy (the kernel tree lock run exclusively).
#ifndef SRL_SKIPLIST_RANGE_LOCK_SKIPLIST_H_
#define SRL_SKIPLIST_RANGE_LOCK_SKIPLIST_H_

#include <atomic>
#include <cassert>
#include <cstdint>

#include "src/baselines/tree_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/core/range.h"
#include "src/core/range_lock.h"
#include "src/skiplist/lazy_skiplist.h"

namespace srl {

// The two locks, named for Figure 4's series.
struct ListLockPolicy : ListRangeLock {
  static const char* Name() { return "range-list"; }
};

struct TreeLockPolicy : Exclusive<TreeRangeLock> {
  static const char* Name() { return "range-lustre"; }
};

// Nodes of a range-locked list carry no lock.
struct NoNodeLock {};

template <RangeLock LockPolicy>
class RangeLockSkipList : public LazySkipList<NoNodeLock> {
 public:
  // Inserts `key`; returns false if already present. One range acquisition replaces
  // the per-node lock chain of the original algorithm. The range is derived from this
  // search's predecessors; if validation under it fails, it is released and the insert
  // retried.
  bool Insert(uint64_t key) {
    return InsertWith(key, [this, key](Node* const* preds, int top_level) {
      return RangeGuard<LockPolicy>(lock_, Range{preds[top_level]->key, key});
    });
  }

  // Removes `key`; returns false if absent.
  bool Remove(uint64_t key) {
    assert(key >= 1);
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    for (;;) {
      EpochDomain::Enter(rec);
      const int found = Find(key, preds, succs);
      Node* victim = found == -1 ? nullptr : succs[found];
      if (victim == nullptr || !Removable(victim, found)) {
        const bool absent =
            victim == nullptr || victim->marked.load(std::memory_order_acquire);
        EpochDomain::Exit(rec);  // victim must not be dereferenced past this point
        if (absent) {
          return false;  // absent, or another remover won
        }
        continue;  // not yet fully linked; retry
      }
      bool removed = false;
      {
        // key + 1 (not key): fences off inserts whose range starts at the victim's key
        // because they would rewrite the victim's next pointers.
        const RangeGuard<LockPolicy> held(lock_,
                                          Range{preds[victim->top_level]->key, key + 1});
        if (!victim->marked.load(std::memory_order_acquire) && PredsPointAt(preds, victim)) {
          victim->marked.store(true, std::memory_order_release);
          Unlink(victim, preds);
          removed = true;
        }
      }
      EpochDomain::Exit(rec);
      if (removed) {
        Retire(victim);
        return true;
      }
    }
  }

  static const char* Name() { return LockPolicy::Name(); }

 private:
  LockPolicy lock_;
};

}  // namespace srl

#endif  // SRL_SKIPLIST_RANGE_LOCK_SKIPLIST_H_
