// The optimistic ("lazy") skip list of Herlihy, Lev, Luchangco & Shavit (SIROCCO'07) —
// the `orig` baseline of the paper's skip-list experiment (§6, Figure 4).
//
// Its exclusion protocol is per-node locks, one spin lock in every node. An update
// searches without locks (lazy_skiplist.h), then locks every predecessor it rewrites
// (plus the victim for removals), validates that the neighbourhood did not change,
// applies, and unlocks.
#ifndef SRL_SKIPLIST_OPTIMISTIC_SKIPLIST_H_
#define SRL_SKIPLIST_OPTIMISTIC_SKIPLIST_H_

#include <cassert>
#include <cstdint>

#include "src/skiplist/lazy_skiplist.h"
#include "src/sync/spin_lock.h"

namespace srl {

class OptimisticSkipList : public LazySkipList<SpinLock> {
 public:
  // Inserts `key`; returns false if already present.
  bool Insert(uint64_t key) {
    return InsertWith(key, [](Node* const* preds, int top_level) {
      return PredLocks(preds, top_level);
    });
  }

  // Removes `key`; returns false if absent. The victim is marked under its own lock
  // before any predecessor is locked: once marked it is logically gone and only this
  // remover may unlink it, so a failed validation retries just the search.
  bool Remove(uint64_t key) {
    assert(key >= 1);
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    EpochDomain::Enter(rec);
    const int found = Find(key, preds, succs);
    Node* victim = found == -1 ? nullptr : succs[found];
    if (victim == nullptr || !Removable(victim, found)) {
      EpochDomain::Exit(rec);
      return false;
    }
    victim->state.lock();
    if (victim->marked.load(std::memory_order_acquire)) {
      victim->state.unlock();
      EpochDomain::Exit(rec);
      return false;  // someone else is removing it
    }
    victim->marked.store(true, std::memory_order_release);
    for (;;) {
      {
        const PredLocks held(preds, victim->top_level);
        if (PredsPointAt(preds, victim)) {
          Unlink(victim, preds);
          break;
        }
      }
      Find(key, preds, succs);
    }
    victim->state.unlock();
    EpochDomain::Exit(rec);
    Retire(victim);
    return true;
  }

 private:
  // Locks an update's distinct predecessors bottom-up, in descending key order like
  // the victim-first remove, so updates cannot deadlock; unlocks them when destroyed.
  class PredLocks {
   public:
    PredLocks(Node* const* preds, int top_level) : preds_(preds), top_level_(top_level) {
      for (int l = 0; l <= top_level_; ++l) {
        if (l == 0 || preds_[l] != preds_[l - 1]) {
          preds_[l]->state.lock();
        }
      }
    }
    ~PredLocks() {
      for (int l = 0; l <= top_level_; ++l) {
        if (l == 0 || preds_[l] != preds_[l - 1]) {
          preds_[l]->state.unlock();
        }
      }
    }
    PredLocks(const PredLocks&) = delete;
    PredLocks& operator=(const PredLocks&) = delete;

   private:
    Node* const* preds_;
    int top_level_;
  };
};

}  // namespace srl

#endif  // SRL_SKIPLIST_OPTIMISTIC_SKIPLIST_H_
