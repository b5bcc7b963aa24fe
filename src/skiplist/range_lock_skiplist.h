// Skip list synchronized by a single range lock (paper §6) — `range-list` /
// `range-lustre` in Figure 4, depending on the lock plugged in.
//
// Structure and search are identical to the optimistic skip list, but nodes carry no
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
#include <new>
#include <thread>

#include "src/baselines/tree_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/core/range.h"
#include "src/core/range_lock.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/retire_list.h"
#include "src/harness/prng.h"
#include "src/sync/spin_wait.h"

namespace srl {

// The two locks, named for Figure 4's series.
struct ListLockPolicy : ListRangeLock {
  static const char* Name() { return "range-list"; }
};

struct TreeLockPolicy : Exclusive<TreeRangeLock> {
  static const char* Name() { return "range-lustre"; }
};

template <RangeLock LockPolicy>
class RangeLockSkipList {
 public:
  static constexpr int kMaxLevel = 20;
  // Rounds a same-key inserter waits for a winner's fully_linked bit before exiting
  // its epoch section and retrying from the top (see Insert).
  static constexpr int kLinkSpinRounds = kMaxLevel;

  RangeLockSkipList() : head_(Node::Create(0, kMaxLevel - 1)) {
    for (int l = 0; l < kMaxLevel; ++l) {
      head_->NextAt(l).store(nullptr, std::memory_order_relaxed);
    }
    head_->fully_linked.store(true, std::memory_order_relaxed);
  }

  ~RangeLockSkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->NextAt(0).load(std::memory_order_relaxed);
      Node::Destroy(n);
      n = next;
    }
  }

  RangeLockSkipList(const RangeLockSkipList&) = delete;
  RangeLockSkipList& operator=(const RangeLockSkipList&) = delete;

  // Inserts `key`; returns false if already present.
  bool Insert(uint64_t key) {
    assert(key >= 1);
    const int top_level = RandomLevel();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    for (;;) {
      EpochDomain::Enter(rec);
      const int found = Find(key, preds, succs);
      if (found != -1) {
        Node* existing = succs[found];
        if (!existing->marked.load(std::memory_order_acquire)) {
          // The winning inserter may be preempted between linking and publishing
          // fully_linked. Waiting for it inside our critical section would pin this
          // thread's epoch odd for the whole preemption, stalling reclamation
          // domain-wide — so the wait is bounded: after kLinkSpinRounds fruitless
          // rounds, leave the section, yield to the (possibly descheduled) winner,
          // and redo the search. `false` is returned only after fully_linked has
          // actually been observed.
          SpinWait spin;
          bool linked = false;
          for (int round = 0; round < kLinkSpinRounds; ++round) {
            if (existing->fully_linked.load(std::memory_order_acquire)) {
              linked = true;
              break;
            }
            spin.Spin();
          }
          EpochDomain::Exit(rec);
          if (linked) {
            return false;
          }
          std::this_thread::yield();
          continue;
        }
        EpochDomain::Exit(rec);
        continue;  // victim mid-removal; retry
      }
      // One range acquisition replaces the per-node lock chain of the original
      // algorithm. The range must be derived from this search's predecessors; if
      // validation below fails the range is released and everything is retried.
      const Range range{preds[top_level]->key, key};
      typename LockPolicy::Handle h = lock_.Lock(range);
      bool valid = true;
      for (int l = 0; valid && l <= top_level; ++l) {
        Node* pred = preds[l];
        Node* succ = succs[l];
        valid = !pred->marked.load(std::memory_order_acquire) &&
                (succ == nullptr || !succ->marked.load(std::memory_order_acquire)) &&
                pred->NextAt(l).load(std::memory_order_acquire) == succ;
      }
      if (!valid) {
        lock_.Unlock(h);
        EpochDomain::Exit(rec);
        continue;
      }
      Node* node = Node::Create(key, top_level);
      for (int l = 0; l <= top_level; ++l) {
        node->NextAt(l).store(succs[l], std::memory_order_relaxed);
      }
      for (int l = 0; l <= top_level; ++l) {
        preds[l]->NextAt(l).store(node, std::memory_order_release);
      }
      if (std::atomic<bool>* gate = link_gate_; gate != nullptr) {
        // Test-only stall point: hold the node in the linked-but-not-fully_linked
        // window so tests can exercise the bounded wait above deterministically.
        SpinWait gate_spin;
        while (!gate->load(std::memory_order_acquire)) {
          gate_spin.Spin();
        }
      }
      node->fully_linked.store(true, std::memory_order_release);
      lock_.Unlock(h);
      EpochDomain::Exit(rec);
      return true;
    }
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
      if (found == -1) {
        EpochDomain::Exit(rec);
        return false;
      }
      Node* victim = succs[found];
      if (!victim->fully_linked.load(std::memory_order_acquire) ||
          victim->top_level != found ||
          victim->marked.load(std::memory_order_acquire)) {
        const bool lost_race = victim->marked.load(std::memory_order_acquire);
        EpochDomain::Exit(rec);  // victim must not be dereferenced past this point
        if (lost_race) {
          return false;  // another remover won
        }
        continue;  // not yet fully linked; retry
      }
      const int top_level = victim->top_level;
      // key + 1 (not key): fences off inserts whose range starts at the victim's key
      // because they would rewrite the victim's next pointers.
      const Range range{preds[top_level]->key, key + 1};
      typename LockPolicy::Handle h = lock_.Lock(range);
      bool valid = !victim->marked.load(std::memory_order_acquire);
      for (int l = 0; valid && l <= top_level; ++l) {
        Node* pred = preds[l];
        valid = !pred->marked.load(std::memory_order_acquire) &&
                pred->NextAt(l).load(std::memory_order_acquire) == victim;
      }
      if (!valid) {
        lock_.Unlock(h);
        EpochDomain::Exit(rec);
        continue;
      }
      victim->marked.store(true, std::memory_order_release);
      for (int l = top_level; l >= 0; --l) {
        preds[l]->NextAt(l).store(victim->NextAt(l).load(std::memory_order_relaxed),
                                  std::memory_order_release);
      }
      lock_.Unlock(h);
      EpochDomain::Exit(rec);
      // Retire outside the critical section. RetireCustom itself never frees inline,
      // so the old retire-then-Exit order was not a use-after-free — but keeping the
      // retire after Exit means the remover's record is provably quiescent by the
      // time any flush machinery (today's QuiesceLocal, or a future inline flush)
      // examines it, and matches RetireList's documented contract of retiring while
      // holding no epoch section. The victim stays safe to name here: it was
      // unlinked under the range lock above, so only this thread retires it.
      RetireList::Local().RetireCustom(victim, &Node::DestroyErased);
      return true;
    }
  }

  // Wait-free membership test (identical to the original algorithm's).
  bool Contains(uint64_t key) const {
    assert(key >= 1);
    EpochGuard guard(EpochDomain::Global());
    Node* pred = head_;
    for (int l = kMaxLevel - 1; l >= 0; --l) {
      Node* cur = pred->NextAt(l).load(std::memory_order_acquire);
      while (cur != nullptr && cur->key < key) {
        pred = cur;
        cur = pred->NextAt(l).load(std::memory_order_acquire);
      }
      if (cur != nullptr && cur->key == key) {
        return cur->fully_linked.load(std::memory_order_acquire) &&
               !cur->marked.load(std::memory_order_acquire);
      }
    }
    return false;
  }

  static void QuiesceLocal() { RetireList::Local().MaybeFlush(); }

  std::size_t DebugCount() const {
    // The walk reads nodes that concurrent removers retire; without a critical
    // section a parked batch whose grace snapshot predates this walk can be freed
    // mid-traversal (use-after-free under churn — caught by the ASan/TSan
    // DebugCountDuringChurn regression test).
    EpochGuard guard(EpochDomain::Global());
    std::size_t n = 0;
    for (Node* cur = head_->NextAt(0).load(std::memory_order_acquire); cur != nullptr;
         cur = cur->NextAt(0).load(std::memory_order_acquire)) {
      if (!cur->marked.load(std::memory_order_acquire)) {
        ++n;
      }
    }
    return n;
  }

  // Per-node memory for a node of the given height: no per-node spin lock, which is the
  // footprint saving §6 claims.
  static std::size_t NodeBytes(int top_level) {
    return sizeof(Node) + static_cast<std::size_t>(top_level + 1) * sizeof(std::atomic<void*>);
  }

  static const char* Name() { return LockPolicy::Name(); }

  // Test-only: while `*gate` is false, Insert stalls after linking a new node but
  // before publishing fully_linked, holding concurrent same-key inserters in the
  // bounded-wait window. Set while quiescent; null disables the stall.
  void TestOnlySetLinkGate(std::atomic<bool>* gate) { link_gate_ = gate; }

 private:
  struct Node {
    uint64_t key;
    int32_t top_level;
    std::atomic<bool> marked{false};
    std::atomic<bool> fully_linked{false};

    std::atomic<Node*>& NextAt(int l) {
      return reinterpret_cast<std::atomic<Node*>*>(this + 1)[l];
    }

    static Node* Create(uint64_t key, int top_level) {
      void* mem = ::operator new(sizeof(Node) +
                                 static_cast<std::size_t>(top_level + 1) *
                                     sizeof(std::atomic<Node*>));
      Node* n = new (mem) Node();
      n->key = key;
      n->top_level = top_level;
      auto* levels = reinterpret_cast<std::atomic<Node*>*>(n + 1);
      for (int l = 0; l <= top_level; ++l) {
        new (&levels[l]) std::atomic<Node*>(nullptr);
      }
      return n;
    }

    static void Destroy(Node* n) {
      n->~Node();
      ::operator delete(n);
    }

    static void DestroyErased(void* p) { Destroy(static_cast<Node*>(p)); }
  };

  int Find(uint64_t key, Node** preds, Node** succs) const {
    int found = -1;
    Node* pred = head_;
    for (int l = kMaxLevel - 1; l >= 0; --l) {
      Node* cur = pred->NextAt(l).load(std::memory_order_acquire);
      while (cur != nullptr && cur->key < key) {
        pred = cur;
        cur = pred->NextAt(l).load(std::memory_order_acquire);
      }
      if (found == -1 && cur != nullptr && cur->key == key) {
        found = l;
      }
      preds[l] = pred;
      succs[l] = cur;
    }
    return found;
  }

  int RandomLevel() {
    thread_local Xoshiro256 rng(0x5eedba5e ^ reinterpret_cast<uintptr_t>(&rng));
    int level = 0;
    while (level < kMaxLevel - 1 && (rng.Next() & 1) != 0) {
      ++level;
    }
    return level;
  }

  Node* head_;
  mutable LockPolicy lock_;
  std::atomic<bool>* link_gate_ = nullptr;
};

}  // namespace srl

#endif  // SRL_SKIPLIST_RANGE_LOCK_SKIPLIST_H_
