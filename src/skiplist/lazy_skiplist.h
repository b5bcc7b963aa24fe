// The lazy skip list of Herlihy, Lev, Luchangco & Shavit (SIROCCO'07), less its
// exclusion protocol. Both of §6's skip lists build on it and differ only in what an
// update holds while it links or unlinks nodes: `orig` locks every node it rewrites
// (optimistic_skiplist.h); `range-list` and `range-lustre` lock one key range of a
// range lock (range_lock_skiplist.h). Everything else is here: the node layout, the
// lock-free search, the wait-free Contains, and the steps every update shares.
//
// Keys are uint64_t values >= 1 (0 names the head sentinel). Node memory is reclaimed
// through the epoch scheme; all operations run inside an epoch critical section.
#ifndef SRL_SKIPLIST_LAZY_SKIPLIST_H_
#define SRL_SKIPLIST_LAZY_SKIPLIST_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <new>
#include <thread>

#include "src/epoch/epoch_domain.h"
#include "src/epoch/retire_list.h"
#include "src/harness/prng.h"
#include "src/sync/spin_wait.h"

namespace srl {

// `NodeState` is what a variant's exclusion protocol keeps in every node (orig: its
// spin lock). It is the node's last member and [[no_unique_address]], so an empty
// type costs the node nothing.
template <typename NodeState>
class LazySkipList {
 public:
  static constexpr int kMaxLevel = 20;  // comfortably supports tens of millions of keys
  // Rounds a same-key inserter waits for a winner's fully_linked bit before exiting
  // its epoch section and retrying from the top (see InsertWith).
  static constexpr int kLinkSpinRounds = kMaxLevel;

  LazySkipList() : head_(Node::Create(0, kMaxLevel - 1)) {
    head_->fully_linked.store(true, std::memory_order_relaxed);
  }

  ~LazySkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->NextAt(0).load(std::memory_order_relaxed);
      Node::Destroy(n);
      n = next;
    }
  }

  LazySkipList(const LazySkipList&) = delete;
  LazySkipList& operator=(const LazySkipList&) = delete;

  // Wait-free membership test: takes no locks and decides from the marked and
  // fully_linked flags.
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

  // Flushes this thread's retired nodes if the batch is large. Call between operations,
  // never while holding locks.
  static void QuiesceLocal() { RetireList::Local().MaybeFlush(); }

  // Number of live keys (test-only).
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

  // Per-node memory for a node of the given height — used by the memory-footprint
  // comparison (§6 notes the range-lock variant drops the per-node lock).
  static std::size_t NodeBytes(int top_level) {
    return sizeof(Node) + static_cast<std::size_t>(top_level + 1) * sizeof(std::atomic<void*>);
  }

  // Test-only: while `*gate` is false, an insert stalls after linking a new node but
  // before publishing fully_linked, holding concurrent same-key inserters in the
  // bounded-wait window. Set while quiescent; null disables the stall.
  void TestOnlySetLinkGate(std::atomic<bool>* gate) { link_gate_ = gate; }

 protected:
  struct Node {
    uint64_t key;
    int32_t top_level;
    std::atomic<bool> marked{false};
    std::atomic<bool> fully_linked{false};
    [[no_unique_address]] NodeState state;

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

  // Inserts `key`; returns false if already present. `hold(preds, top_level)` takes the
  // variant's exclusion over the predecessors the insert rewrites and returns a guard
  // that releases it when destroyed; under it the neighbourhood is validated and the
  // node linked, or the whole insert retried from its search.
  template <typename Hold>
  bool InsertWith(uint64_t key, Hold hold) {
    assert(key >= 1);
    const int top_level = RandomLevel();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    for (;;) {
      EpochDomain::Enter(rec);
      const int found = Find(key, preds, succs);
      if (found != -1) {
        // The winning inserter may be preempted between linking and publishing
        // fully_linked. Waiting for it inside our critical section would pin this
        // thread's epoch odd for the whole preemption, stalling reclamation
        // domain-wide — so the wait is bounded: after kLinkSpinRounds fruitless
        // rounds, leave the section, yield to the (possibly descheduled) winner,
        // and redo the search. `false` is returned only after fully_linked has
        // actually been observed. A marked node is mid-removal: leave and retry.
        Node* existing = succs[found];
        bool linked = false;
        if (!existing->marked.load(std::memory_order_acquire)) {
          SpinWait spin;
          for (int round = 0; round < kLinkSpinRounds; ++round) {
            if (existing->fully_linked.load(std::memory_order_acquire)) {
              linked = true;
              break;
            }
            spin.Spin();
          }
        }
        EpochDomain::Exit(rec);
        if (linked) {
          return false;
        }
        std::this_thread::yield();
        continue;
      }
      bool inserted = false;
      {
        const auto held = hold(preds, top_level);
        bool valid = true;
        for (int l = 0; valid && l <= top_level; ++l) {
          valid = !preds[l]->marked.load(std::memory_order_acquire) &&
                  (succs[l] == nullptr || !succs[l]->marked.load(std::memory_order_acquire)) &&
                  preds[l]->NextAt(l).load(std::memory_order_acquire) == succs[l];
        }
        if (valid) {
          Link(key, top_level, preds, succs);
          inserted = true;
        }
      }
      EpochDomain::Exit(rec);
      if (inserted) {
        return true;
      }
    }
  }

  // Returns the highest level at which `key` was found (-1 if absent) and fills
  // preds/succs at every level.
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

  // A node Find located at level `found` may be removed only once its insert is
  // complete (fully linked at every level up to its top) and no remover has marked it.
  static bool Removable(Node* n, int found) {
    return n->fully_linked.load(std::memory_order_acquire) && n->top_level == found &&
           !n->marked.load(std::memory_order_acquire);
  }

  // True while every predecessor is unmarked and still points at `victim`.
  static bool PredsPointAt(Node* const* preds, Node* victim) {
    for (int l = 0; l <= victim->top_level; ++l) {
      if (preds[l]->marked.load(std::memory_order_acquire) ||
          preds[l]->NextAt(l).load(std::memory_order_acquire) != victim) {
        return false;
      }
    }
    return true;
  }

  // Unlinks a marked victim top-down, with the protocol's exclusion held.
  static void Unlink(Node* victim, Node* const* preds) {
    for (int l = victim->top_level; l >= 0; --l) {
      preds[l]->NextAt(l).store(victim->NextAt(l).load(std::memory_order_relaxed),
                                std::memory_order_release);
    }
  }

  // Call after leaving the epoch section. RetireCustom itself never frees inline, so
  // retiring inside the section would not be a use-after-free — but retiring after
  // Exit means the remover's record is provably quiescent by the time any flush
  // machinery (QuiesceLocal, or a future inline flush) examines it, and matches
  // RetireList's contract of retiring while holding no epoch section. The victim stays
  // safe to name here: it was unlinked under the exclusion, so only its remover
  // retires it.
  static void Retire(Node* victim) {
    RetireList::Local().RetireCustom(victim, &Node::DestroyErased);
  }

 private:
  void Link(uint64_t key, int top_level, Node* const* preds, Node* const* succs) {
    Node* node = Node::Create(key, top_level);
    for (int l = 0; l <= top_level; ++l) {
      node->NextAt(l).store(succs[l], std::memory_order_relaxed);
    }
    for (int l = 0; l <= top_level; ++l) {
      preds[l]->NextAt(l).store(node, std::memory_order_release);
    }
    if (std::atomic<bool>* gate = link_gate_; gate != nullptr) {
      // Test-only stall point: hold the node in the linked-but-not-fully_linked
      // window so tests can exercise the bounded wait deterministically.
      SpinWait gate_spin;
      while (!gate->load(std::memory_order_acquire)) {
        gate_spin.Spin();
      }
    }
    node->fully_linked.store(true, std::memory_order_release);
  }

  static int RandomLevel() {
    thread_local Xoshiro256 rng(0x5eedba5e ^ reinterpret_cast<uintptr_t>(&rng));
    int level = 0;
    while (level < kMaxLevel - 1 && (rng.Next() & 1) != 0) {
      ++level;
    }
    return level;
  }

  Node* const head_;
  std::atomic<bool>* link_gate_ = nullptr;
};

}  // namespace srl

#endif  // SRL_SKIPLIST_LAZY_SKIPLIST_H_
