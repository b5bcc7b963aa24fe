// Skiplist-indexed exclusive range lock: O(log n) acquire at thousands of live ranges.
//
// Every list-based variant in this repository pays O(n) per acquisition in the number
// of held ranges sharing a list (bucketing divides n by a constant, nothing more).
// That is invisible in the paper's VM workloads — an address space rarely holds more
// than a few ranges at once — but fatal for the "and beyond" use case of range locks
// as a storage-engine primitive, where a file store keeps thousands of record and scan
// ranges live simultaneously. bench/abl_listlen.cpp measures that curve: with K
// disjoint ranges held, the lists' probe cost grows linearly and this lock's does not.
//
// The index here adapts src/skiplist/optimistic_skiplist.h's structure to the lock's
// own protocol. The optimistic skiplist synchronizes updates with per-node locks,
// which a lock cannot use for its own index without recursing; instead, level 0 is
// run as the paper's Listing 1 list (range_list.h holds Listing 1 and the conflict
// watch loop, WatchForRelease, that waiters here share):
//
//   * Level 0 is a Harris-style sorted-by-start list of live ranges. The single CAS
//     that links a node into level 0 IS the acquisition — no separate lock state.
//   * Releasing sets the mark bit on each of the node's next words with one fetch_add
//     per level (wait-free, no traversal, no CAS loop, no epoch fence). The level-0
//     mark is the release point conflict waiters watch; upper levels are marked first
//     so the index never advertises a node below after it is navigable above.
//   * Marked nodes are physically snipped, level by level, by whichever later
//     traversal passes them (helping). A per-node countdown of still-linked levels
//     (`links_remaining`) makes the last snip — and only the last — retire the node
//     through NodePool/EpochDomain, so reclamation needs no coordination beyond the
//     snip CASes themselves.
//   * Levels 1..top are a pure index: the owner links them (bottom-up, re-finding on
//     CAS failure, Herlihy–Shavit style) after the level-0 CAS succeeds. They carry no
//     lock semantics, so a node navigable at level 3 but not yet at level 5 is merely
//     a slightly worse index, never a correctness issue.
//
// Overlap detection needs only the find's immediate neighbours: live ranges are
// disjoint and sorted by start, so a candidate [s, e) can conflict only with the
// last node whose start < s (if its end > s) and the first node whose start >= s
// (if its start < e). Every earlier node ends at or before the predecessor's start by
// the disjointness invariant, and every later node starts at or after the successor's
// start. Two in-flight overlapping acquisitions are arbitrated by the level-0 CAS
// itself: they either target the same insertion point (one CAS fails and re-finds,
// sees the winner, waits on its mark bit) or are separated by a node that conflicts
// with one of them.
//
// Fairness caveat: like the other list locks — and unlike the fair layer — waiters
// race to re-insert when a conflicting range releases, so a stream of short ranges
// can starve a wide one. The skiplist makes this marginally worse than list-ex: a
// wide waiter re-descends the whole index per retry. Workloads needing fairness
// should wrap a fair lock; this one buys scalability in live-range count.
#ifndef SRL_CORE_SKIPLIST_RANGE_LOCK_H_
#define SRL_CORE_SKIPLIST_RANGE_LOCK_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>

#include "src/core/lnode.h"  // kMarkBit / IsMarked / Unmark word helpers
#include "src/core/range.h"
#include "src/core/range_list.h"
#include "src/core/range_lock.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/node_pool.h"
#include "src/harness/prng.h"
#include "src/sync/admission.h"
#include "src/sync/deadline.h"

namespace srl {

// Fixed height so nodes are a single pool-recyclable type: NodePool hands out
// default-constructed nodes, so the next-word array cannot be tail-allocated per
// height the way RangeLockSkipList::Node does it. 16 levels index ~2^16 live ranges
// at the canonical p=1/2 — far beyond any workload here — for 128 bytes of next
// words per node.
inline constexpr int kSkipLockMaxLevel = 16;

// One live (or released-but-unsnipped) range in the skiplist index. The LSB of each
// next word is the per-level logical-delete mark (kMarkBit, as in LNode).
struct SkipLockNode {
  uint64_t start = 0;
  uint64_t end = 0;
  int32_t top_level = 0;
  // Levels this node is still physically linked at. Initialized to top_level + 1
  // before the level-0 publication CAS; each successful snip decrements it, and the
  // snipper that reaches zero owns the retire. A marked level is never re-linked
  // (insertion CASes require an unmarked expected word; finds snip marked nodes
  // instead of traversing them), so each level is unlinked exactly once.
  std::atomic<int32_t> links_remaining{0};
  std::atomic<uintptr_t> next[kSkipLockMaxLevel];

  // Free-list linkage for NodePool; dead while the node is in the index. Distinct
  // from the next words, which must stay frozen (marked, pointing at the unlink-time
  // successor) until every traversal that could have seen the node has left its epoch
  // critical section.
  SkipLockNode* pool_next = nullptr;
};

class SkiplistRangeLock {
 public:
  static constexpr int kMaxLevel = kSkipLockMaxLevel;

  // The acquisition's own node. Opaque to callers; consumed by Unlock (any thread).
  using Handle = SkipLockNode*;
  static constexpr bool kSharedReaders = false;

  SkiplistRangeLock() = default;
  SkiplistRangeLock(const SkiplistRangeLock&) = delete;
  SkiplistRangeLock& operator=(const SkiplistRangeLock&) = delete;

  // All ranges must have been released. Residue (released nodes no later traversal
  // snipped) is swept level by level: each node is visited once per still-linked
  // level, its links_remaining countdown reaches zero exactly once, and it is freed
  // there — partially-snipped nodes included, whichever levels they still occupy.
  ~SkiplistRangeLock() {
    for (int l = kMaxLevel - 1; l >= 0; --l) {
      SkipLockNode* cur = ToSkipNode(head_.next[l].load(std::memory_order_relaxed));
      while (cur != nullptr) {
        const uintptr_t next = cur->next[l].load(std::memory_order_relaxed);
        assert(IsMarked(next) && "range still held at destruction");
        SkipLockNode* succ = ToSkipNode(next);
        if (cur->links_remaining.fetch_sub(1, std::memory_order_relaxed) == 1) {
          delete cur;
        }
        cur = succ;
      }
    }
  }

  // Blocks until [range.start, range.end) is held exclusively. The returned handle
  // must be passed to Unlock() by the same logical owner (any thread may release it).
  // The lock is exclusive, so every mode takes the range as a write.
  Handle Lock(const Range& range, LockMode = LockMode::kWrite) {
    Handle h = nullptr;
    AcquireImpl(range, Deadline::Infinite(), &h);
    return h;
  }

  // Non-blocking: fails the moment the range would have to wait for an overlapping
  // holder. Lost insertion CASes are retried — they signal contention on the list
  // structure, not a held conflicting range — so a TryLock of a range conflicting
  // with nothing held always succeeds.
  bool TryLock(const Range& range, Handle* out, LockMode = LockMode::kWrite) {
    return AcquireImpl(range, Deadline::Immediate(), out);
  }

  // Timed: blocks like Lock() but gives up (returns false, nothing held) once
  // `timeout` elapses. The node never entered the index on failure, so it recycles
  // with no grace period.
  bool LockFor(const Range& range, std::chrono::nanoseconds timeout, Handle* out,
               LockMode = LockMode::kWrite) {
    return AcquireImpl(range, Deadline::After(timeout), out);
  }

  // Releases an acquired range: one fetch_add per level of this node (expected 2 at
  // p=1/2), no traversal, no loop, no epoch fence. Upper levels are marked before
  // level 0 — the release point waiters watch — so by the time a waiter can acquire
  // an overlapping range, every index level already advertises the node as dead.
  void Unlock(Handle handle) {
    assert(handle != nullptr);
    for (int l = handle->top_level; l >= 0; --l) {
      handle->next[l].fetch_add(kMarkBit, std::memory_order_release);
    }
  }

  // --- Test-only introspection ---

  // Number of held (unmarked-at-level-0) ranges. The epoch guard keeps concurrently
  // snipped nodes unreclaimed for the duration of the walk, so counting while other
  // threads churn is safe; the value is of course only exact under quiescence.
  std::size_t DebugHeldCount() const {
    EpochGuard guard(EpochDomain::Global());
    std::size_t n = 0;
    for (const SkipLockNode* cur =
             ToSkipNode(head_.next[0].load(std::memory_order_acquire));
         cur != nullptr;
         cur = ToSkipNode(cur->next[0].load(std::memory_order_acquire))) {
      if (!IsMarked(cur->next[0].load(std::memory_order_acquire))) {
        ++n;
      }
    }
    return n;
  }

  // Checks, under the same epoch protection, that (a) held ranges are disjoint and
  // sorted by start along level 0, and (b) every level's chain is sorted by start
  // (the index invariant navigation relies on).
  bool DebugInvariantHolds() const {
    EpochGuard guard(EpochDomain::Global());
    uint64_t prev_end = 0;
    bool first = true;
    for (const SkipLockNode* cur =
             ToSkipNode(head_.next[0].load(std::memory_order_acquire));
         cur != nullptr;
         cur = ToSkipNode(cur->next[0].load(std::memory_order_acquire))) {
      if (IsMarked(cur->next[0].load(std::memory_order_acquire))) {
        continue;  // released, logically absent
      }
      if (!first && cur->start < prev_end) {
        return false;
      }
      prev_end = cur->end;
      first = false;
    }
    for (int l = kMaxLevel - 1; l >= 1; --l) {
      uint64_t prev_start = 0;
      bool lvl_first = true;
      for (const SkipLockNode* cur =
               ToSkipNode(head_.next[l].load(std::memory_order_acquire));
           cur != nullptr;
           cur = ToSkipNode(cur->next[l].load(std::memory_order_acquire))) {
        if (!lvl_first && cur->start < prev_start) {
          return false;
        }
        prev_start = cur->start;
        lvl_first = false;
      }
    }
    return true;
  }

 private:
  static SkipLockNode* ToSkipNode(uintptr_t word) {
    return reinterpret_cast<SkipLockNode*>(Unmark(word));
  }
  static uintptr_t NodeWord(const SkipLockNode* node) {
    return reinterpret_cast<uintptr_t>(node);
  }

  // Positions preds[l]/succ_words[l] around `key` at every level: preds[l] is the
  // last node at level l with start < key (head_ if none), succ_words[l] the unmarked
  // word it pointed at when observed (0 at tail). Marked nodes encountered on the way
  // are snipped (helping); a marked pred word means the pointer chain under our feet
  // was released, so the walk restarts from the head. Must run inside an epoch
  // critical section.
  void Find(uint64_t key, SkipLockNode** preds, uintptr_t* succ_words) {
  retry:
    SkipLockNode* pred = &head_;
    for (int l = kMaxLevel - 1; l >= 0; --l) {
      uintptr_t cur_word = pred->next[l].load(std::memory_order_acquire);
      for (;;) {
        if (IsMarked(cur_word)) {
          // pred was released at this level while we stood on it; the snapshot of
          // the levels above is stale too — restart (head_ is never marked).
          goto retry;
        }
        SkipLockNode* cur = ToSkipNode(cur_word);
        if (cur != nullptr) {
          const uintptr_t cur_next = cur->next[l].load(std::memory_order_acquire);
          if (IsMarked(cur_next)) {
            // cur was released: snip it at this level. acq_rel as in the list locks'
            // unlink CAS — acquire pairs with the releasing fetch_add, release keeps
            // the snip ordered before any later insertion observes the new word.
            if (pred->next[l].compare_exchange_strong(cur_word, Unmark(cur_next),
                                                      std::memory_order_acq_rel,
                                                      std::memory_order_acquire)) {
              FinishUnlink(cur);
              cur_word = Unmark(cur_next);
            }
            continue;  // on CAS failure cur_word holds the fresh *pred->next[l]
          }
          if (cur->start < key) {
            pred = cur;
            cur_word = cur_next;
            continue;
          }
        }
        preds[l] = pred;
        succ_words[l] = cur_word;
        break;
      }
    }
  }

  // Called by whichever snip CAS unlinked `node` from one level. The countdown makes
  // the last level's snipper retire the node; every level is snipped exactly once
  // (marked words are never re-linked), so the node is retired exactly once.
  static void FinishUnlink(SkipLockNode* node) {
    if (node->links_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      NodePool<SkipLockNode>::Local().Retire(node);
    }
  }

  bool AcquireImpl(const Range& range, const Deadline& deadline, Handle* out) {
    assert(range.Valid() && "range locks require start < end");
    SkipLockNode* node = NodePool<SkipLockNode>::Local().Alloc();
    const int top = RandomLevel();
    node->start = range.start;
    node->end = range.end;
    node->top_level = top;
    node->links_remaining.store(top + 1, std::memory_order_relaxed);
    SkipLockNode* preds[kMaxLevel];
    uintptr_t succs[kMaxLevel];
    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    // Caps active re-finders at ~#cores once they yield between watch rounds.
    // Timed and immediate deadlines make it inert.
    AdmissionSpinner gate_spinner(&gate_, deadline);
    EpochDomain::Enter(rec);
    for (;;) {
      Find(range.start, preds, succs);
      // Overlap scan from the skiplist predecessor: disjointness + sort order mean
      // only the immediate neighbours can conflict (see the header comment).
      SkipLockNode* conflict = nullptr;
      if (preds[0] != &head_ && preds[0]->end > range.start) {
        conflict = preds[0];
      } else if (SkipLockNode* succ = ToSkipNode(succs[0]);
                 succ != nullptr && succ->start < range.end) {
        conflict = succ;
      }
      if (conflict != nullptr) {
        if (WatchForRelease(conflict->next[0], rec, deadline, gate_spinner) ==
            WatchResult::kTimedOut) {
          EpochDomain::Exit(rec);
          NodePool<SkipLockNode>::Local().Recycle(node);  // never entered the index
          return false;
        }
        continue;  // released (its mark makes our re-find snip it) or restart
      }
      // No conflict at the insertion point: the level-0 CAS is the acquisition.
      // seq_cst success as in the list locks' insertion CAS (the publication point
      // the memory-ordering audit pins); the relaxed store of node->next[0] is
      // ordered before any observer by the CAS's release half. A release of preds[0]
      // racing us lands its mark on this same word and fails the CAS — exactly
      // Listing 1's arbitration.
      node->next[0].store(succs[0], std::memory_order_relaxed);
      uintptr_t expected = succs[0];
      if (preds[0]->next[0].compare_exchange_strong(expected, NodeWord(node),
                                                    std::memory_order_seq_cst,
                                                    std::memory_order_acquire)) {
        break;
      }
      // Lost the race for the insertion point; re-find and re-check conflicts.
    }
    LinkUpperLevels(node, range.start, preds, succs);
    EpochDomain::Exit(rec);
    *out = node;
    return true;
  }

  // Links levels 1..top of a node already acquired at level 0, bottom-up, re-finding
  // on CAS failure (Herlihy–Shavit's retry loop). The node cannot be marked while we
  // link — only the owner releases — so the only failures are concurrent structural
  // changes around the insertion point. Runs inside the acquire's epoch section;
  // Lock() returns only with the index fully built, keeping acquire cost and index
  // quality deterministic.
  void LinkUpperLevels(SkipLockNode* node, uint64_t key, SkipLockNode** preds,
                       uintptr_t* succs) {
    for (int l = 1; l <= node->top_level; ++l) {
      for (;;) {
        node->next[l].store(succs[l], std::memory_order_relaxed);
        uintptr_t expected = succs[l];
        if (preds[l]->next[l].compare_exchange_strong(expected, NodeWord(node),
                                                      std::memory_order_acq_rel,
                                                      std::memory_order_relaxed)) {
          break;
        }
        Find(key, preds, succs);  // structure moved: refresh every level's snapshot
      }
    }
  }

  int RandomLevel() {
    thread_local Xoshiro256 rng(0x5eedc0de ^ reinterpret_cast<uintptr_t>(&rng));
    int level = 0;
    while (level < kMaxLevel - 1 && (rng.Next() & 1) != 0) {
      ++level;
    }
    return level;
  }

  // Head sentinel: never marked, never retired, start/end unused.
  SkipLockNode head_;
  // Caps active contenders on the conflict-wait path (see AcquireImpl).
  AdmissionGate gate_;
};

static_assert(RangeLock<SkiplistRangeLock>);

}  // namespace srl

#endif  // SRL_CORE_SKIPLIST_RANGE_LOCK_H_
