// Thread-local object pools amortizing epoch reclamation (paper §4.4).
//
// Each thread keeps two pools per node type:
//   * `active`    — nodes ready to be handed out for new range acquisitions;
//   * `reclaimed` — nodes this thread unlinked from some lock's list but that may still be
//                   referenced by concurrent traversals.
// When the active pool runs dry the thread hands the reclaimed pool to its
// GraceBatches core: if no critical section is in flight the reclaimed pool is
// provably unreachable and swaps in immediately (the paper's barrier-and-swap, for
// free); otherwise the reclaimed batch is parked with a grace snapshot and reaped by a
// later refill once the snapshot has elapsed, and the pool replenishes from the system
// allocator in the meantime. Refill therefore NEVER blocks or yields — essential since
// epoch-per-quantum readers (EpochQuantumGuard) park their epochs odd across whole
// operation batches, which a blocking barrier would have to wait out at scheduler
// latency (measured as a 6-10x munmap collapse for the scoped VM variants).
//
// Deferred grace needs standing inventory: a parked batch is out of circulation for
// roughly one scheduler round, so a hot thread must own enough nodes to bridge
// alloc_rate x grace_latency of demand — far more than the paper's fixed N, whose
// blocking barrier never had in-flight batches. The pool therefore *self-sizes*:
// every park is a shortage signal that ratchets the inventory target up by one batch
// (bounded), and the paper's trim rule (back to target when above 2x target) only
// prunes down to that learned floor, with no batch in flight. Without the ratchet the
// pool thrashes — park forces a kTargetSize malloc burst, the reap overfills, the
// trim deletes the overfill, and the next park mallocs again (measured as a ~1.5x
// locked-fault-path slowdown); with it, parking and the malloc traffic die out once
// the floor covers the grace latency. The floor also *decays*: after a run of
// shortage-free reap cycles it gives back one batch per further quiet cycle, so a
// fault storm followed by a long quiet phase does not strand the storm's inventory
// forever (see DecayQuietRefills()). Fresh pools behave exactly as the paper's
// (target stays kTargetSize until the first shortage), which is also what keeps the
// pool-size ablation meaningful.
//
// Pools are bound to EpochDomain::Global(): the grace condition must cover every thread
// that can traverse a list containing these nodes, and the global domain is the only
// set with that property.
#ifndef SRL_EPOCH_NODE_POOL_H_
#define SRL_EPOCH_NODE_POOL_H_

#include <algorithm>
#include <cstddef>

#include "src/epoch/epoch_domain.h"
#include "src/epoch/grace_batches.h"
#include "src/sync/topology.h"

namespace srl {

// T must provide a `T* pool_next` field for the pool's free lists. It must be distinct
// from any link a concurrent traversal follows: LNode keeps it apart from its atomic
// `next`, which stays frozen after the unlink (see src/core/lnode.h).
//
// kTarget is the paper's N (128 by default; templated so the pool-size ablation bench
// can sweep it).
template <typename T, std::size_t kTarget = 128>
class NodePool {
 public:
  static constexpr std::size_t kTargetSize = kTarget;
  // Inventory-ratchet bound: the learned target never exceeds this many batches, so a
  // pathological reader parked in a critical section cannot grow the pool without
  // limit.
  static constexpr std::size_t kMaxInventory = 64 * kTargetSize;
  // Ratchet decay: after this many consecutive refills with no shortage (no park, no
  // batch in flight), the learned floor gives back one batch per further quiet refill.
  // A fault storm ratchets the floor up in minutes; without decay, the storm's
  // inventory stays resident through hours of light load (ROADMAP: "a phase change
  // strands inventory"). The run-up requirement keeps steady park-every-few-refills
  // workloads from oscillating: any shortage resets the count. Derived from the core
  // count at first use: max(8, cores) — more running cores means more threads whose
  // open quanta stretch grace windows, so "quiet" needs a longer run-up before it is
  // evidence of a real phase change. CpuCount() == 1 reproduces the old constant 8
  // exactly; epoch_test asserts this derivation.
  static std::size_t DecayQuietRefills() {
    static const std::size_t v = std::max<std::size_t>(8, CpuCount());
    return v;
  }

  NodePool() : rec_(CurrentThreadRec(EpochDomain::Global())) {
    Replenish(kTargetSize);
  }

  ~NodePool() {
    // Everything in `reclaimed` and the parked batches may still be referenced; wait
    // out in-flight traversals. Quiesce first: barriers must never run with the
    // caller's own quantum open.
    EpochDomain::QuiesceQuantum(rec_);
    EpochDomain::Global().Barrier(rec_);
    FreeAll(&active_);
    FreeAll(&reclaimed_);
    parked_.DrainAll([](List& nodes) { FreeAll(&nodes); });
  }

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  // Hands out a node for a new acquisition. Never blocks (see Refill), so it is legal
  // from inside epoch critical sections.
  T* Alloc() {
    if (active_.head == nullptr) {
      Refill();
    }
    if (active_.head == nullptr) {
      // Every reclaimed node is still inside someone's grace period and the parked
      // backlog is full: allocate fresh rather than wait.
      Replenish(kTargetSize);
    }
    return Pop(&active_);
  }

  // Returns an unused node (one that never entered a shared list) straight to the active
  // pool — no grace period required.
  void Recycle(T* node) { Push(&active_, node); }

  // Accepts a node that was just physically unlinked from a shared list. It becomes
  // allocatable only after a future barrier.
  void Retire(T* node) { Push(&reclaimed_, node); }

  std::size_t ActiveSize() const { return active_.size; }
  std::size_t ReclaimedSize() const { return reclaimed_.size; }
  std::size_t ParkedBatches() const { return parked_.Size(); }
  // Nodes waiting out a grace period in parked batches.
  std::size_t ParkedSize() const {
    std::size_t n = 0;
    parked_.ForEach([&n](const List& nodes) { n += nodes.size; });
    return n;
  }
  // Monotonic counts of nodes this pool took from (Replenish) and gave back to (Trim)
  // the system allocator. active + reclaimed + parked + freed - allocated is an exact
  // ledger: it moves only when a node passes between this pool and a lock or another
  // thread's pool.
  std::size_t Allocated() const { return allocated_; }
  std::size_t Freed() const { return freed_; }
  // The learned inventory floor (kTargetSize when never ratcheted / fully decayed).
  std::size_t InventoryTarget() const { return target_; }

  // The calling thread's pool for T. One instance per (thread, T).
  static NodePool& Local() {
    thread_local NodePool pool;
    return pool;
  }

 private:
  struct List {
    T* head = nullptr;
    T* tail = nullptr;
    std::size_t size = 0;
  };

  // Moves every node of `src` onto `dst` in O(1) — refills splice whole batches on
  // the allocation hot path.
  static void Splice(List* dst, List* src) {
    if (src->head == nullptr) {
      return;
    }
    src->tail->pool_next = dst->head;
    if (dst->head == nullptr) {
      dst->tail = src->tail;
    }
    dst->head = src->head;
    dst->size += src->size;
    *src = List{};
  }

  static void Push(List* list, T* node) {
    node->pool_next = list->head;
    if (list->head == nullptr) {
      list->tail = node;
    }
    list->head = node;
    ++list->size;
  }

  static T* Pop(List* list) {
    T* node = list->head;
    list->head = node->pool_next;
    if (list->head == nullptr) {
      list->tail = nullptr;
    }
    --list->size;
    return node;
  }

  // Refill never blocks, yields, or runs a barrier, so it is safe from any context,
  // scoped epoch critical sections included (a range acquisition made from within a
  // skip-list operation allocates here with depth > 0). Kept out of line, like
  // AssignCounterSlot(): it runs once per batch of allocations, and GCC inlining it
  // into the lock acquisition paths made kv-paged's median op 18% slower (4-core host).
  [[gnu::noinline]] void Refill() {
    // First reap: any parked batch whose grace has elapsed is unreachable and becomes
    // allocatable wholesale (O(1) splice each).
    auto to_active = [this](List& nodes) { Splice(&active_, &nodes); };
    parked_.Reap(to_active);

    bool shortage = false;
    if (active_.head == nullptr && reclaimed_.head != nullptr) {
      // A quiescent domain swaps `reclaimed` in at once — the classic barrier-and-swap,
      // without the barrier or a ticket (the refill fast path); otherwise it parks.
      if (!parked_.Full()) {
        shortage = parked_.Park(rec_, reclaimed_, to_active);
      } else if (EpochDomain::Global().QuiescentNow(rec_)) {
        // A full backlog still takes the free swap. Otherwise `reclaimed` keeps
        // accumulating until a later refill has reaped a batch.
        Splice(&active_, &reclaimed_);
      }
      // Shortage: demand outran inventory by one grace period. Ratchet the target so
      // the replenishment below becomes standing inventory instead of being trimmed
      // away after the reap.
      if (shortage && target_ < kMaxInventory) {
        target_ += kTargetSize;
      }
    }

    // Ratchet decay: a reap cycle that neither parked nor has a batch in flight is
    // evidence the grace latency is covered with room to spare; enough of them in a
    // row and the learned floor gives back one batch per quiet cycle, letting the trim
    // below reclaim inventory a past storm stranded.
    if (shortage) {
      quiet_refills_ = 0;
    } else if (parked_.Empty() && target_ > kTargetSize &&
               ++quiet_refills_ >= DecayQuietRefills()) {
      --quiet_refills_;  // hold at the threshold: one batch per further quiet refill
      target_ -= kTargetSize;
    }

    if (active_.size < target_ / 2) {
      Replenish(target_ - active_.size);
    } else if (active_.size > 2 * target_ && parked_.Empty()) {
      // Trim only down to the learned floor, and only with no batch in flight: while
      // grace is pending, the excess IS the inventory that keeps the next park from
      // forcing a malloc burst.
      Trim(target_);
    }
  }

  void Replenish(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      Push(&active_, new T());
    }
    allocated_ += count;
  }

  void Trim(std::size_t down_to) {
    while (active_.size > down_to) {
      delete Pop(&active_);
      ++freed_;
    }
  }

  static void FreeAll(List* list) {
    while (list->head != nullptr) {
      delete Pop(list);
    }
  }

  EpochDomain::ThreadRec* rec_;
  List active_;
  List reclaimed_;
  GraceBatches<List> parked_;
  // Learned inventory floor: kTargetSize until the first shortage, ratcheted up one
  // batch per park, decayed one batch per quiet reap cycle after a quiet run-up,
  // never above kMaxInventory. See the header comment.
  std::size_t target_ = kTargetSize;
  // Consecutive shortage-free refills (see DecayQuietRefills()).
  std::size_t quiet_refills_ = 0;
  std::size_t allocated_ = 0;
  std::size_t freed_ = 0;
};

}  // namespace srl

#endif  // SRL_EPOCH_NODE_POOL_H_
