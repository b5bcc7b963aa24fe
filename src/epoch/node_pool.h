// Thread-local object pools amortizing epoch reclamation (paper §4.4).
//
// Each thread keeps two pools per node type:
//   * `active`    — nodes ready to be handed out for new range acquisitions;
//   * `reclaimed` — nodes this thread unlinked from some lock's list but that may still be
//                   referenced by concurrent traversals.
// When the active pool runs dry the thread takes a grace *snapshot*
// (EpochDomain::GraceTicket): if no critical section is in flight the reclaimed pool is
// provably unreachable and swaps in immediately (the paper's barrier-and-swap, for
// free); otherwise the reclaimed batch is parked with its snapshot and reaped by a
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
#include <utility>
#include <vector>

#include "src/epoch/epoch_domain.h"
#include "src/sync/topology.h"

namespace srl {

// T must provide `T* pool_next` usable while the node is free. (LNode aliases this onto
// its atomic next field; see src/core/lnode.h.)
template <typename T>
struct PoolTraits {
  static void SetNext(T* node, T* next) { node->pool_next = next; }
  static T* GetNext(T* node) { return node->pool_next; }
};

// kTarget is the paper's N (128 by default; templated so the pool-size ablation bench
// can sweep it).
template <typename T, typename Traits = PoolTraits<T>, std::size_t kTarget = 128>
class NodePool {
 public:
  static constexpr std::size_t kTargetSize = kTarget;
  // Parked-batch bound: beyond this, refills stop parking and Alloc falls back to
  // fresh allocation until grace elapses somewhere.
  static constexpr std::size_t kMaxParkedBatches = 8;
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
    for (Parked& p : parked_) {
      FreeAll(&p.nodes);
    }
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
  std::size_t ParkedBatches() const { return parked_.size(); }
  // Nodes waiting out a grace period in parked batches.
  std::size_t ParkedSize() const {
    std::size_t n = 0;
    for (const Parked& p : parked_) {
      n += p.nodes.size;
    }
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

  struct Parked {
    List nodes;
    EpochDomain::GraceTicket ticket;
  };

  // Moves every node of `src` onto `dst` in O(1) — refills splice whole batches on
  // the allocation hot path.
  static void Splice(List* dst, List* src) {
    if (src->head == nullptr) {
      return;
    }
    Traits::SetNext(src->tail, dst->head);
    if (dst->head == nullptr) {
      dst->tail = src->tail;
    }
    dst->head = src->head;
    dst->size += src->size;
    *src = List{};
  }

  static void Push(List* list, T* node) {
    Traits::SetNext(node, list->head);
    if (list->head == nullptr) {
      list->tail = node;
    }
    list->head = node;
    ++list->size;
  }

  static T* Pop(List* list) {
    T* node = list->head;
    list->head = Traits::GetNext(node);
    if (list->head == nullptr) {
      list->tail = nullptr;
    }
    --list->size;
    return node;
  }

  // Refill never blocks, yields, or runs a barrier, so it is safe from any context,
  // scoped epoch critical sections included (a range acquisition made from within a
  // skip-list operation allocates here with depth > 0).
  void Refill() {
    // First reap: any parked batch whose grace has elapsed is unreachable and becomes
    // allocatable wholesale (O(1) splice each).
    std::erase_if(parked_, [this](Parked& p) {
      if (!p.ticket.Elapsed()) {
        return false;
      }
      Splice(&active_, &p.nodes);
      return true;
    });

    bool shortage = false;
    if (active_.head == nullptr && reclaimed_.head != nullptr) {
      if (EpochDomain::Global().QuiescentNow(rec_)) {
        // No concurrent critical sections: the classic barrier-and-swap, without the
        // barrier (and without allocating a ticket — this is the refill fast path).
        Splice(&active_, &reclaimed_);
      } else if (parked_.size() < kMaxParkedBatches) {
        parked_.push_back({reclaimed_, EpochDomain::Global().Snapshot(rec_)});
        reclaimed_ = List{};
        shortage = true;
        // Shortage: demand outran inventory by one grace period. Ratchet the target
        // so the replenishment below becomes standing inventory instead of being
        // trimmed away after the reap.
        if (target_ < kMaxInventory) {
          target_ += kTargetSize;
        }
      }
      // else: keep accumulating in `reclaimed`; a later refill retries once a parked
      // batch has been reaped.
    }

    // Ratchet decay: a reap cycle that neither parked nor has a batch in flight is
    // evidence the grace latency is covered with room to spare; enough of them in a
    // row and the learned floor gives back one batch per quiet cycle, letting the trim
    // below reclaim inventory a past storm stranded.
    if (shortage) {
      quiet_refills_ = 0;
    } else if (parked_.empty() && target_ > kTargetSize &&
               ++quiet_refills_ >= DecayQuietRefills()) {
      --quiet_refills_;  // hold at the threshold: one batch per further quiet refill
      target_ -= kTargetSize;
    }

    if (active_.size < target_ / 2) {
      Replenish(target_ - active_.size);
    } else if (active_.size > 2 * target_ && parked_.empty()) {
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
  std::vector<Parked> parked_;
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
