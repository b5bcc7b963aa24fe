// The grace-period batcher behind every deferred free in the global epoch domain
// (paper §4.4): RetireList's retired objects and NodePool's reclaimed lock nodes.
//
// A batch of items that concurrent traversals may still reference either becomes
// reusable at once — no other critical section is in flight (QuiescentNow()) — or
// parks with a grace snapshot (EpochDomain::GraceTicket) until a later Reap finds the
// snapshot elapsed. Nothing here waits: epoch-per-quantum readers (EpochQuantumGuard)
// keep their epochs odd across whole operation batches, so waiting them out at every
// flush point would cost a scheduler round per flush (measured as a 6-10x munmap
// collapse on one core). A parked batch simply stays alive a little longer.
//
// The backlog is capped at kMaxBatches parked batches. What an owner does once the
// core is Full() is the owner's policy: RetireList waits a grace period out (it runs
// at operation boundaries, holding nothing), NodePool allocates fresh (it runs inside
// critical sections and cannot wait).
//
// Not thread-safe: the owner serializes every call (RetireList under its spin lock,
// NodePool by being thread-local).
#ifndef SRL_EPOCH_GRACE_BATCHES_H_
#define SRL_EPOCH_GRACE_BATCHES_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/epoch/epoch_domain.h"

namespace srl {

// Items is a batch container. Every `ready` callback takes `Items&` and takes the
// items over, leaving the argument empty.
template <typename Items>
class GraceBatches {
 public:
  // Parked-batch cap. A healthy quantum reader elapses a ticket within one flush
  // interval, so the cap is reached only while some section is stalled.
  static constexpr std::size_t kMaxBatches = 8;

  // Hands `items` to `ready` when no critical section other than `self`'s is in
  // flight; otherwise parks them behind a snapshot of the in-flight sections and
  // leaves `items` empty. Returns whether it parked. Never checks Full().
  template <typename Ready>
  bool Park(const EpochDomain::ThreadRec* self, Items& items, Ready&& ready) {
    EpochDomain& domain = EpochDomain::Global();
    if (domain.QuiescentNow(self)) {
      ready(items);
      return false;
    }
    batches_.push_back({std::exchange(items, Items{}), domain.Snapshot(self)});
    return true;
  }

  // Hands every batch whose grace period has elapsed to `ready`.
  template <typename Ready>
  void Reap(Ready&& ready) {
    std::erase_if(batches_, [&ready](Batch& batch) {
      if (!batch.ticket.Elapsed()) {
        return false;
      }
      ready(batch.items);
      return true;
    });
  }

  // Hands every batch to `ready`, elapsed or not: only after a Barrier() or when no
  // traversal can remain (destruction).
  template <typename Ready>
  void DrainAll(Ready&& ready) {
    for (Batch& batch : batches_) {
      ready(batch.items);
    }
    batches_.clear();
  }

  bool Full() const { return batches_.size() >= kMaxBatches; }
  bool Empty() const { return batches_.empty(); }
  std::size_t Size() const { return batches_.size(); }

  // Visits every parked batch's items (for counts).
  template <typename F>
  void ForEach(F&& f) const {
    for (const Batch& batch : batches_) {
      f(batch.items);
    }
  }

 private:
  struct Batch {
    Items items;
    EpochDomain::GraceTicket ticket;
  };
  std::vector<Batch> batches_;
};

}  // namespace srl

#endif  // SRL_EPOCH_GRACE_BATCHES_H_
