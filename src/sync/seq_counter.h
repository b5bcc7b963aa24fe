// Seqlock used by the speculative VM protocols (§5.2).
//
// Structural mutators wrap their mutation in a write section (BeginWrite/EndWrite: the
// counter is odd while a mutation is in flight); optimistic readers snapshot an even
// value before walking shared structure (ReadBegin) and re-validate afterwards
// (Validate), retrying when a mutation overlapped the walk. This is what lets
// VmaStripe::TryFindOptimistic run correctly without excluding concurrent structural
// writers. The same interface serves per-object at finer grain: Vma::meta_seq brackets
// metadata-only boundary/protection moves (invisible to the stripe-level counter by
// design), giving the lock-free fault path a torn-read detector for a single VMA's
// (start, end, prot) triple.
//
// Memory model: Boehm's recipe ("Can seqlocks get along with programming language
// memory models?", MSPC 2012). The writer follows its opening increment with a release
// fence, so its data stores cannot rise above the increment; readers begin with an
// acquire load, so the walk's loads cannot rise above the snapshot, and re-read behind
// an acquire fence, so they cannot sink below the re-read. If a reader's walk saw any
// store of a write section, the writer's release fence synchronizes with the reader's
// acquire fence and the re-read must see the odd value or a later one. On x86 both
// fences compile to nothing. All data read inside a read section must itself be
// accessed through atomics: the protocol makes torn *walks* detectable, it does not
// make torn *loads* defined.
//
// No full fence is needed, not even where a caller validates after a store of its own
// (the speculative fault validates after its page install). A seqlock read section
// orders the caller's loads; it does not order a preceding store before the re-read,
// and the VM code never asks it to: the store-then-load orderings of
// AddressSpace::PageFaultOptimistic are carried by locks. A sweep that took the page's
// shard lock before the fault's install came after the munmap's seqcount bump, so bump
// → shard unlock → the fault's shard lock → its validating load is a happens-before
// chain and the load sees the bump; a sweep that took the lock after the install
// erases the page whatever the load reads. Cancel-then-revalidate runs the same
// argument through the sweep-queue lock (see PageFaultOptimistic).
//
// ThreadSanitizer builds keep a full fence in Validate and an acq_rel increment in
// BeginWrite: GCC rejects std::atomic_thread_fence under -fsanitize=thread, and TSan
// could not model it anyway.
#ifndef SRL_SYNC_SEQ_COUNTER_H_
#define SRL_SYNC_SEQ_COUNTER_H_

#include <atomic>
#include <cstdint>

#include "src/sync/fence.h"
#include "src/sync/spin_wait.h"

namespace srl {

class SeqCounter {
 public:
  SeqCounter() = default;
  SeqCounter(const SeqCounter&) = delete;
  SeqCounter& operator=(const SeqCounter&) = delete;

  // Reads the current sequence value (any parity).
  uint64_t Read() const { return value_.load(std::memory_order_acquire); }

  // Opens a write section: the value becomes odd. Write sections must not nest and must
  // be serialized externally (VmaStripe serializes them with its mutation spin lock).
  void BeginWrite() {
#ifdef SRL_TSAN
    value_.fetch_add(1, std::memory_order_acq_rel);
#else
    value_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
#endif
  }

  // Closes the write section opened by BeginWrite(): the value becomes even again.
  void EndWrite() { value_.fetch_add(1, std::memory_order_release); }

  // Snapshots a stable (even) value, spinning past any in-flight write section.
  uint64_t ReadBegin() const {
    SpinWait spin;
    for (;;) {
      const uint64_t v = value_.load(std::memory_order_acquire);
      if ((v & 1) == 0) {
        return v;
      }
      spin.Spin();
    }
  }

  // True if no write section started since `snapshot` was taken by ReadBegin(). The
  // fence orders the caller's preceding data loads before the re-read.
  bool Validate(uint64_t snapshot) const {
#ifdef SRL_TSAN
    // TSan cannot model fences; the seq_cst RMW that SeqCstFence swaps in under TSan
    // gives it a trackable ordering point (see sync/fence.h).
    SeqCstFence();
#else
    std::atomic_thread_fence(std::memory_order_acquire);
#endif
    return value_.load(std::memory_order_relaxed) == snapshot;
  }

 private:
  std::atomic<uint64_t> value_{0};
};

}  // namespace srl

#endif  // SRL_SYNC_SEQ_COUNTER_H_
