// Virtual Memory Area records — the user-space analogue of the kernel's
// vm_area_struct (§5.1).
//
// A Vma describes one contiguous region [start, end) of the simulated address space
// with uniform protection. All Vmas of an AddressSpace live in an rb tree (mm_rb)
// keyed by start address. A Vma holds no page-table state: which of its pages are
// present is the PageTable's business alone, so splits, merges and boundary moves
// never move page bookkeeping between records.
//
// start / end / prot are relaxed atomics: the refined lock variants legally let readers
// (page faults, speculative lookups) observe a VMA whose boundary a metadata-only
// mprotect is concurrently moving — outside the locked range, either the old or the new
// boundary value yields a correct answer, but the reads must be tear-free.
//
// The rb linkage fields are RbAtomicLink: under the range-scoped variants the tree is
// rebalanced by writers that hold only a partial-range lock, so page faults walk mm_rb
// *optimistically* (seqcount-validated, see VmaIndex) while rotations are in flight.
// Atomic links keep those walks tear-free; the seqlock makes them consistent.
//
// Two members exist purely for the lock-free fault fast path (the per-VMA-lock analogue
// of the kernel's vm_lock_seq):
//
//   * meta_seq — a per-VMA seqlock bracketing every *metadata-only* mutation (the
//     speculative mprotect's whole-flips and boundary moves, which deliberately do NOT
//     bump VmaIndex's structural seqcount). A speculative fault snapshots it, reads
//     start/end/prot, and re-validates, so it can never act on a torn (bounds, prot)
//     combination or mistake a mid-boundary-move transient gap for a real one.
//   * detached — set when the VMA is unlinked from mm_rb (it stays dereferenceable
//     until its epoch grace period ends). A speculative fault re-checks it after the
//     page install: a fault that raced the unlinking munmap must undo and retry rather
//     than report success against a dead mapping.
#ifndef SRL_VM_VMA_H_
#define SRL_VM_VMA_H_

#include <atomic>
#include <cstdint>

#include "src/rbtree/rb_tree.h"
#include "src/sync/seq_counter.h"

namespace srl::vm {

// Protection bits (subset of the POSIX PROT_* space).
inline constexpr uint32_t kProtNone = 0;
inline constexpr uint32_t kProtRead = 1u << 0;
inline constexpr uint32_t kProtWrite = 1u << 1;
inline constexpr uint32_t kProtExec = 1u << 2;

struct Vma {
  RbAtomicLink<Vma> rb_parent;
  RbAtomicLink<Vma> rb_left;
  RbAtomicLink<Vma> rb_right;
  bool rb_red = false;  // only touched under structural exclusion; walks never read it

  std::atomic<uint64_t> start{0};
  std::atomic<uint64_t> end{0};
  std::atomic<uint32_t> prot{kProtNone};

  // Seqlock over (start, end, prot) for mutations that bypass the index seqcount
  // (metadata-only speculative mprotects). Writers are serialized by VmaIndex's tree
  // lock; see the header comment.
  SeqCounter meta_seq;
  // True once the VMA has been unlinked from mm_rb (set inside the unlinking seqlock
  // write section, before the structural seqcount goes even again).
  std::atomic<bool> detached{false};

  uint64_t Start() const { return start.load(std::memory_order_relaxed); }
  uint64_t End() const { return end.load(std::memory_order_relaxed); }
  uint32_t Prot() const { return prot.load(std::memory_order_relaxed); }
  bool Detached() const { return detached.load(std::memory_order_acquire); }
};

// mm_rb ordering: by start address. Boundary moves preserve relative order (they only
// shift a boundary between two adjacent VMAs), so in-place key updates are legal.
struct VmaTraits {
  static bool Less(const Vma& a, const Vma& b) { return a.Start() < b.Start(); }
  static void Update(Vma*) {}
};

// Plain-value snapshot for tests and debugging.
struct VmaInfo {
  uint64_t start;
  uint64_t end;
  uint32_t prot;

  friend bool operator==(const VmaInfo&, const VmaInfo&) = default;
};

}  // namespace srl::vm

#endif  // SRL_VM_VMA_H_
