// Simulated process address space — the mm_struct analogue the kernel experiments run
// against (§5).
//
// Structure mirrors the kernel: VMAs in an rb tree (mm_rb, wrapped by VmaIndex) keyed by
// start, a find_vma() that returns the first VMA whose end exceeds the queried address,
// eager merging of adjacent same-protection VMAs, splits on partial-range protection
// changes, and a page table consulted by the fault path. The whole subsystem is guarded
// by a pluggable VmLock; range refinement follows §5.2/§5.3, and the scoped variants
// push it one step past the paper:
//
//   * mmap / munmap / structural mprotect:
//       - full-range variants: full-range write lock, always (structural, §5.2).
//       - scoped variants (kTreeScoped / kListScoped): write lock on the affected range
//         only — mmap locks [base, base+len); munmap and structural mprotect lock the
//         argument range padded by one page on each side, which covers every boundary
//         they can move (neighbour merges included). The rb tree itself is protected by
//         the owning stripe's mutation lock + seqcount, so disjoint-range structural
//         ops proceed in parallel — the user-space analogue of the kernel's
//         per-VMA-lock / maple-tree direction. A classify-then-fallback guard
//         (mirroring the SpecCase protocol) degrades any operation whose padded range
//         cannot be represented (top-of-address-space overflow) or crosses a stripe
//         edge to the full-range path, so correctness never depends on the scoped
//         reasoning in the corner cases.
//   * page fault: read lock — full range, or just the faulting page when `refine_fault`
//     is set (§5.3). Scoped variants additionally look the VMA up with a
//     seqcount-validated optimistic walk inside an epoch critical section, because
//     their read acquisition no longer excludes out-of-range structural writers.
//   * mprotect: full-range write lock, or the speculative protocol of Listing 4 when
//     `refine_mprotect` is set: read-lock the argument range, find the VMA, snapshot the
//     sequence number, re-lock [vma.start - page, vma.end + page) for write, validate,
//     and fall back to the structural path whenever mm_rb would change structurally.
//
// Striped address spaces (the sharding layer on top of all of the above): the mmap
// region is carved into `Stripes()` disjoint power-of-two windows, each owning a
// complete VmaStripe (tree, mutation lock, structural seqcount, epoch retire list) and
// a cache-line-padded mmap cursor. A thread's mmaps carve from its *home stripe*
// (thread-registration-order hash, overflowing to the neighbouring stripe when a
// window is exhausted), so scoped structural ops from different threads touch no
// shared cache line at all. Every VMA lies wholly inside one window — the allocator
// never carves across an edge and the merge sweep never absorbs across one — so any
// address's stripe is a shift of its value, and a speculative fault validates against
// only its own stripe's seqcount: churn in stripe A costs faults in stripe B nothing.
// Operations whose (padded) range crosses a stripe edge classify-then-fallback to the
// full-range path, which locks the affected stripes in ascending order — a coherent
// fence. The structural sequence number, the speculation validator of §5.2, and the
// install-then-validate fault ordering all become per-stripe statements; see README
// "Striped address spaces" for the restated ordering argument.
//
// Lifetime of VMA records: epoch-based reclamation. An unlinked VMA is retired into
// its stripe's SharedRetireList and freed only after a grace period, so optimistic
// walkers and the speculative-mprotect window (Listing 4 line 15 reads vma->start with
// no lock held) never dereference freed memory.
#ifndef SRL_VM_ADDRESS_SPACE_H_
#define SRL_VM_ADDRESS_SPACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/epoch/epoch_domain.h"
#include "src/epoch/sweep_queue.h"
#include "src/sync/spin_lock.h"
#include "src/vm/page_table.h"
#include "src/vm/vm_lock.h"
#include "src/vm/vm_stats.h"
#include "src/vm/vma.h"
#include "src/vm/vma_index.h"

namespace srl::vm {

// Named lock configurations of the kernel evaluation (Figures 5–8), plus the
// range-scoped structural extensions.
enum class VmVariant {
  kStock,         // mmap_sem semantics
  kTreeFull,      // tree range lock, always full range
  kTreeRefined,   // tree range lock + refined fault & speculative mprotect
  kListFull,      // list range lock, always full range
  kListRefined,   // list range lock + refined fault & speculative mprotect
  kListPf,        // list lock, refined fault only (Figure 6 breakdown)
  kListMprotect,  // list lock, speculative mprotect only (Figure 6 breakdown)
  kTreeScoped,    // tree lock, refined + range-scoped structural ops
  kListScoped,    // list lock, refined + range-scoped structural ops
  kListLfFull,    // lock-free bucketed list lock, always full range
  kListLfScoped,  // lock-free bucketed list lock, refined + range-scoped structural ops
};

const char* VmVariantName(VmVariant v);

// Canonical list of every variant, in presentation order (benches resolve --variants
// flags against this, so the flag parser and the enum can never drift).
inline constexpr VmVariant kAllVmVariants[] = {
    VmVariant::kStock,        VmVariant::kTreeFull,    VmVariant::kTreeRefined,
    VmVariant::kListFull,     VmVariant::kListRefined, VmVariant::kListPf,
    VmVariant::kListMprotect, VmVariant::kTreeScoped,  VmVariant::kListScoped,
    VmVariant::kListLfFull,   VmVariant::kListLfScoped,
};

// Reverse of VmVariantName over kAllVmVariants. Returns kStock with *ok = false when
// `name` matches no variant.
inline VmVariant VmVariantFromName(const std::string& name, bool* ok) {
  for (const VmVariant v : kAllVmVariants) {
    if (name == VmVariantName(v)) {
      *ok = true;
      return v;
    }
  }
  *ok = false;
  return VmVariant::kStock;
}

class AddressSpace {
 public:
  static constexpr uint64_t kPageSize = 4096;
  // Start of the mmap arena; keeps vma.start - kPageSize from underflowing.
  static constexpr uint64_t kMmapBase = VmaIndex::kStripeBase;
  // Bytes per address-space stripe window.
  static constexpr uint64_t kStripeSpan = uint64_t{1} << VmaIndex::kStripeShift;

  // `stripes` selects the address-space stripe count (clamped to [1, 64], rounded up
  // to a power of two). 0 picks the default: one stripe per hardware thread for the
  // scoped variants (whose structural ops are the ones that profit from sharing no
  // state), one stripe otherwise.
  explicit AddressSpace(VmVariant variant, unsigned stripes = 0);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Maps `length` bytes (rounded up to pages) with the given protection, carving from
  // the calling thread's home stripe. Returns the base address (never 0 on success;
  // 0 when every stripe window is exhausted).
  uint64_t Mmap(uint64_t length, uint32_t prot);

  // As Mmap, but carves from `stripe`'s window (overflowing to neighbours exactly like
  // the home-stripe policy). Benches and tests use this to pin workloads to stripes;
  // `stripe` must be < Stripes().
  uint64_t MmapInStripe(unsigned stripe, uint64_t length, uint32_t prot);

  // Unmaps [addr, addr+length). Splits partially covered VMAs, exactly like the kernel.
  // Returns false if the range touches no mapping.
  //
  // The VMA unlink and the stripe-seqcount bump are synchronous (they are the fence the
  // speculative-fault ordering argument needs); the page-table sweep is deferred to the
  // per-stripe SweepQueue and flushed at operation boundaries once the queue crosses
  // its threshold — the kernel's TLB-batching shape. Pages of the range are guaranteed
  // gone only after the covering sweep flushes; DrainSweeps gives the hard edge.
  bool Munmap(uint64_t addr, uint64_t length);

  // Changes protection of [addr, addr+length). Returns false if the range is not fully
  // covered by existing mappings (ENOMEM in the kernel).
  bool Mprotect(uint64_t addr, uint64_t length, uint32_t prot);

  // Simulated page-fault interrupt for an access at `addr`. Returns true if the access
  // is legal (installing the page on first touch), false for SIGSEGV conditions.
  //
  // Scoped variants resolve the common case entirely lock-free (§5.2's speculative
  // read taken to its endgame, the user-space analogue of the kernel's per-VMA-lock
  // fault path): an epoch-quantum-guarded optimistic walk of the faulting address's
  // stripe, a per-VMA seqcount snapshot of the covering VMA's bounds and protection, a
  // conditional page install, then re-validation of the stripe's structural seqcount
  // and the VMA's live flag — retrying (bounded) on same-stripe overlap and degrading
  // to the trylock-first locked path when speculation cannot decide. See
  // PageFaultOptimistic for the ordering argument.
  bool PageFault(uint64_t addr, bool is_write);

  // MADV_DONTNEED semantics: drops the pages of [addr, addr+length) so the next touch
  // faults again. Used by the arena allocator's trim path (glibc frees trimmed pages).
  // Runs under a read acquisition like the kernel's madvise, and enqueues the drop
  // exactly like Munmap: pages installed before the call are guaranteed gone only
  // after the covering sweep flushes (DrainSweeps gives the hard edge), and a fault
  // racing the call may legitimately re-install a page afterwards — the same contract
  // Linux gives a fault racing madvise(MADV_DONTNEED).
  bool MadviseDontNeed(uint64_t addr, uint64_t length);

  // --- Deferred-sweep control -----------------------------------------------------

  // Pages a stripe's queue accumulates before an operation boundary flushes it.
  void SetSweepFlushThreshold(uint64_t pages);

  // Drain barrier: flushes every stripe's queue, waits out every in-flight fault (an
  // epoch barrier — a losing fault that handed its undo to a pending sweep, or a stale
  // walker resurrecting a just-swept page, completes or undoes inside it), then
  // flushes again. Afterwards no page survives in any unmapped or DONTNEED'd range —
  // the deferred-sweep restatement of the fault-vs-unmap batteries' invariant. Call
  // holding no locks or ranges.
  void DrainSweeps();

  // Pages enqueued and not yet swept, summed over stripes (racy; tests/benches).
  uint64_t PendingSweepPages() const;

  // Every VM counter as of this call: folds the per-thread, per-stripe counter slots
  // into the returned totals and per-stripe view (see vm_stats.h).
  const VmStats& Stats() const {
    stats_.Fold();
    return stats_;
  }
  VmLock& Lock() { return *lock_; }
  VmVariant Variant() const { return variant_; }
  bool ScopedStructural() const { return scoped_structural_; }
  // Metadata-only mprotects take the speculative path of Listing 4 (§5.2).
  bool RefinedMprotect() const { return refine_mprotect_; }

  // --- Stripe introspection ---
  unsigned Stripes() const { return stripes_; }
  unsigned StripeOf(uint64_t addr) const { return index_.IndexOf(addr); }
  // The calling thread's home stripe (stable per thread for this space's stripe
  // count), assigned by registration-order round robin: the k-th thread in the
  // process to ask gets stripe k mod Stripes().
  unsigned HomeStripe() const;

  // --- Introspection (each takes the full write lock; safe any time) ---

  std::vector<VmaInfo> SnapshotVmas();
  // VMAs sorted, non-overlapping, page-aligned, trees structurally valid, no VMA
  // straddling a stripe-window edge, and no page present outside a mapped VMA (modulo
  // pages a still-pending sweep covers). Runs DrainSweeps first so the page-table view
  // is consistent. With `strict_present_counts` (the default — sequential callers),
  // additionally asserts every VMA's present_hint is a sound upper bound on its
  // CountRange and resyncs the hint to the exact count; callers racing live faulters
  // (the concurrent fuzz checker) must pass false, because in-flight installs make the
  // hint transiently unordered against any count snapshot.
  bool CheckInvariants(bool strict_present_counts = true);
  std::size_t PresentPages() const { return pages_.Count(); }
  // Present pages within [addr, addr+length) — lock-free racy count (the fault-vs-unmap
  // batteries assert this drains to zero, post-DrainSweeps, for unmapped, never-reused
  // ranges). An empty range counts zero pages even when addr is mid-page (the
  // PageDown/PageUp mix used to widen length == 0 to a full page).
  std::size_t PresentPagesInRange(uint64_t addr, uint64_t length) const {
    if (length == 0) {
      return 0;
    }
    return pages_.CountRange(PageDown(addr) / kPageSize, PageUp(addr + length) / kPageSize);
  }

  // --- Test-only fault-ordering hooks -------------------------------------------
  // The speculative fault's correctness hinges on installing the page BEFORE
  // re-validating the stripe's structural seqcount (a fault that loses the race to a
  // munmap must observe the seq bump and undo, or the munmap's page sweep must observe
  // the install — never neither). This hook inverts that order and optionally widens
  // the race window with `window_yields` scheduler yields between validate and
  // install, so the fault-vs-unmap oracle battery can demonstrate it catches the
  // broken ordering. Never use outside tests.
  void TestOnlySetSpecFaultOrdering(bool validate_before_install, uint32_t window_yields) {
    test_validate_before_install_ = validate_before_install;
    test_spec_window_yields_ = window_yields;
  }

  // Sweeps are deferred, so the losing-fault undo must consult the sweep queue and use
  // its install ticket (see PageFaultOptimistic): a pending sweep covering the page
  // makes the undo the flusher's job, and an already-claimed sweep may have erased and
  // let a winning fault re-install the page — which a blind Remove would destroy,
  // driving the winner's VMA present_hint below the true count. `false` reverts to the
  // pre-deferral blind undo (Remove + unconditional hint decrement) so the extended
  // fault-vs-unmap oracle can demonstrate it catches the missing check. Tests only.
  void TestOnlySetUndoSweepCheck(bool on) { test_undo_sweep_check_ = on; }

  // Deterministic interleaving gate for the install→validate window: the NEXT
  // speculative fault to install a page consumes the (one-shot) token, flags itself
  // parked, and spins until TestOnlyReleaseParkedFault() — so a test can run an exact
  // sequence of structural operations inside the window instead of hoping a yield
  // count outlasts them. The park self-releases after ~5s as a hang backstop. Waiting
  // on TestOnlySpecFaultParked() (not on page presence) before proceeding guarantees
  // the token is consumed and cannot strand a later fault. Tests only.
  void TestOnlyParkNextSpecFault() {
    test_spec_park_release_.store(false, std::memory_order_release);
    test_spec_parked_.store(false, std::memory_order_release);
    test_spec_park_pending_.store(1, std::memory_order_release);
  }
  bool TestOnlySpecFaultParked() const {
    return test_spec_parked_.load(std::memory_order_acquire);
  }
  void TestOnlyReleaseParkedFault() {
    test_spec_park_release_.store(true, std::memory_order_release);
  }

 private:
  static uint64_t PageDown(uint64_t addr) { return addr & ~(kPageSize - 1); }
  static uint64_t PageUp(uint64_t addr) {
    return (addr + kPageSize - 1) & ~(kPageSize - 1);
  }

  Vma* AllocVma(uint64_t start, uint64_t end, uint32_t prot);

  // Bumps stripe `si`'s cursor by `size` + one guard page. Returns the carved base, or
  // 0 when the window cannot fit `size` more bytes. The carved region never extends
  // past the window end, so no VMA ever straddles a stripe edge.
  uint64_t CarveFromStripe(unsigned si, uint64_t size);

  // VMA lookup for read-side paths, confined to `addr`'s stripe (a covering VMA never
  // straddles a stripe edge, so its stripe is the address's stripe). Scoped variants
  // cannot rely on their (partial) read acquisition to exclude structural writers, so
  // they take the optimistic walk; everyone else walks plainly under the exclusion
  // their lock already provides. The caller must be inside an epoch critical section
  // when scoped. `slice` is the calling thread's counters for addr's stripe.
  Vma* FindVmaForRead(uint64_t addr, VmStripeStats& slice) {
    const VmaStripe& stripe = index_.StripeFor(addr);
    return scoped_structural_ ? stripe.FindOptimistic(addr, slice) : stripe.Find(addr);
  }

  // Fault body; caller holds the read acquisition (and an epoch guard when scoped).
  // `slice` is the calling thread's counters for addr's stripe.
  bool PageFaultLocked(uint64_t addr, bool is_write, uint64_t page_addr,
                       VmStripeStats& slice);

  // Lock-free speculative fault attempt (scoped variants). Returns 1 (legal access,
  // page installed), 0 (SIGSEGV proven against validated state), or -1 (undecidable
  // speculatively — gap observation or attempts exhausted; take the locked path).
  int PageFaultOptimistic(uint64_t addr, bool is_write, uint64_t page_addr,
                          VmStripeStats& slice);

  // Retry budget before the speculative fault degrades to the locked path. Retries are
  // caused by overlapping structural mutations of the SAME stripe — rare per-fault, so
  // a small budget keeps the worst case bounded without giving up the common case.
  static constexpr int kFaultSpecAttempts = 4;

  // Classification of a structural op's padded lock range [s-pg, e+pg). The pad is
  // clamped to s's stripe window where it pokes past an edge *and* [s, e) itself stays
  // inside: across a window edge there is nothing the pad must conflict with — no VMA
  // straddles an edge, so no cross-edge merge, clip, or speculative boundary move
  // exists. kScoped stores the stripe and the (clamped) lock range; kWrapped means the
  // pad overflowed the top of the address space; kCrossStripe means [s, e) genuinely
  // spans stripes. Both non-scoped outcomes take the full-range path.
  enum class RangeClass { kScoped, kWrapped, kCrossStripe };
  RangeClass ClassifyStructuralRange(uint64_t s, uint64_t e, unsigned* si, uint64_t* ls,
                                     uint64_t* le) const;

  // Munmap mutation loop; caller holds a write acquisition covering [s-pg, e+pg) (or
  // the full range) and the mutation locks of stripes [lo, hi], which cover the range.
  // Sets *expected_present to the saturating sum of the clipped/erased VMAs'
  // present_hints — a proven upper bound on pages still installed in [s, e). Zero
  // means the unmap skips the page sweep entirely; a finite value bounds the deferred
  // flusher's probe (SweepQueue::Range::expected).
  bool ApplyMunmapLocked(uint64_t s, uint64_t e, unsigned lo, unsigned hi,
                         uint64_t* expected_present);

  // Splits the page-aligned byte range [s, e) at stripe-window edges and enqueues each
  // piece on its stripe's sweep queue, counting it in that stripe's slice of `mine`
  // (the calling thread's counter block); every piece carries the full `expected`
  // present-page bound (an upper bound for each). Caller may hold range locks —
  // enqueueing never sweeps.
  void EnqueueSweepRange(uint64_t s, uint64_t e, CacheAligned<VmStripeStats>* mine,
                         uint64_t expected = SweepQueue::kUnbounded);

  // Claims and sweeps stripe `si`'s queue. Call holding no locks or ranges.
  void FlushSweeps(unsigned si);
  // Threshold-gated FlushSweeps — one relaxed load when below threshold. The
  // "epoch-tick" of the design: called at operation boundaries, where the caller
  // holds no locks and (for fault paths) sits between epoch quantums.
  void MaybeFlushSweeps(unsigned si);

  // Full-path mprotect body; same caller contract as ApplyMunmapLocked. Returns false
  // on uncovered ranges.
  bool ApplyMprotectLocked(uint64_t s, uint64_t e, uint32_t prot, unsigned lo,
                           unsigned hi);

  // Structural mprotect under a range-scoped write lock. Returns false when the padded
  // range cannot be represented or crosses a stripe edge and the caller must fall back
  // to the full-range path. `slice` is the calling thread's counters for s's stripe.
  bool ScopedStructuralMprotect(uint64_t s, uint64_t e, uint32_t prot, bool* ok,
                                VmStripeStats& slice);

  // Classification of a speculative mprotect against a single VMA (§5.2 / Figure 2).
  enum class SpecCase {
    kNoop,       // protection already matches
    kWholeFlip,  // whole-VMA flip with no mergeable neighbour
    kHeadMove,   // boundary move: head of vma joins the previous VMA
    kTailMove,   // boundary move: tail of vma joins the next VMA
    kStructural, // split / merge / multi-VMA — must take the structural path
  };
  SpecCase ClassifySpeculative(Vma* vma, uint64_t start, uint64_t end, uint32_t prot);

  VmVariant variant_;
  bool refine_fault_;
  bool refine_mprotect_;
  bool scoped_structural_;
  bool test_validate_before_install_ = false;  // test-only; see the hook above
  bool test_undo_sweep_check_ = true;          // test-only; see the hook above
  uint32_t test_spec_window_yields_ = 0;
  std::atomic<uint32_t> test_spec_park_pending_{0};  // test-only park gate, see above
  std::atomic<bool> test_spec_parked_{false};
  std::atomic<bool> test_spec_park_release_{false};
  unsigned stripes_;  // power of two in [1, VmaIndex::kMaxStripes]
  std::unique_ptr<VmLock> lock_;
  VmaIndex index_;
  PageTable pages_;
  // Operations count into their thread's slot block; Stats() folds (hence mutable).
  mutable VmStats stats_;
  // Per-stripe mmap cursors, cache-line padded: mmaps from different home stripes
  // bounce no shared line (the PR 4 cursor was one global atomic).
  std::unique_ptr<CacheAligned<std::atomic<uint64_t>>[]> cursors_;
  // Per-stripe deferred-sweep queues, same ownership shape as the stripes' retire
  // lists: a page range's queue is its stripe's, so stripe-confined churn flushes
  // without touching (or locking) another stripe's queue.
  std::unique_ptr<CacheAligned<SweepQueue>[]> sweeps_;
  // Per-stripe tombstone GC: budget-exhausted sweeps leave tombstones in their queue
  // (see SweepQueue::FinishClaimed) that must outlive every fault in flight when they
  // settled — any of those could be a robbed loser still owing a RaiseClaimed. One
  // grace ticket per stripe covers every settled batch up to `hi`; when it elapses
  // (non-blocking poll on the next flush) those batches purge for free. `batch` hands
  // each flush its monotone stamp.
  struct SweepGc {
    SpinLock lock;
    EpochDomain::GraceTicket ticket;
    uint64_t hi = 0;
    bool armed = false;
    std::atomic<uint64_t> batch{0};
  };
  std::unique_ptr<CacheAligned<SweepGc>[]> sweep_gc_;
};

}  // namespace srl::vm

#endif  // SRL_VM_ADDRESS_SPACE_H_
