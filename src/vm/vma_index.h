// The VMA index — mm_rb sharded into address-space stripes.
//
// Under the full-range variants, every structural change to the address space (mmap,
// munmap, splitting/merging mprotect) holds a full-range write acquisition, so the rb
// tree is trivially quiescent whenever anyone reads it. The range-scoped variants break
// that assumption, and PR 3/4 answered it with one tree mutation lock + one structural
// seqcount for the whole space. That left three global serialization points: the
// mutation spin lock (all structural writers), the seqcount (any mmap/munmap anywhere
// retries every in-flight speculative fault), and the single mmap cursor. This index
// removes all three by *partitioning the address space*:
//
//   * The mmap region is carved into N disjoint power-of-two windows ("stripes"),
//     window i = [kStripeBase + i * 2^kStripeShift, kStripeBase + (i+1) * 2^kStripeShift).
//     Every VMA lies wholly inside one window (the cursor allocator never carves a
//     mapping across a window edge, splits only shrink, and the merge sweep refuses to
//     absorb across an edge), so the stripe of a VMA — and of any faulting address —
//     is a shift of its start address.
//
//   * Each stripe is a complete VmaStripe unit: its own tree root, its own mutation
//     spin lock, its own structural SeqCounter, and its own epoch retire list.
//     Structural writers of different stripes share no state at all; an optimistic
//     fault validates against *its stripe's* seqcount only, so churn in stripe A
//     cannot invalidate a speculative fault in stripe B (with the global seqcount that
//     invalidation was pure retry cost).
//
//   * Cross-stripe operations (a munmap/mprotect whose padded range spans an edge) are
//     classified up front and degrade to the full-range lock path, which then takes
//     the affected stripes' mutation locks in ascending index order — a coherent fence
//     over every stripe the range touches. Correctness never depends on the scoped
//     reasoning at the edges, mirroring the classify-then-fallback guard of PR 3.
//
// Within one stripe the machinery is exactly PR 3/4's: the spin lock serializes the
// stripe's structural mutators, the seqcount (SeqCounter's seqlock interface) brackets
// every mutation for optimistic walkers and §5.2 speculation validators, walks are
// step-bounded so an in-flight rotation's transient cycle becomes a retry instead of a
// hang, and erased VMAs retire into the stripe's SharedRetireList and are freed only
// after an epoch grace period.
#ifndef SRL_VM_VMA_INDEX_H_
#define SRL_VM_VMA_INDEX_H_

#include <cstdint>
#include <memory>

#include "src/epoch/shared_retire_list.h"
#include "src/rbtree/rb_tree.h"
#include "src/sync/cacheline.h"
#include "src/sync/seq_counter.h"
#include "src/sync/spin_lock.h"
#include "src/vm/vma.h"

namespace srl::vm {

struct VmStripeStats;

// One address-space stripe: the PR 3 VmaIndex, demoted to a table entry. All comments
// about lock ordering and optimistic walks from that design still hold, scoped to this
// stripe's address window.
class VmaStripe {
 public:
  VmaStripe() = default;
  ~VmaStripe();  // frees every VMA still linked in the tree, then drains the retire list

  VmaStripe(const VmaStripe&) = delete;
  VmaStripe& operator=(const VmaStripe&) = delete;

  // --- Mutation side -------------------------------------------------------------
  // Every structural change (Insert / EraseAndRetire / in-place key update via
  // vma->start) must happen inside LockMutate()/UnlockMutate(): the spin lock
  // serializes this stripe's mutators, the seqlock write section makes the mutation
  // visible to the stripe's optimistic walkers and speculation validators. Lock
  // ordering: a range-lock acquisition (if any) always precedes the stripe lock, and
  // multi-stripe acquisitions (the cross-stripe fallback) take stripe locks in
  // ascending index order; a stripe lock never blocks on a range lock.
  void LockMutate() {
    mutex_.lock();
    seq_.BeginWrite();
  }
  void UnlockMutate() {
    seq_.EndWrite();
    mutex_.unlock();
  }

  // Holds off this stripe's structural mutators *without* opening a seqlock write
  // section. Used by the speculative-mprotect commit step (metadata-only boundary
  // moves must not invalidate concurrent optimistic walks — §5.2) and by scoped
  // structural ops for their read-only classification scan.
  void LockStable() { mutex_.lock(); }
  void UnlockStable() { mutex_.unlock(); }

  // Opens the seqlock write section while the stripe lock is already held via
  // LockStable(): classify under LockStable, upgrade in place, release with
  // UnlockMutate.
  void UpgradeStableToMutate() { seq_.BeginWrite(); }

  // Under LockMutate():
  void Insert(Vma* vma) { tree_.Insert(vma); }
  // Unlinks `vma` and schedules it for reclamation on this stripe's retire list after
  // a grace period. The caller reaps at a quiescent point (MaybeFlushRetired(),
  // holding no locks or ranges).
  void EraseAndRetire(Vma* vma);

  // --- Lookups (stripe-local) ------------------------------------------------------

  // First VMA in this stripe with End() > addr, or null. Plain walk: the caller must
  // exclude this stripe's structural mutators (full-range acquisition, LockMutate/
  // LockStable held, or a non-scoped variant whose structural ops take full ranges).
  Vma* Find(uint64_t addr) const;

  // As Find, but correct *without* excluding structural mutators: seqcount-validated
  // optimistic walk. The caller must be inside an epoch critical section so a
  // concurrently retired VMA stays dereferenceable. Retries are counted into `slice`,
  // the calling thread's counters for this stripe.
  Vma* FindOptimistic(uint64_t addr, VmStripeStats& slice) const;

  // One bounded optimistic walk attempt. On success returns true, stores the result in
  // *vma (null for "no VMA in this stripe with End() > addr") and the even snapshot of
  // THIS STRIPE's seqcount the walk validated against in *snapshot — the speculative
  // fault path re-validates that same snapshot after its page install, so only
  // same-stripe structural churn can force a retry. Same epoch requirement as
  // FindOptimistic.
  bool TryFindOptimistic(uint64_t addr, Vma** vma, uint64_t* snapshot) const;

  // --- Speculation validator (§5.2), stripe-scoped ---
  uint64_t ReadSeq() const { return seq_.ReadBegin(); }
  bool ValidateSeq(uint64_t snapshot) const { return seq_.Validate(snapshot); }

  // --- Deferred reclamation ---
  void MaybeFlushRetired() { retire_.MaybeFlush(); }

  // --- Iteration / introspection (caller excludes this stripe's mutators) ---
  Vma* First() const { return tree_.First(); }
  static Vma* Next(Vma* v) { return RbTree<Vma, VmaTraits>::Next(v); }
  static Vma* Prev(Vma* v) { return RbTree<Vma, VmaTraits>::Prev(v); }
  std::size_t Size() const { return tree_.Size(); }
  bool ValidateStructure() const { return tree_.ValidateStructure(); }

 private:
  // Upper bound on walk steps before declaring the walk torn. A quiescent rb tree of
  // n nodes has height <= 2*log2(n+1); 128 covers any address space this simulation
  // can build, so hitting the bound implies a concurrent rotation (transient cycle).
  static constexpr int kMaxWalkSteps = 128;

  RbTree<Vma, VmaTraits> tree_;
  SpinLock mutex_;           // serializes this stripe's structural mutators
  SeqCounter seq_;           // odd while a mutation of this stripe is in flight
  SharedRetireList retire_;  // the stripe's reclamation domain for unlinked VMAs
};

// The stripe table plus the address routing that makes it one logical index.
class VmaIndex {
 public:
  // Geometry. Stripe windows are 2^kStripeShift bytes (64 GiB) starting at
  // kStripeBase; kMaxStripes windows fit far below the top of a 64-bit space, so
  // padded ranges near real mappings never wrap.
  static constexpr uint64_t kStripeBase = uint64_t{1} << 30;
  static constexpr uint64_t kStripeShift = 36;
  static constexpr unsigned kMaxStripes = 64;

  // `stripes` is clamped to [1, kMaxStripes] and rounded up to a power of two.
  explicit VmaIndex(unsigned stripes);

  VmaIndex(const VmaIndex&) = delete;
  VmaIndex& operator=(const VmaIndex&) = delete;

  unsigned StripeCount() const { return n_; }

  // Stripe of an address, clamped: everything below the first window routes to stripe
  // 0, everything above the last to stripe n-1. VMAs only exist inside windows, so
  // clamped lookups stay correct (the boundary stripes simply own the out-of-window
  // margins, which are permanently unmapped).
  unsigned IndexOf(uint64_t addr) const { return IndexOf(addr, n_); }

  // The same mapping for a space of `n` >= 1 stripes. The list VM lock routes ranges
  // to its per-stripe heads through it, so a range lock and the index it guards agree
  // on every address's stripe, the clamped margins included.
  static unsigned IndexOf(uint64_t addr, unsigned n) {
    if (addr < kStripeBase) {
      return 0;
    }
    const uint64_t i = (addr - kStripeBase) >> kStripeShift;
    return i >= n ? n - 1 : static_cast<unsigned>(i);
  }

  static uint64_t WindowBase(unsigned stripe) {
    return kStripeBase + (static_cast<uint64_t>(stripe) << kStripeShift);
  }
  static uint64_t WindowEnd(unsigned stripe) { return WindowBase(stripe + 1); }

  VmaStripe& Stripe(unsigned i) { return stripes_[i].value; }
  const VmaStripe& Stripe(unsigned i) const { return stripes_[i].value; }
  VmaStripe& StripeFor(uint64_t addr) { return Stripe(IndexOf(addr)); }
  const VmaStripe& StripeFor(uint64_t addr) const { return Stripe(IndexOf(addr)); }

  // --- Multi-stripe mutation (the cross-stripe / full-range fallback path) --------
  // Takes every stripe lock in [lo, hi] in ascending order and opens every seqlock
  // write section, fencing the walked stripes coherently: optimistic faults anywhere
  // in [lo, hi] retry, faults elsewhere proceed untouched.
  void LockMutateRange(unsigned lo, unsigned hi) {
    for (unsigned i = lo; i <= hi; ++i) {
      Stripe(i).LockMutate();
    }
  }
  void UnlockMutateRange(unsigned lo, unsigned hi) {
    for (unsigned i = hi + 1; i-- > lo;) {
      Stripe(i).UnlockMutate();
    }
  }

  // Routed mutators (caller holds the mutate lock of the stripe owning vma->Start()).
  void Insert(Vma* vma) { StripeFor(vma->Start()).Insert(vma); }
  void EraseAndRetire(Vma* vma) { StripeFor(vma->Start()).EraseAndRetire(vma); }

  // --- Cross-stripe traversal (caller excludes mutators of every stripe in [lo, hi])
  // Stripe windows ascend with stripe index and VMAs never straddle a window edge, so
  // concatenating the stripes' trees in index order IS the global address order.

  // First VMA with End() > addr among stripes [lo, hi].
  Vma* Find(uint64_t addr, unsigned lo, unsigned hi) const {
    for (unsigned i = lo < IndexOf(addr) ? IndexOf(addr) : lo; i <= hi; ++i) {
      if (Vma* v = Stripe(i).Find(addr)) {
        return v;
      }
    }
    return nullptr;
  }

  // Successor of v in address order, not looking past stripe hi.
  Vma* Next(Vma* v, unsigned hi) const {
    if (Vma* n = VmaStripe::Next(v)) {
      return n;
    }
    for (unsigned i = IndexOf(v->Start()) + 1; i <= hi; ++i) {
      if (Vma* f = Stripe(i).First()) {
        return f;
      }
    }
    return nullptr;
  }

  Vma* First(unsigned lo, unsigned hi) const {
    for (unsigned i = lo; i <= hi; ++i) {
      if (Vma* f = Stripe(i).First()) {
        return f;
      }
    }
    return nullptr;
  }

  std::size_t Size() const {
    std::size_t n = 0;
    for (unsigned i = 0; i < n_; ++i) {
      n += Stripe(i).Size();
    }
    return n;
  }

  bool ValidateStructure() const {
    for (unsigned i = 0; i < n_; ++i) {
      if (!Stripe(i).ValidateStructure()) {
        return false;
      }
    }
    return true;
  }

  // Reaps the retire lists of stripes [lo, hi]; call holding no locks or ranges.
  void MaybeFlushRetired(unsigned lo, unsigned hi) {
    for (unsigned i = lo; i <= hi; ++i) {
      Stripe(i).MaybeFlushRetired();
    }
  }

 private:
  unsigned n_;
  std::unique_ptr<CacheAligned<VmaStripe>[]> stripes_;
};

}  // namespace srl::vm

#endif  // SRL_VM_VMA_INDEX_H_
