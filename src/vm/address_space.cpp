#include "src/vm/address_space.h"

#include <cassert>
#include <chrono>
#include <thread>

#include "src/epoch/epoch_domain.h"
#include "src/sync/topology.h"

namespace srl::vm {

namespace {

struct VariantConfig {
  VmLockKind kind;
  bool refine_fault;
  bool refine_mprotect;
  bool scoped_structural;
};

VariantConfig ConfigFor(VmVariant v) {
  switch (v) {
    case VmVariant::kStock:
      return {VmLockKind::kStock, false, false, false};
    case VmVariant::kTreeFull:
      return {VmLockKind::kTree, false, false, false};
    case VmVariant::kTreeRefined:
      return {VmLockKind::kTree, true, true, false};
    case VmVariant::kListFull:
      return {VmLockKind::kList, false, false, false};
    case VmVariant::kListRefined:
      return {VmLockKind::kList, true, true, false};
    case VmVariant::kListPf:
      return {VmLockKind::kList, true, false, false};
    case VmVariant::kListMprotect:
      return {VmLockKind::kList, false, true, false};
    case VmVariant::kTreeScoped:
      return {VmLockKind::kTree, true, true, true};
    case VmVariant::kListScoped:
      return {VmLockKind::kList, true, true, true};
    case VmVariant::kListLfScoped:
      return {VmLockKind::kListLockFree, true, true, true};
  }
  return {VmLockKind::kStock, false, false, false};
}

unsigned ResolveStripes(VmVariant v, unsigned stripes) {
  if (stripes != 0) {
    return stripes;  // VmaIndex clamps and rounds up to a power of two
  }
  if (!ConfigFor(v).scoped_structural) {
    // Full-range structural ops serialize everything anyway; one stripe keeps the
    // control variants bit-for-bit identical to the unstriped design.
    return 1;
  }
  return CpuCount();
}

}  // namespace

const char* VmVariantName(VmVariant v) {
  switch (v) {
    case VmVariant::kStock:
      return "stock";
    case VmVariant::kTreeFull:
      return "tree-full";
    case VmVariant::kTreeRefined:
      return "tree-refined";
    case VmVariant::kListFull:
      return "list-full";
    case VmVariant::kListRefined:
      return "list-refined";
    case VmVariant::kListPf:
      return "list-pf";
    case VmVariant::kListMprotect:
      return "list-mprotect";
    case VmVariant::kTreeScoped:
      return "tree-scoped";
    case VmVariant::kListScoped:
      return "list-scoped";
    case VmVariant::kListLfScoped:
      return "list-lf-scoped";
  }
  return "?";
}

AddressSpace::AddressSpace(VmVariant variant, unsigned stripes)
    : variant_(variant),
      index_(ResolveStripes(variant, stripes)),
      stats_(index_.StripeCount()) {
  const VariantConfig cfg = ConfigFor(variant);
  refine_fault_ = cfg.refine_fault;
  refine_mprotect_ = cfg.refine_mprotect;
  scoped_structural_ = cfg.scoped_structural;
  stripes_ = index_.StripeCount();
  lock_ = MakeVmLock(cfg.kind, stripes_);
  // kPageSize is 2^12; the page table's stripe bits sit kStripeShift - 12 up from the
  // window origin (kMmapBase is not span-aligned, so the origin must be subtracted).
  pages_.ConfigureStripes(VmaIndex::kStripeShift - 12, kMmapBase / kPageSize, stripes_);
  cursors_ = std::make_unique<CacheAligned<std::atomic<uint64_t>>[]>(stripes_);
  sweeps_ = std::make_unique<CacheAligned<SweepQueue>[]>(stripes_);
  for (unsigned i = 0; i < stripes_; ++i) {
    cursors_[i].value.store(VmaIndex::WindowBase(i), std::memory_order_relaxed);
  }
}

AddressSpace::~AddressSpace() = default;

unsigned AddressSpace::HomeStripe() const {
  // Registration-order round robin: each thread draws one token the first time it asks
  // and keeps it, so its home stripe is stable (the VMA-locality contract) and
  // consecutively registered threads walk the stripes in turn, whatever CPUs they run
  // on.
  static std::atomic<uint64_t> next_token{0};
  thread_local uint64_t token = next_token.fetch_add(1, std::memory_order_relaxed);
  return static_cast<unsigned>(token & (stripes_ - 1));
}

Vma* AddressSpace::AllocVma(uint64_t start, uint64_t end, uint32_t prot) {
  Vma* vma = new Vma;
  vma->start.store(start, std::memory_order_relaxed);
  vma->end.store(end, std::memory_order_relaxed);
  vma->prot.store(prot, std::memory_order_relaxed);
  return vma;
}

uint64_t AddressSpace::CarveFromStripe(unsigned si, uint64_t size) {
  std::atomic<uint64_t>& cursor = cursors_[si].value;
  const uint64_t window_end = VmaIndex::WindowEnd(si);
  uint64_t cur = cursor.load(std::memory_order_relaxed);
  for (;;) {
    if (cur + size < cur || cur + size > window_end) {
      return 0;  // window exhausted: the VMA itself must fit wholly inside it
    }
    // One guard page between allocations keeps distinct mappings (e.g. per-thread
    // arenas) as distinct VMAs, as separate mmap calls produce in practice. An
    // exact-fit allocation may push the cursor past the window end, which simply
    // exhausts the stripe for later calls.
    if (cursor.compare_exchange_weak(cur, cur + size + kPageSize,
                                     std::memory_order_relaxed)) {
      return cur;
    }
  }
}

uint64_t AddressSpace::Mmap(uint64_t length, uint32_t prot) {
  return MmapInStripe(HomeStripe(), length, prot);
}

uint64_t AddressSpace::MmapInStripe(unsigned stripe, uint64_t length, uint32_t prot) {
  if (length == 0 || stripe >= stripes_) {
    return 0;
  }
  CacheAligned<VmStripeStats>* mine = stats_.Mine();
  const uint64_t size = PageUp(length);
  uint64_t addr = 0;
  unsigned si = stripe;
  for (unsigned probe = 0; probe < stripes_; ++probe) {
    si = (stripe + probe) & (stripes_ - 1);
    addr = CarveFromStripe(si, size);
    if (addr != 0) {
      if (probe != 0) {
        mine[si]->mmap_overflow.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
  }
  if (addr == 0) {
    mine[stripe]->mmaps.fetch_add(1, std::memory_order_relaxed);
    return 0;  // every window exhausted
  }
  VmStripeStats& slice = mine[si].value;
  slice.mmaps.fetch_add(1, std::memory_order_relaxed);
  // The cursor never reuses addresses, so the new VMA can neither overlap nor merge
  // with an existing one: write-locking just [addr, addr+size) covers every byte whose
  // mapping changes. No padding is needed — the guard page (or the window edge, for an
  // exact-fit carve) guarantees no neighbour boundary is touched.
  const Range r = scoped_structural_ ? Range{addr, addr + size} : Range::Full();
  void* h = lock_->Lock(r);
  VmaStripe& st = index_.Stripe(si);
  st.LockMutate();
  st.Insert(AllocVma(addr, addr + size, prot));
  st.UnlockMutate();
  lock_->Unlock(h);
  if (scoped_structural_) {
    slice.scoped_structural.fetch_add(1, std::memory_order_relaxed);
  }
  return addr;
}

bool AddressSpace::ApplyMunmapLocked(uint64_t s, uint64_t e, unsigned lo, unsigned hi) {
  bool any = false;
  Vma* v = index_.Find(s, lo, hi);
  while (v != nullptr && v->Start() < e) {
    Vma* next = index_.Next(v, hi);
    const uint64_t vs = v->Start();
    const uint64_t ve = v->End();
    if (s <= vs && e >= ve) {
      // Fully covered: remove.
      index_.EraseAndRetire(v);
    } else if (s <= vs) {
      // Head clipped. Key grows but stays below the successor's start (and inside the
      // VMA's window: e < ve and the VMA never straddles a stripe edge).
      v->start.store(e, std::memory_order_relaxed);
    } else if (e >= ve) {
      // Tail clipped.
      v->end.store(s, std::memory_order_relaxed);
    } else {
      // Hole in the middle: shrink v to the head, insert a new VMA for the tail.
      v->end.store(s, std::memory_order_relaxed);
      index_.Insert(AllocVma(e, ve, v->Prot()));
    }
    any = true;
    v = next;
  }
  return any;
}

bool AddressSpace::Munmap(uint64_t addr, uint64_t length) {
  if (length == 0) {
    return false;
  }
  const uint64_t s = PageDown(addr);
  const uint64_t e = PageUp(addr + length);
  CacheAligned<VmStripeStats>* mine = stats_.Mine();
  VmStripeStats& slice = mine[index_.IndexOf(s)].value;
  slice.munmaps.fetch_add(1, std::memory_order_relaxed);
  if (e <= s) {
    // addr+length wrapped past the top of the address space: the range denotes
    // nothing, and Range{s, e} would violate the locks' start < end contract.
    return false;
  }
  if (scoped_structural_) {
    // Every byte whose mapping changes lies in [s, e); the one-page pad covers the
    // boundary writes at s and e so they conflict with any speculative mprotect moving
    // the same boundary. Classify-then-fallback: a padded range that cannot be
    // represented (top-of-address-space wrap) or whose argument range crosses a stripe
    // edge degrades to the full-range path.
    unsigned si = 0;
    uint64_t ls = 0;
    uint64_t le = 0;
    switch (ClassifyStructuralRange(s, e, &si, &ls, &le)) {
      case RangeClass::kScoped: {
        void* h = lock_->Lock({ls, le});
        VmaStripe& st = index_.Stripe(si);
        st.LockMutate();
        const bool any = ApplyMunmapLocked(s, e, si, si);
        st.UnlockMutate();
        if (any) {
          // Enqueue strictly after the seqcount bump (UnlockMutate above closed the
          // write section), so every flush of this range is ordered after the bump —
          // the deferred half of the install-then-validate ordering argument.
          EnqueueSweepRange(s, e, mine);
        }
        lock_->Unlock(h);
        slice.scoped_structural.fetch_add(1, std::memory_order_relaxed);
        st.MaybeFlushRetired();
        MaybeFlushSweeps(si);
        return any;
      }
      case RangeClass::kCrossStripe:
        slice.cross_stripe_fallback.fetch_add(1, std::memory_order_relaxed);
        break;
      case RangeClass::kWrapped:
        break;
    }
    slice.scoped_fallback.fetch_add(1, std::memory_order_relaxed);
  }
  const unsigned lo = index_.IndexOf(s);
  const unsigned hi = index_.IndexOf(e - 1);
  void* h = lock_->LockFullWrite();
  index_.LockMutateRange(lo, hi);
  const bool any = ApplyMunmapLocked(s, e, lo, hi);
  index_.UnlockMutateRange(lo, hi);
  if (any) {
    EnqueueSweepRange(s, e, mine);
  }
  lock_->Unlock(h);
  index_.MaybeFlushRetired(lo, hi);
  MaybeFlushSweeps(s, e);
  return any;
}

void AddressSpace::EnqueueSweepRange(uint64_t s, uint64_t e,
                                     CacheAligned<VmStripeStats>* mine) {
  // Split at stripe-window edges so each piece lands on its own stripe's queue (the
  // queue assignment is a locality choice, not a correctness one — any queue's flush
  // erases the right pages). Addresses below/above every window (clamped margins) go
  // to the nearest window's queue.
  uint64_t cur = s;
  while (cur < e) {
    const unsigned si = index_.IndexOf(cur);
    uint64_t nxt = VmaIndex::WindowEnd(si);
    if (nxt <= cur || nxt > e) {
      nxt = e;
    }
    const uint64_t first = cur / kPageSize;
    const uint64_t last = nxt / kPageSize;
    const std::size_t absorbed = sweeps_[si].value.Enqueue(first, last);
    VmStripeStats& slice = mine[si].value;
    slice.sweeps_queued.fetch_add(1, std::memory_order_relaxed);
    slice.sweeps_queued_pages.fetch_add(last - first, std::memory_order_relaxed);
    if (absorbed != 0) {
      slice.sweeps_coalesced.fetch_add(absorbed, std::memory_order_relaxed);
    }
    cur = nxt;
  }
}

void AddressSpace::FlushSweeps(unsigned si) {
  SweepQueue& q = sweeps_[si].value;
  const std::vector<SweepQueue::Range> ranges = q.Claim();
  if (ranges.empty()) {
    return;
  }
  uint64_t pages = 0;
  for (const SweepQueue::Range& r : ranges) {
    // A full walk of the range's resident page-table leaves; sweeps_swept_pages counts
    // pages ACTUALLY erased.
    pages += pages_.RemoveRange(r.first, r.last);
    q.FinishClaimed(r);
  }
  VmStripeStats& slice = stats_.Mine()[si].value;
  slice.sweeps_flushes.fetch_add(1, std::memory_order_relaxed);
  slice.sweeps_swept_pages.fetch_add(pages, std::memory_order_relaxed);
}

void AddressSpace::MaybeFlushSweeps(unsigned si) {
  if (sweeps_[si].value.NeedsFlush()) {
    FlushSweeps(si);
  }
}

void AddressSpace::MaybeFlushSweeps(uint64_t s, uint64_t e) {
  const unsigned hi = index_.IndexOf(e - 1);
  for (unsigned i = index_.IndexOf(s); i <= hi; ++i) {
    MaybeFlushSweeps(i);
  }
}

void AddressSpace::DrainSweeps() {
  // First pass erases everything enqueued so far; the epoch barrier then waits out
  // every in-flight fault (a stale speculative install that re-surfaced a just-swept
  // page fails validation against the bumped seqcount and undoes inside the barrier);
  // the second pass erases anything enqueued meanwhile. Afterwards no page survives in
  // any range unmapped (or DONTNEED'd) before this call began.
  for (unsigned i = 0; i < stripes_; ++i) {
    FlushSweeps(i);
  }
  EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
  EpochDomain::QuiesceQuantum(rec);
  EpochDomain::Global().Barrier(rec);
  for (unsigned i = 0; i < stripes_; ++i) {
    FlushSweeps(i);
  }
}

uint64_t AddressSpace::PendingSweepPages() const {
  uint64_t n = 0;
  for (unsigned i = 0; i < stripes_; ++i) {
    n += sweeps_[i].value.PendingPages();
  }
  return n;
}

void AddressSpace::SetSweepFlushThreshold(uint64_t pages) {
  for (unsigned i = 0; i < stripes_; ++i) {
    sweeps_[i].value.SetFlushThreshold(pages);
  }
}

AddressSpace::RangeClass AddressSpace::ClassifyStructuralRange(uint64_t s, uint64_t e,
                                                               unsigned* si,
                                                               uint64_t* ls,
                                                               uint64_t* le) const {
  uint64_t lo = s >= kPageSize ? s - kPageSize : 0;
  uint64_t hi = e + kPageSize;
  if (hi <= e) {
    return RangeClass::kWrapped;  // pad overflowed the top of the address space
  }
  const unsigned stripe = index_.IndexOf(s);
  if (stripe != index_.IndexOf(e - 1)) {
    return RangeClass::kCrossStripe;  // the argument range itself spans stripes
  }
  // Clamp the pads at the stripe's window edges. Sound because nothing interacts
  // across an edge: no VMA straddles one, so a boundary at a window base/end has no
  // neighbour on the far side for a merge, clip, or speculative boundary move to
  // touch — the pad would conflict with operations that cannot exist. (The clamp only
  // applies when [s, e) itself is inside the window; ranges in the clamped margins
  // outside all windows keep their full pads.)
  const uint64_t wb = VmaIndex::WindowBase(stripe);
  const uint64_t we = VmaIndex::WindowEnd(stripe);
  if (wb <= s && lo < wb) {
    lo = wb;
  }
  if (we >= e && hi > we) {
    hi = we;
  }
  if (index_.IndexOf(lo) != index_.IndexOf(hi - 1)) {
    return RangeClass::kCrossStripe;  // pad still crosses (range in a clamped margin)
  }
  *si = stripe;
  *ls = lo;
  *le = hi;
  return RangeClass::kScoped;
}

bool AddressSpace::ApplyMprotectLocked(uint64_t s, uint64_t e, uint32_t prot,
                                       unsigned lo, unsigned hi) {
  // Coverage check first — no partial effects on ENOMEM, matching the kernel's
  // behaviour for the common case.
  {
    uint64_t cur = s;
    Vma* v = index_.Find(s, lo, hi);
    while (cur < e) {
      if (v == nullptr || v->Start() > cur) {
        return false;
      }
      cur = v->End();
      v = index_.Next(v, hi);
    }
  }
  // Split so that [s, e) is tiled by whole VMAs, flipping protections as we go. Splits
  // always keep the existing node as the left piece (its tree key is unchanged) and
  // insert the right piece as a new node, so tree order is never transiently violated.
  Vma* v = index_.Find(s, lo, hi);
  while (v != nullptr && v->Start() < e) {
    if (v->Prot() == prot) {
      v = index_.Next(v, hi);
      continue;
    }
    if (v->Start() < s) {
      Vma* tail = AllocVma(s, v->End(), v->Prot());
      v->end.store(s, std::memory_order_relaxed);
      index_.Insert(tail);
      v = tail;
      continue;  // reprocess the covered piece
    }
    if (v->End() > e) {
      Vma* tail = AllocVma(e, v->End(), v->Prot());
      v->end.store(e, std::memory_order_relaxed);
      index_.Insert(tail);
    }
    v->prot.store(prot, std::memory_order_relaxed);
    v = index_.Next(v, hi);
  }
  // Merge sweep over the affected neighbourhood (the kernel merges eagerly in
  // vma_merge; we restore the canonical form after the fact). Never across a stripe
  // edge: the merged VMA would straddle two windows, breaking the invariant that an
  // address's stripe locates its covering VMA.
  Vma* m = index_.Find(s == 0 ? 0 : s - 1, lo, hi);
  while (m != nullptr && m->Start() <= e) {
    Vma* next = index_.Next(m, hi);
    if (next != nullptr && m->End() == next->Start() && m->Prot() == next->Prot() &&
        index_.IndexOf(m->Start()) == index_.IndexOf(next->Start())) {
      m->end.store(next->End(), std::memory_order_relaxed);
      index_.EraseAndRetire(next);
      continue;  // try to absorb further
    }
    m = next;
  }
  return true;
}

bool AddressSpace::ScopedStructuralMprotect(uint64_t s, uint64_t e, uint32_t prot,
                                            bool* ok, VmStripeStats& slice) {
  unsigned si = 0;
  uint64_t ls = 0;
  uint64_t le = 0;
  switch (ClassifyStructuralRange(s, e, &si, &ls, &le)) {
    case RangeClass::kScoped:
      break;
    case RangeClass::kCrossStripe:
      // The argument range spans a stripe edge: the single-stripe lock cannot cover
      // every boundary this op may move. Degrade to the full path, which fences all
      // affected stripes.
      slice.cross_stripe_fallback.fetch_add(1, std::memory_order_relaxed);
      return false;
    case RangeClass::kWrapped:
      return false;  // padded range wraps: not representable, take the full path
  }
  void* h = lock_->Lock({ls, le});
  VmaStripe& st = index_.Stripe(si);
  // Classify-then-fallback (the structural analogue of SpecCase): every boundary and
  // protection write of ApplyMprotectLocked lands in [s, e] — except the merge sweep,
  // which can absorb (erase) a VMA extending past the locked span. Only VMAs already
  // carrying the target protection are absorbable: in-range pieces get split/flipped
  // and stay inside [s, e], but a same-prot VMA overlapping [s, e] (including one
  // starting exactly at e) is never split and survives to the sweep whole. Erasing a
  // VMA whose bytes we did not lock would race readers of those bytes, so any such
  // candidate escapes to the full-range path. The scan itself mutates nothing and runs
  // under the stable stripe lock, stalling optimistic walkers only once the seqlock
  // write section opens for the actual mutation.
  st.LockStable();
  bool escapes = false;
  for (Vma* v = st.Find(s); v != nullptr && v->Start() <= e; v = VmaStripe::Next(v)) {
    if (v->Prot() == prot && v->End() > le) {
      escapes = true;
      break;
    }
  }
  if (escapes) {
    st.UnlockStable();
    lock_->Unlock(h);
    return false;
  }
  st.UpgradeStableToMutate();
  *ok = ApplyMprotectLocked(s, e, prot, si, si);
  st.UnlockMutate();
  lock_->Unlock(h);
  slice.scoped_structural.fetch_add(1, std::memory_order_relaxed);
  return true;
}

AddressSpace::SpecCase AddressSpace::ClassifySpeculative(Vma* vma, uint64_t s, uint64_t e,
                                                         uint32_t prot) {
  const uint64_t vs = vma->Start();
  const uint64_t ve = vma->End();
  if (s < vs || e > ve) {
    return SpecCase::kStructural;  // spans VMAs (or a gap) — full path sorts it out
  }
  if (vma->Prot() == prot) {
    return SpecCase::kNoop;
  }
  // Stripe-local neighbours: a VMA starting at its window base has no in-tree
  // predecessor, so boundary moves never cross a stripe edge by construction.
  Vma* prev = VmaStripe::Prev(vma);
  Vma* next = VmaStripe::Next(vma);
  const bool prev_mergeable =
      prev != nullptr && prev->End() == vs && prev->Prot() == prot;
  const bool next_mergeable =
      next != nullptr && next->Start() == ve && next->Prot() == prot;
  if (s == vs && e == ve) {
    // Whole-VMA flip: only metadata-unchanged if no neighbour would merge (a merge
    // removes a node from mm_rb — structural).
    return (prev_mergeable || next_mergeable) ? SpecCase::kStructural
                                              : SpecCase::kWholeFlip;
  }
  if (s == vs && prev_mergeable) {
    return SpecCase::kHeadMove;  // Figure 2: the head of vma joins prev
  }
  if (e == ve && next_mergeable) {
    return SpecCase::kTailMove;  // mirror image: the tail of vma joins next
  }
  return SpecCase::kStructural;  // interior change — needs a split
}

bool AddressSpace::Mprotect(uint64_t addr, uint64_t length, uint32_t prot) {
  if (length == 0) {
    return false;
  }
  const uint64_t s = PageDown(addr);
  const uint64_t e = PageUp(addr + length);
  VmStripeStats& slice = stats_.Mine()[index_.IndexOf(s)].value;
  slice.mprotects.fetch_add(1, std::memory_order_relaxed);
  if (e <= s) {
    return false;  // wrapped range: denotes nothing (and Range{s, e} would be invalid)
  }

  bool speculate = refine_mprotect_;
  for (;;) {
    if (!speculate) {
      if (scoped_structural_) {
        bool ok = false;
        if (ScopedStructuralMprotect(s, e, prot, &ok, slice)) {
          index_.StripeFor(s).MaybeFlushRetired();
          return ok;
        }
        slice.scoped_fallback.fetch_add(1, std::memory_order_relaxed);
      }
      const unsigned lo = index_.IndexOf(s);
      const unsigned hi = index_.IndexOf(e - 1);
      void* h = lock_->LockFullWrite();
      index_.LockMutateRange(lo, hi);
      const bool ok = ApplyMprotectLocked(s, e, prot, lo, hi);
      index_.UnlockMutateRange(lo, hi);
      lock_->Unlock(h);
      index_.MaybeFlushRetired(lo, hi);
      return ok;
    }

    // Listing 4: read-lock the argument range for the lookup phase. The epoch guard
    // spans the whole attempt — the unlocked window between the read and write
    // acquisitions legally dereferences a stale vma pointer (line 15), and with
    // epoch-reclaimed VMAs that is only safe inside a critical section.
    {
      EpochGuard guard(EpochDomain::Global());
      void* rh = lock_->Lock({s, e}, LockMode::kRead);
      Vma* vma = FindVmaForRead(s, slice);
      if (vma == nullptr || vma->Start() > s) {
        lock_->Unlock(rh);
        return false;  // start address unmapped — ENOMEM
      }
      // The covering VMA's stripe is s's stripe (no VMA straddles a window edge);
      // its seqcount is the §5.2 speculation validator for this attempt.
      VmaStripe& st = index_.StripeFor(s);
      const uint64_t seq = st.ReadSeq();
      const uint64_t aligned_start = vma->Start() - kPageSize;
      const uint64_t aligned_end = vma->End() + kPageSize;
      lock_->Unlock(rh);

      // Re-acquire for write with the range widened to the VMA plus one page on each
      // side, so concurrent boundary moves on the neighbours are excluded (§5.2). The
      // stable stripe lock holds off out-of-range structural writers of this stripe
      // during classification without invalidating concurrent optimistic walks.
      void* wh = lock_->Lock({aligned_start, aligned_end});
      st.LockStable();
      if (!st.ValidateSeq(seq) || aligned_start != vma->Start() - kPageSize ||
          aligned_end != vma->End() + kPageSize) {
        st.UnlockStable();
        lock_->Unlock(wh);
        slice.spec_retries.fetch_add(1, std::memory_order_relaxed);
        continue;  // mm_rb may have changed under us — retry from the top
      }

      // Metadata commits open the affected VMAs' per-VMA seqlock write sections (not
      // the stripe's structural seqcount — §5.2: a successful speculation must not
      // invalidate concurrent speculations or optimistic walks). The lock-free fault
      // path is the one reader that cannot rely on a page-range acquisition to exclude
      // these writes; its meta_seq snapshot turns a mid-commit read of (bounds, prot)
      // — and the transient gap a boundary move passes through — into a retry. Both
      // sections of a move open before either boundary store and close after both, so
      // a fault racing the move observes an odd/advanced seqlock on whichever VMA it
      // reads.
      bool fell_back = false;
      switch (ClassifySpeculative(vma, s, e, prot)) {
        case SpecCase::kNoop:
          break;
        case SpecCase::kWholeFlip:
          vma->meta_seq.BeginWrite();
          vma->prot.store(prot, std::memory_order_relaxed);
          vma->meta_seq.EndWrite();
          break;
        case SpecCase::kHeadMove: {
          // Shrink the receiver-side boundary last so the region transits through a
          // (locked, unreachable-to-locked-readers) gap rather than a transient
          // overlap.
          Vma* prev = VmaStripe::Prev(vma);
          vma->meta_seq.BeginWrite();
          prev->meta_seq.BeginWrite();
          vma->start.store(e, std::memory_order_relaxed);
          prev->end.store(e, std::memory_order_relaxed);
          prev->meta_seq.EndWrite();
          vma->meta_seq.EndWrite();
          break;
        }
        case SpecCase::kTailMove: {
          Vma* next = VmaStripe::Next(vma);
          vma->meta_seq.BeginWrite();
          next->meta_seq.BeginWrite();
          vma->end.store(s, std::memory_order_relaxed);
          next->start.store(s, std::memory_order_relaxed);
          next->meta_seq.EndWrite();
          vma->meta_seq.EndWrite();
          break;
        }
        case SpecCase::kStructural:
          slice.spec_fallback.fetch_add(1, std::memory_order_relaxed);
          speculate = false;
          fell_back = true;
          break;
      }
      st.UnlockStable();
      lock_->Unlock(wh);
      if (fell_back) {
        continue;  // redo on the structural path
      }
    }
    slice.spec_success.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
}

bool AddressSpace::PageFaultLocked(uint64_t addr, bool is_write, uint64_t page_addr,
                                   VmStripeStats& slice) {
  Vma* vma = FindVmaForRead(addr, slice);
  bool ok = vma != nullptr && vma->Start() <= addr;
  if (ok) {
    const uint32_t required = is_write ? kProtWrite : kProtRead;
    ok = (vma->Prot() & required) == required;
  }
  if (ok) {
    const uint64_t page = page_addr / kPageSize;
    if (pages_.Install(page)) {
      slice.major_faults.fetch_add(1, std::memory_order_relaxed);
    }
    // The page is (re-)validated present under a mapping: punch it out of any
    // still-pending DONTNEED sweep so the deferred erase cannot undo this fault (the
    // madvise/fault repopulation contract — see SweepQueue::CancelPending).
    sweeps_[index_.IndexOf(page_addr)].value.CancelPending(page);
  } else {
    slice.fault_errors.fetch_add(1, std::memory_order_relaxed);
  }
  return ok;
}

// The lock-free fault fast path (scoped variants only). No range acquisition at all:
//
//   snapshot  — one epoch-quantum guard (amortized: 2 RMWs per kOpsPerQuantum faults,
//               not per fault) keeps every VMA the walk touches dereferenceable; one
//               bounded optimistic walk of THE FAULTING ADDRESS'S STRIPE returns the
//               candidate VMA plus the even snapshot of that stripe's structural
//               seqcount the walk validated against. Other stripes' churn is invisible
//               to this snapshot — the point of striping.
//   read      — the covering VMA's (start, end, prot) under its per-VMA meta_seq
//               seqlock, which metadata-only speculative mprotects bump (they are
//               invisible to the structural seqcounts by design).
//   install   — conditional page install for a proven-covered access.
//   validate  — re-validate the stripe's seqcount and the VMA's live flag AFTER the
//               install. Install/validate in that order is the load-bearing decision:
//               a munmap of this stripe bumps the stripe seqcount (unlink) strictly
//               before it enqueues the sweep of the page table, so either the sweep
//               erases the install or the fault observes the bump and undoes. Either
//               way no page survives in an unmapped range. (A munmap of a DIFFERENT
//               stripe cannot unmap this address: VMAs never straddle stripe windows,
//               so the covering mapping and the faulting address share a stripe: the
//               ordering argument holds per stripe.)
//   undo/retry/fallback — a failed validation removes the page this fault installed,
//               by its install ticket, and retries; gaps and exhausted budgets degrade
//               to the trylock-first locked path, whose page-range read lock excludes
//               every writer of the faulting page and can adjudicate negatives exactly.
//
// Why no full fence: the validating load follows a store (the install), and a seqlock
// read orders only loads, yet the page-table shard lock carries the store-then-load
// order. The sweep and the install each run under the page's shard lock. If the
// sweep's critical section came first, the sweep came after the seqcount bump
// (bump → EndWrite → enqueue under the sweep-queue lock → claim under it → shard
// unlock), so bump → shard unlock → this fault's shard lock → its validating load is a
// happens-before chain and the load must see the bump: the fault undoes. If the
// install came first, the sweep erases it whatever the load reads. A winner's
// cancel-then-revalidate below runs the same argument through the sweep-queue lock.
//
// Trust discipline: a *successful* return requires the post-install validation; a
// *SIGSEGV* return requires both the stripe's seqcount and the per-VMA seqlock to
// validate (a transient gap observed mid-boundary-move is neither — it falls back).
int AddressSpace::PageFaultOptimistic(uint64_t addr, bool is_write, uint64_t page_addr,
                                      VmStripeStats& slice) {
  EpochQuantumGuard guard(EpochDomain::Global());
  const unsigned si = index_.IndexOf(addr);
  const VmaStripe& stripe = index_.Stripe(si);
  for (int attempt = 0; attempt < kFaultSpecAttempts; ++attempt) {
    Vma* vma = nullptr;
    uint64_t iseq = 0;
    if (!stripe.TryFindOptimistic(addr, &vma, &iseq)) {
      slice.find_retries.fetch_add(1, std::memory_order_relaxed);
      slice.fault_spec_retry.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (vma == nullptr) {
      // Above every mapping of this stripe. The maximal End() only moves under a
      // structural mutation (boundary moves need a successor), which the validated
      // walk excludes — but the locked path adjudicates all negatives for uniformity.
      return -1;
    }
    const uint64_t vseq = vma->meta_seq.ReadBegin();
    const uint64_t vs = vma->Start();
    const uint64_t ve = vma->End();
    const uint32_t prot = vma->Prot();
    if (!vma->meta_seq.Validate(vseq)) {
      slice.fault_spec_retry.fetch_add(1, std::memory_order_relaxed);
      continue;  // torn metadata read: a boundary move / flip overlapped
    }
    if (vs > addr || ve <= addr) {
      // A gap. Possibly real (SIGSEGV), possibly the transient hole a completed
      // boundary move leaves between the walk and the field reads (the bytes now
      // belong to the *predecessor*). Only the locked path can tell them apart.
      return -1;
    }
    const uint32_t required = is_write ? kProtWrite : kProtRead;
    if ((prot & required) != required) {
      // Deny only against doubly-validated state: the per-VMA seqlock proved the
      // (bounds, prot) pair consistent; an unchanged stripe seqcount proves the VMA
      // was live and un-clipped for the whole read window.
      if (stripe.ValidateSeq(iseq) && !vma->Detached()) {
        slice.fault_spec_ok.fetch_add(1, std::memory_order_relaxed);
        slice.fault_errors.fetch_add(1, std::memory_order_relaxed);
        return 0;
      }
      slice.fault_spec_retry.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    if (test_validate_before_install_) {
      // TEST-ONLY broken ordering: validate, dawdle, then install. A munmap landing in
      // the window strands the install after the page sweep — the stale page the
      // fault-vs-unmap battery exists to catch.
      if (!stripe.ValidateSeq(iseq) || vma->Detached()) {
        slice.fault_spec_retry.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      for (uint32_t i = 0; i < test_spec_window_yields_; ++i) {
        std::this_thread::yield();
      }
      if (pages_.Install(page_addr / kPageSize)) {
        slice.major_faults.fetch_add(1, std::memory_order_relaxed);
      }
      slice.fault_spec_ok.fetch_add(1, std::memory_order_relaxed);
      return 1;
    }

    const uint64_t page = page_addr / kPageSize;
    uint64_t ticket = 0;
    const bool installed = pages_.Install(page, &ticket);
    for (uint32_t i = 0; i < test_spec_window_yields_; ++i) {
      std::this_thread::yield();
    }
    if (installed) {
      TestOnlyMaybePark(kParkBeforeValidate);
    }
    if (!stripe.ValidateSeq(iseq) || vma->Detached()) {
      if (installed) {
        if (test_undo_sweep_check_) {
          // Ticket-exact undo: a claimed sweep may already have erased our install and
          // let a winning fault re-install the page; RemoveExact removes only our own
          // install (ticket match), never the winner's. Every sweep walks its whole
          // range, so an install the sweep erased needs nothing further from us.
          pages_.RemoveExact(page, ticket);
        } else {
          // TEST-ONLY pre-deferral blind undo (TestOnlySetUndoSweepCheck(false)): can
          // erase a winner's re-install after a sweep flushed ours — the stale-absence
          // the extended fault-vs-unmap oracle exists to catch.
          pages_.Remove(page);
        }
      }
      slice.fault_spec_retry.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (installed) {
      slice.major_faults.fetch_add(1, std::memory_order_relaxed);
    }
    TestOnlyMaybePark(kParkAfterValidate);
    // WINNING fault only: the unchanged seqcount proves the mapping stayed live from
    // walk through validate, so a sweep pending at validation covering this page is a
    // DONTNEED on the live mapping — punch the page out so the deferred erase cannot
    // undo a fault that completed after the madvise call (the repopulation contract;
    // see SweepQueue::CancelPending). A LOSER must not cancel: its stale walk may have
    // found the VMA a munmap just unlinked, and cancelling there would disarm the
    // munmap's own sweep and strand a pre-munmap install. Nor may a winner keep a
    // cancel of a sweep enqueued after its validation: a munmap of this page can run
    // between the two, and its pending sweep is what the cancel just punched. A
    // munmap bumps the stripe seqcount before it enqueues, so a cancel followed by a
    // failed re-validation puts the page back; when the bump came from another
    // structural op, the re-queued page is only a spurious MADV_DONTNEED. No full
    // fence here either: a cancel that hit the munmap's range took the sweep-queue
    // lock after the enqueue released it, so bump → enqueue's unlock → the cancel's
    // lock → the re-validating load is a happens-before chain.
    SweepQueue& q = sweeps_[si].value;
    if (q.CancelPending(page) && !stripe.ValidateSeq(iseq)) {
      q.Enqueue(page, page + 1);
    }
    slice.fault_spec_ok.fetch_add(1, std::memory_order_relaxed);
    return 1;
  }
  return -1;
}

void AddressSpace::TestOnlyMaybePark(uint32_t where) {
  uint32_t pend = test_spec_park_pending_.load(std::memory_order_acquire);
  if (pend != where || !test_spec_park_pending_.compare_exchange_strong(
                           pend, 0, std::memory_order_acq_rel)) {
    return;
  }
  test_spec_parked_.store(true, std::memory_order_release);
  const auto backstop = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!test_spec_park_release_.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < backstop) {
    std::this_thread::yield();
  }
}

bool AddressSpace::PageFault(uint64_t addr, bool is_write) {
  // A fault counts itself once, in the outcome that ends it: fault_spec_ok, or
  // fault_try_ok / fault_try_fallback on the locked path. Stats() derives `faults`.
  VmStripeStats& slice = stats_.Mine()[index_.IndexOf(addr)].value;
  const uint64_t page_addr = PageDown(addr);
  if (scoped_structural_) {
    const int verdict = PageFaultOptimistic(addr, is_write, page_addr, slice);
    if (verdict >= 0) {
      return verdict != 0;
    }
    slice.fault_spec_fallback.fetch_add(1, std::memory_order_relaxed);
  }
  const Range r = refine_fault_ ? Range{page_addr, page_addr + kPageSize} : Range::Full();
  // Trylock-first, mirroring the kernel fault path (do_user_addr_fault does
  // mmap_read_trylock before it will ever sleep): the uncontended fault never blocks,
  // and the contended one falls back to the ordinary blocking acquisition.
  void* h = nullptr;
  if (lock_->TryLock(r, &h, LockMode::kRead)) {
    slice.fault_try_ok.fetch_add(1, std::memory_order_relaxed);
  } else {
    slice.fault_try_fallback.fetch_add(1, std::memory_order_relaxed);
    h = lock_->Lock(r, LockMode::kRead);
  }
  bool ok;
  if (scoped_structural_) {
    // The page-range read lock no longer excludes out-of-range structural writers, so
    // the lookup walks optimistically and the epoch guard keeps any VMA the walk
    // touches (including concurrently retired ones) dereferenceable.
    EpochGuard guard(EpochDomain::Global());
    ok = PageFaultLocked(addr, is_write, page_addr, slice);
  } else {
    ok = PageFaultLocked(addr, is_write, page_addr, slice);
  }
  lock_->Unlock(h);
  return ok;
}

bool AddressSpace::MadviseDontNeed(uint64_t addr, uint64_t length) {
  if (length == 0) {
    return false;
  }
  const uint64_t s = PageDown(addr);
  const uint64_t e = PageUp(addr + length);
  if (e <= s) {
    return false;  // wrapped range
  }
  // MADV_DONTNEED runs under the read acquisition in the kernel: it only drops pages.
  // The drop is enqueued (see the header for the exact contract — only pre-call
  // installs are guaranteed gone, and only once the sweep flushes), one piece per
  // covered stripe, so every covered stripe's queue gets its flush check.
  void* h = lock_->Lock(refine_fault_ ? Range{s, e} : Range::Full(), LockMode::kRead);
  EnqueueSweepRange(s, e, stats_.Mine());
  lock_->Unlock(h);
  MaybeFlushSweeps(s, e);
  return true;
}

std::vector<VmaInfo> AddressSpace::SnapshotVmas() {
  std::vector<VmaInfo> out;
  // The full-range write acquisition conflicts with every scoped writer and reader, so
  // every stripe's tree is quiescent and plain cross-stripe iteration is safe.
  void* h = lock_->LockFullWrite();
  const unsigned last = stripes_ - 1;
  for (Vma* v = index_.First(0, last); v != nullptr; v = index_.Next(v, last)) {
    out.push_back({v->Start(), v->End(), v->Prot()});
  }
  lock_->Unlock(h);
  return out;
}

bool AddressSpace::CheckInvariants() {
  // Settle the deferred sweeps BEFORE taking the full write lock: DrainSweeps runs an
  // epoch barrier, and a barrier under the lock could stall every other operation for
  // the force-quiesce watchdog period.
  DrainSweeps();
  void* h = lock_->LockFullWrite();
  bool ok = index_.ValidateStructure();
  uint64_t prev_end = 0;
  const unsigned last = stripes_ - 1;
  for (Vma* v = index_.First(0, last); ok && v != nullptr; v = index_.Next(v, last)) {
    const uint64_t vs = v->Start();
    const uint64_t ve = v->End();
    ok = vs < ve && vs % kPageSize == 0 && ve % kPageSize == 0 && vs >= prev_end &&
         // No VMA may straddle a stripe-window edge: stripe-local lookups depend on it.
         index_.IndexOf(vs) == index_.IndexOf(ve - 1);
    prev_end = ve;
  }
  if (ok) {
    // No page may be present outside a mapped VMA — unless a sweep enqueued since the
    // drain above (a concurrent unmapper) still covers it, in which case it is dead
    // but not yet swept, which the drain-barrier contract allows.
    std::vector<uint64_t> suspects;
    for (uint64_t page : pages_.AllPages()) {
      const uint64_t a = page * kPageSize;
      Vma* v = index_.Find(a, 0, last);
      if ((v == nullptr || v->Start() > a) &&
          !sweeps_[index_.IndexOf(a)].value.CoversPending(page)) {
        suspects.push_back(page);
      }
    }
    if (!suspects.empty()) {
      // Not a verdict yet: a speculative fault that is about to lose holds a
      // transient install in a just-unmapped range for its whole
      // install→validate→undo window, which preemption can stretch across this
      // entire scan — and our full write lock does not order lock-free faults.
      // Settle instead of flaking: drop the lock, drain (the barrier waits out every
      // such fault, so its undo has landed), and re-examine only the recorded
      // suspects. A real leak survives the drain and still fails.
      lock_->Unlock(h);
      DrainSweeps();
      h = lock_->LockFullWrite();
      for (uint64_t page : suspects) {
        if (pages_.CountRange(page, page + 1) == 0) {
          continue;  // the loser undid it (or a sweep caught it): transient, fine
        }
        const uint64_t a = page * kPageSize;
        Vma* v = index_.Find(a, 0, last);
        if ((v == nullptr || v->Start() > a) &&
            !sweeps_[index_.IndexOf(a)].value.CoversPending(page)) {
          ok = false;
          break;
        }
      }
    }
  }
  lock_->Unlock(h);
  return ok;
}

}  // namespace srl::vm
