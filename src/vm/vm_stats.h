// Operation and speculation counters for the simulated VM subsystem.
//
// spec_success / spec_fallback reproduce the paper's ftrace observation that "the
// majority of the calls to mprotect (over 99%) succeed in the speculative path" for the
// GLIBC-arena workload.
//
// Every counter is kept per counter slot and per stripe, and no operation writes a
// shared line. VmStats holds one block per counter slot (src/sync/topology.h): the
// calling thread's block is `StripeCount()` cache-aligned VmStripeStats, allocated on
// the slot's first increment. An operation fetches its block once (Mine()) and counts
// each event once, in the slice of the stripe its address falls in. Totals exist only
// on read: Fold() sums every block into the per-stripe view that stripe(i) returns and
// into the flat totals this struct inherits from VmStripeStats. AddressSpace::Stats()
// folds before it returns, so a reader sees the counts as of its Stats() call, and the
// isolation claim (churn in stripe A causes no speculative-fault retries in stripe B)
// reads directly off the per-stripe view.
#ifndef SRL_VM_VM_STATS_H_
#define SRL_VM_VM_STATS_H_

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <vector>

#include "src/sync/cacheline.h"
#include "src/sync/spin_lock.h"
#include "src/sync/topology.h"

namespace srl::vm {

// One stripe's counters, in one slot block, in the per-stripe view, or (as VmStats's
// base) the totals over every stripe.
struct VmStripeStats {
  std::atomic<uint64_t> mmaps{0};
  std::atomic<uint64_t> munmaps{0};
  std::atomic<uint64_t> mprotects{0};
  std::atomic<uint64_t> faults{0};
  std::atomic<uint64_t> major_faults{0};   // of the faults, pages actually installed
  std::atomic<uint64_t> fault_errors{0};   // unmapped address or protection violation
  std::atomic<uint64_t> fault_try_ok{0};        // fault admitted by the trylock fast path
  std::atomic<uint64_t> fault_try_fallback{0};  // trylock failed; blocked on the read lock
  // Lock-free speculative fault path (scoped variants): faults it resolved, attempts
  // that had to retry (validation failure / torn metadata read, e.g. same-stripe
  // churn), and faults that exhausted their attempts (or observed a gap, which only
  // the locked path may adjudicate) and degraded to the trylock-first locked path.
  std::atomic<uint64_t> fault_spec_ok{0};
  std::atomic<uint64_t> fault_spec_retry{0};
  std::atomic<uint64_t> fault_spec_fallback{0};
  std::atomic<uint64_t> spec_success{0};   // mprotect completed on the speculative path
  std::atomic<uint64_t> spec_retries{0};   // seq/boundary validation failed, retried
  std::atomic<uint64_t> spec_fallback{0};  // structural change forced the structural path
  // Range-scoped structural ops (kTreeScoped / kListScoped): structural mutations that
  // completed under a write lock covering only the affected range (padded one page),
  // vs. the classify-then-fallback cases that had to degrade to a full-range write.
  std::atomic<uint64_t> scoped_structural{0};
  std::atomic<uint64_t> scoped_fallback{0};
  // Of the scoped fallbacks, how many degraded because the padded range crossed a
  // stripe edge (as opposed to being unrepresentable at the top of the address space).
  std::atomic<uint64_t> cross_stripe_fallback{0};
  // Optimistic mm_rb walks (VmaStripe::FindOptimistic) that overlapped a structural
  // mutation and retried.
  std::atomic<uint64_t> find_retries{0};
  std::atomic<uint64_t> mmap_overflow{0};  // mmaps that overflowed INTO this stripe
  // Deferred page sweeps (see README "Deferred page sweeps"): dead page ranges queued
  // by munmap and MADV_DONTNEED, enqueues that coalesced with already-queued ranges,
  // pages actually erased by the flusher, flush passes run, and sweeps skipped outright
  // because the dying VMA's present-page hint proved it never faulted a page.
  std::atomic<uint64_t> sweeps_queued{0};         // ranges enqueued
  std::atomic<uint64_t> sweeps_queued_pages{0};   // pages enqueued (pre-coalescing)
  std::atomic<uint64_t> sweeps_coalesced{0};      // pre-existing ranges absorbed
  std::atomic<uint64_t> sweeps_swept_pages{0};    // pages erased by flushes
  std::atomic<uint64_t> sweeps_flushes{0};        // flush passes (claim + sweep)
  std::atomic<uint64_t> sweeps_skipped_empty{0};  // empty-VMA sweeps skipped
};

// Every counter of VmStripeStats, in declaration order; Fold() sums exactly these.
inline constexpr std::atomic<uint64_t> VmStripeStats::*kVmCounters[] = {
    &VmStripeStats::mmaps,               &VmStripeStats::munmaps,
    &VmStripeStats::mprotects,           &VmStripeStats::faults,
    &VmStripeStats::major_faults,        &VmStripeStats::fault_errors,
    &VmStripeStats::fault_try_ok,        &VmStripeStats::fault_try_fallback,
    &VmStripeStats::fault_spec_ok,       &VmStripeStats::fault_spec_retry,
    &VmStripeStats::fault_spec_fallback, &VmStripeStats::spec_success,
    &VmStripeStats::spec_retries,        &VmStripeStats::spec_fallback,
    &VmStripeStats::scoped_structural,   &VmStripeStats::scoped_fallback,
    &VmStripeStats::cross_stripe_fallback, &VmStripeStats::find_retries,
    &VmStripeStats::mmap_overflow,       &VmStripeStats::sweeps_queued,
    &VmStripeStats::sweeps_queued_pages, &VmStripeStats::sweeps_coalesced,
    &VmStripeStats::sweeps_swept_pages,  &VmStripeStats::sweeps_flushes,
    &VmStripeStats::sweeps_skipped_empty,
};
static_assert(sizeof(VmStripeStats) ==
                  std::size(kVmCounters) * sizeof(std::atomic<uint64_t>),
              "a VmStripeStats counter is missing from kVmCounters");

// The flat totals (inherited) as of the last Fold(), plus the slot blocks that
// operations count into.
struct VmStats : VmStripeStats {
  explicit VmStats(unsigned stripes) : blocks_(stripes) {}

  // The calling thread's block: its slice of every stripe, indexed by stripe.
  CacheAligned<VmStripeStats>* Mine() { return blocks_.Mine(); }

  // Sums every slot block into the per-stripe view and the flat totals. Concurrent
  // operations keep counting; a fold reads each counter once, at some point during
  // the call. Folds are serialized, so totals never go backwards.
  void Fold() {
    constexpr std::size_t kN = std::size(kVmCounters);
    const unsigned n = StripeCount();
    std::vector<uint64_t> sums(n * kN, 0);
    std::lock_guard<SpinLock> guard(fold_lock_);
    blocks_.ForEach([&](const CacheAligned<VmStripeStats>* block) {
      for (unsigned i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < kN; ++c) {
          sums[i * kN + c] +=
              (block[i].value.*kVmCounters[c]).load(std::memory_order_relaxed);
        }
      }
    });
    if (view_ == nullptr) {
      view_ = std::make_unique<VmStripeStats[]>(n);
    }
    for (std::size_t c = 0; c < kN; ++c) {
      uint64_t total = 0;
      for (unsigned i = 0; i < n; ++i) {
        (view_[i].*kVmCounters[c]).store(sums[i * kN + c], std::memory_order_relaxed);
        total += sums[i * kN + c];
      }
      (this->*kVmCounters[c]).store(total, std::memory_order_relaxed);
    }
  }

  unsigned StripeCount() const { return blocks_.Size(); }
  // Stripe i's counters as of the last Fold().
  const VmStripeStats& stripe(unsigned i) const { return view_[i]; }

  uint64_t Faults() const { return faults.load(std::memory_order_relaxed); }
  uint64_t MajorFaults() const { return major_faults.load(std::memory_order_relaxed); }
  uint64_t FaultSpecOk() const { return fault_spec_ok.load(std::memory_order_relaxed); }

  // Fraction of page faults resolved entirely lock-free (scoped variants; 0 elsewhere).
  double FaultSpecRate() const {
    const uint64_t total = Faults();
    if (total == 0) {
      return 0.0;
    }
    return static_cast<double>(FaultSpecOk()) / static_cast<double>(total);
  }

  // Fraction of page faults admitted without blocking — what bench/abl_trylock sweeps.
  double FaultTrySuccessRate() const {
    const uint64_t ok = fault_try_ok.load(std::memory_order_relaxed);
    const uint64_t fb = fault_try_fallback.load(std::memory_order_relaxed);
    if (ok + fb == 0) {
      return 0.0;
    }
    return static_cast<double>(ok) / static_cast<double>(ok + fb);
  }

  double SpeculationSuccessRate() const {
    const uint64_t total = mprotects.load(std::memory_order_relaxed);
    if (total == 0) {
      return 0.0;
    }
    return static_cast<double>(spec_success.load(std::memory_order_relaxed)) /
           static_cast<double>(total);
  }

  // Fraction of structural operations that stayed range-scoped (scoped variants only;
  // 0 when no structural op ran).
  double ScopedStructuralRate() const {
    const uint64_t scoped = scoped_structural.load(std::memory_order_relaxed);
    const uint64_t full = scoped_fallback.load(std::memory_order_relaxed);
    if (scoped + full == 0) {
      return 0.0;
    }
    return static_cast<double>(scoped) / static_cast<double>(scoped + full);
  }

 private:
  SlotBlocks<CacheAligned<VmStripeStats>> blocks_;
  std::unique_ptr<VmStripeStats[]> view_;  // allocated by the first Fold()
  SpinLock fold_lock_;
};

}  // namespace srl::vm

#endif  // SRL_VM_VM_STATS_H_
