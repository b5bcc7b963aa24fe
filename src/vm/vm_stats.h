// Operation and speculation counters for the simulated VM subsystem.
//
// spec_success / spec_fallback reproduce the paper's ftrace observation that "the
// majority of the calls to mprotect (over 99%) succeed in the speculative path" for the
// GLIBC-arena workload.
//
// Since the address space was sharded into stripes, the counters that localize to one
// stripe (scoped structural ops, speculative fault outcomes, optimistic-walk retries,
// mmap cursor overflow) are additionally kept per stripe in cache-line-padded slots, so
// the isolation claim — churn in stripe A causes no speculative-fault retries in
// stripe B — is directly observable rather than inferred. The flat totals remain the
// authoritative aggregates (they are bumped on the same events) — EXCEPT the per-fault
// success counters, which are per-stripe only and aggregated on read (see Faults()).
#ifndef SRL_VM_VM_STATS_H_
#define SRL_VM_VM_STATS_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/sync/cacheline.h"

namespace srl::vm {

// Per-stripe slice of the counters below; see VmStats::stripe().
struct VmStripeStats {
  std::atomic<uint64_t> faults{0};             // faults whose address lands in this stripe
  std::atomic<uint64_t> major_faults{0};       // of those, pages actually installed
  std::atomic<uint64_t> scoped_structural{0};  // structural ops completed stripe-scoped
  std::atomic<uint64_t> scoped_fallback{0};    // ops starting in this stripe that degraded
  std::atomic<uint64_t> fault_spec_ok{0};      // lock-free faults resolved in this stripe
  std::atomic<uint64_t> fault_spec_retry{0};   // speculative attempts retried (same-stripe churn)
  std::atomic<uint64_t> find_retries{0};       // optimistic walks of this stripe's tree retried
  std::atomic<uint64_t> mmap_overflow{0};      // mmaps that overflowed INTO this stripe
  std::atomic<uint64_t> sweep_flushes{0};      // deferred-sweep flushes of this stripe's queue
};

struct VmStats {
  std::atomic<uint64_t> mmaps{0};
  std::atomic<uint64_t> munmaps{0};
  std::atomic<uint64_t> mprotects{0};
  std::atomic<uint64_t> fault_errors{0};   // unmapped address or protection violation
  std::atomic<uint64_t> fault_try_ok{0};        // fault admitted by the trylock fast path
  std::atomic<uint64_t> fault_try_fallback{0};  // trylock failed; blocked on the read lock
  // Lock-free speculative fault path (scoped variants): attempts that had to retry
  // (validation failure / torn metadata read), and faults that exhausted their attempts
  // (or observed a gap, which only the locked path may adjudicate) and degraded to the
  // trylock-first locked path. The per-fault success counters (faults, major_faults,
  // fault_spec_ok) have NO flat atomic: see the aggregated accessors below.
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

  // --- Per-stripe slices (sized by AddressSpace at construction) ---

  void ConfigureStripes(unsigned n) {
    stripe_count_ = n;
    per_stripe_ = std::make_unique<CacheAligned<VmStripeStats>[]>(n);
  }
  unsigned StripeCount() const { return stripe_count_; }
  VmStripeStats& stripe(unsigned i) { return per_stripe_[i].value; }
  const VmStripeStats& stripe(unsigned i) const { return per_stripe_[i].value; }

  // The counters bumped once per successful fault are kept per-stripe ONLY, unlike
  // the rest of the flat totals: at millions of faults a second a shared fetch_add
  // per fault serializes every faulting thread on one cache line — exactly the
  // cross-stripe coupling the stripes exist to remove. The flat totals for those
  // aggregate on read instead.
  uint64_t Faults() const { return SumStripes(&VmStripeStats::faults); }
  uint64_t MajorFaults() const { return SumStripes(&VmStripeStats::major_faults); }
  uint64_t FaultSpecOk() const { return SumStripes(&VmStripeStats::fault_spec_ok); }

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
  uint64_t SumStripes(std::atomic<uint64_t> VmStripeStats::*m) const {
    uint64_t sum = 0;
    for (unsigned i = 0; i < stripe_count_; ++i) {
      sum += (per_stripe_[i].value.*m).load(std::memory_order_relaxed);
    }
    return sum;
  }

  unsigned stripe_count_ = 0;
  std::unique_ptr<CacheAligned<VmStripeStats>[]> per_stripe_;
};

}  // namespace srl::vm

#endif  // SRL_VM_VM_STATS_H_
