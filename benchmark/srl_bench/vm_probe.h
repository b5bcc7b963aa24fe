// Counter snapshots of the layers under an AddressSpace — vm (VmStats, VmLock), epoch
// (sweep queues) and sync (admission gate) — and the per-layer metrics derived from the
// difference of two snapshots. Reads only what the layers already expose.
#ifndef SRL_BENCHMARK_SRL_BENCH_VM_PROBE_H_
#define SRL_BENCHMARK_SRL_BENCH_VM_PROBE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "srl_bench/common.h"
#include "src/harness/wait_stats.h"
#include "src/sync/admission.h"
#include "src/vm/address_space.h"

namespace srlbench {

struct VmSnapshot {
  uint64_t faults, spec_ok, spec_retry, find_retries, try_ok, try_fallback;
  uint64_t mprotects, spec_success, scoped, scoped_fallback, full_writes;
  uint64_t flushes, swept_pages, queued, coalesced;
  uint64_t parks, culls;
  uint64_t t_ns;

  static VmSnapshot Take(srl::vm::AddressSpace& as) {
    const srl::vm::VmStats& s = as.Stats();
    auto ld = [](const std::atomic<uint64_t>& a) { return a.load(std::memory_order_relaxed); };
    return {s.Faults(),
            s.FaultSpecOk(),
            ld(s.fault_spec_retry),
            ld(s.find_retries),
            ld(s.fault_try_ok),
            ld(s.fault_try_fallback),
            ld(s.mprotects),
            ld(s.spec_success),
            ld(s.scoped_structural),
            ld(s.scoped_fallback),
            as.Lock().FullWriteAcquisitions(),
            ld(s.sweeps_flushes),
            ld(s.sweeps_swept_pages),
            ld(s.sweeps_queued),
            ld(s.sweeps_coalesced),
            srl::AdmissionGate::TotalParks(),
            srl::AdmissionGate::TotalCulls(),
            NowNs()};
  }
};

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// vm, epoch and sync counter metrics over the interval between two snapshots.
inline void ReportVmCounters(const VmSnapshot& a, const VmSnapshot& b, Report* report) {
  const double faults = static_cast<double>(b.faults - a.faults);
  const double secs = static_cast<double>(b.t_ns - a.t_ns) * 1e-9;
  const double tries = static_cast<double>((b.try_ok - a.try_ok) + (b.try_fallback - a.try_fallback));
  const double structural =
      static_cast<double>((b.scoped - a.scoped) + (b.scoped_fallback - a.scoped_fallback));
  report->Set("vm.fault_spec_rate", Ratio(static_cast<double>(b.spec_ok - a.spec_ok), faults));
  report->Set("vm.fault_spec_retry_per_kfault",
              Ratio(1000.0 * static_cast<double>(b.spec_retry - a.spec_retry), faults));
  report->Set("vm.find_retries_per_kfault",
              Ratio(1000.0 * static_cast<double>(b.find_retries - a.find_retries), faults));
  report->Set("vm.fault_try_fallback_rate",
              Ratio(static_cast<double>(b.try_fallback - a.try_fallback), tries));
  report->Set("vm.mprotect_spec_rate",
              Ratio(static_cast<double>(b.spec_success - a.spec_success),
                    static_cast<double>(b.mprotects - a.mprotects)));
  report->Set("vm.scoped_rate", Ratio(static_cast<double>(b.scoped - a.scoped), structural));
  report->Set("vm.full_write_acquisitions", static_cast<double>(b.full_writes - a.full_writes));
  report->Set("epoch.sweep_flushes_per_s", Ratio(static_cast<double>(b.flushes - a.flushes), secs));
  report->Set("epoch.swept_pages_per_s",
              Ratio(static_cast<double>(b.swept_pages - a.swept_pages), secs));
  report->Set("epoch.sweeps_coalesced_rate",
              Ratio(static_cast<double>(b.coalesced - a.coalesced),
                    static_cast<double>(b.queued - a.queued)));
  report->Set("sync.admission_parks", static_cast<double>(b.parks - a.parks));
  report->Set("sync.admission_culls", static_cast<double>(b.culls - a.culls));
}

// VM-lock acquisition waits (the WaitStats sink, the lock_stat analogue): mean read and
// write wait, and total wait as a share of `client_wall_ns`.
inline void ReportLockWaits(const srl::WaitStats& w, double client_wall_ns, Report* report) {
  report->Set("vm.lock_read_wait_mean_ns", w.MeanReadNs());
  report->Set("vm.lock_write_wait_mean_ns", w.MeanWriteNs());
  const double total = w.MeanReadNs() * static_cast<double>(w.ReadCount()) +
                       w.MeanWriteNs() * static_cast<double>(w.WriteCount());
  report->Set("vm.lock_wait_share", Ratio(total, client_wall_ns));
}

// How many distinct stripes AddressSpace::HomeStripe() gave the clients.
template <typename Clients>
double DistinctHomeStripes(const Clients& clients) {
  std::vector<unsigned> homes;
  for (const auto& c : clients) {
    homes.push_back(c->home_stripe);
  }
  std::sort(homes.begin(), homes.end());
  return static_cast<double>(std::unique(homes.begin(), homes.end()) - homes.begin());
}

// Drains the deferred sweeps and checks the address space's structural invariants —
// the post-window check every VM workload runs. Reports the backlog found and the
// drain time.
inline void DrainAndCheck(srl::vm::AddressSpace& as, Report* report) {
  report->Set("epoch.pending_sweep_pages_end", static_cast<double>(as.PendingSweepPages()));
  const uint64_t t0 = NowNs();
  as.DrainSweeps();
  report->Set("epoch.drain_ms", static_cast<double>(NowNs() - t0) * 1e-6);
  if (!as.CheckInvariants()) {
    report->Fail("AddressSpace::CheckInvariants failed after the window");
  }
}

}  // namespace srlbench

#endif  // SRL_BENCHMARK_SRL_BENCH_VM_PROBE_H_
